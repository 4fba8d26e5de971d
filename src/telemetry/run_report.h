#ifndef NDE_TELEMETRY_RUN_REPORT_H_
#define NDE_TELEMETRY_RUN_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/progress.h"
#include "common/status.h"
#include "telemetry/metrics.h"

namespace nde {
namespace telemetry {

/// One recorded progress observation, as stored in a run report's
/// convergence curve.
struct ConvergencePoint {
  size_t completed = 0;            ///< work units done at this boundary
  size_t total = 0;                ///< full budget in the same unit
  size_t utility_evaluations = 0;  ///< cumulative utility evaluations
  /// Raw max per-unit standard error at this boundary (0 = not estimable).
  double max_std_error = 0.0;
  /// Running minimum of every *estimable* max_std_error seen so far — the
  /// convergence envelope. Unlike the raw series (which can tick up when a
  /// new permutation lands an outlier marginal), the envelope is monotone
  /// nonincreasing by construction, which is what "the run is converging"
  /// plots and acceptance tests want.
  double envelope = 0.0;
};

/// Per-run JSON artifact: invocation config, timing, the convergence curve
/// collected through a ProgressCallback, a metrics snapshot, the run's exact
/// span profile, and the trace buffer's fill. Typical use:
///
///   RunReport report("tmc_shapley");
///   report.SetConfig("seed", int64_t{42});
///   options.progress = report.MakeProgressCallback();
///   ... run the estimator ...
///   report.Finish();
///   NDE_RETURN_IF_ERROR(report.WriteFile("out.json"));
///
/// Recording is observational (see common/progress.h): the report only
/// copies fields out of each update and never feeds anything back, so
/// attaching one cannot change estimator results. Methods are not
/// thread-safe; progress updates arrive on the coordinating thread, which is
/// the thread expected to own the report.
class RunReport {
 public:
  /// `name` identifies the run (usually the CLI command or estimator phase).
  /// Wall-clock and CPU timers start here, and the report records the trace
  /// current on this thread (common/trace_context.h) as the run's own.
  explicit RunReport(std::string name);

  /// Records one invocation-config entry, preserving JSON types. Later calls
  /// with the same key overwrite.
  void SetConfig(const std::string& key, const std::string& value);
  void SetConfig(const std::string& key, const char* value);
  void SetConfig(const std::string& key, int64_t value);
  void SetConfig(const std::string& key, double value);
  void SetConfig(const std::string& key, bool value);

  /// Appends one point to the convergence curve (envelope maintained here).
  void RecordProgress(const ProgressUpdate& update);

  /// Convenience adapter: a callback that forwards to RecordProgress. The
  /// callback holds a raw pointer to this report, which must outlive it.
  ProgressCallback MakeProgressCallback();

  /// Records the failure that ended the run: serialized as an "error" object
  /// ({"code","message","exit_code"}) so report consumers can distinguish a
  /// clean run (no "error" key) from a structured failure without parsing
  /// stderr. Later calls overwrite; `exit_code` is the process exit code the
  /// CLI will return.
  void SetError(const Status& status, int exit_code);

  /// Stops the timers, snapshots metrics and folds the run's spans: those of
  /// the trace recorded at construction, or every buffered span when the
  /// report was built outside any trace. Idempotent: the first call wins, so
  /// the report describes the run, not the time spent serializing it.
  void Finish();

  /// Serializes the report (calls Finish() if the caller has not). Shape:
  /// {"name":...,"config":{...},"timing":{"wall_ms":...,"cpu_ms":...},
  ///  "convergence_curve":[{...}],"metrics":{...},
  ///  "profile":{...},"trace":{...}}
  /// The "profile" block is ProfileJson() of the fold taken at Finish() time
  /// (empty aggregates when telemetry recorded no spans); "trace" holds
  /// {"buffered_spans","dropped_spans","buffer_capacity"}.
  std::string ToJson();

  /// Writes ToJson() plus a trailing newline to `path`.
  Status WriteFile(const std::string& path);

  const std::vector<ConvergencePoint>& curve() const { return curve_; }
  bool finished() const { return finished_; }

 private:
  std::string name_;
  int64_t start_steady_us_ = 0;
  int64_t start_cpu_clock_ = 0;
  double wall_ms_ = 0.0;
  double cpu_ms_ = 0.0;
  bool finished_ = false;
  /// The run's trace id (0 when the report was built outside any trace).
  uint64_t trace_id_hi_ = 0;
  uint64_t trace_id_lo_ = 0;
  /// Insertion-ordered config entries; `value` is pre-rendered JSON.
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<ConvergencePoint> curve_;
  MetricsSnapshot metrics_;
  std::string trace_json_;    ///< pre-rendered "trace" object
  std::string profile_json_;  ///< pre-rendered "profile" object
  bool has_error_ = false;
  Status error_;
  int error_exit_code_ = 0;
};

}  // namespace telemetry
}  // namespace nde

#endif  // NDE_TELEMETRY_RUN_REPORT_H_
