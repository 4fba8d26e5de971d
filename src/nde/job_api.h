#ifndef NDE_NDE_JOB_API_H_
#define NDE_NDE_JOB_API_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/result.h"
#include "common/trace_context.h"
#include "importance/game_values.h"
#include "telemetry/http_exporter.h"

namespace nde {

/// Async importance jobs over HTTP — the serving layer on top of the
/// algorithm registry (src/nde/registry.h) and the shared table engine
/// (src/nde/engine.h), mounted on the embedded HttpExporter:
///
///   POST   /jobs       {"algorithm","label","csv"|"csv_path","options":{}}
///                      -> 202 {"id","state":"queued"}; 400 on a bad
///                      request; 429 when the queue is full (backpressure,
///                      never unbounded memory)
///   GET    /jobs       -> {"jobs":[{summary}...]}
///   GET    /jobs/<id>  -> full snapshot: state, progress, and on success
///                      the estimate (values, std_errors, ranked rows)
///   DELETE /jobs/<id>  -> cooperative cancellation (completed waves are
///                      kept; see EstimatorOptions::cancel)
///   GET    /jobs/<id>/tracez -> the job's span tree: the spans of its trace
///                      in /tracez's span form (telemetry::WriteSpans);
///                      ?folded=1 downloads flamegraph-compatible folded
///                      stacks instead
///   GET    /jobs/<id>/eventz -> per-wave event timeline (wave index,
///                      evals, max_std_error, duration)
///   GET    /algorithmz -> AlgorithmRegistry::DescribeJson()
///
/// json::Writer writes every body: NaN and ±inf results read null, and CSV
/// bytes that are not UTF-8 read \ufffd, so each body is valid JSON.
///
/// Jobs run on a private fixed-size ThreadPool. Each job writes a RunReport
/// artifact (config, convergence curve, error) under `artifact_dir` when one
/// is configured. A failed job flips /healthz to degraded exactly like a
/// failed CLI run; a later successful job restores it.
///
/// Trace attribution: Submit adopts the submitting thread's TraceContext
/// (the one HttpExporter::Dispatch installed from the request's traceparent)
/// — or mints one when there is none — and stamps it with the job's id and
/// algorithm. The job's whole execution runs under that context, so its
/// spans, structured logs, and labeled metrics all carry the same trace id,
/// which is also recorded in the RunReport artifact ("trace_id" config) and
/// the job snapshot. An externally supplied traceparent therefore round-trips
/// verbatim from HTTP ingress to every signal the job emits.

struct JobApiOptions {
  /// Worker threads executing jobs (each job may itself fan out utility
  /// evaluations per its num_threads option).
  size_t num_workers = 1;
  /// Jobs allowed to wait beyond the ones running; a submit past this bound
  /// is refused with ResourceExhausted (HTTP 429).
  size_t max_queued = 8;
  /// Directory for per-job RunReport JSON artifacts ("" disables them).
  std::string artifact_dir;
};

/// One submission, as parsed from POST /jobs or built directly in tests.
struct JobRequest {
  std::string algorithm;  ///< registry name, e.g. "tmc_shapley"
  std::string label;      ///< label column of the CSV
  std::string csv_path;   ///< server-side CSV file to load...
  std::string csv_data;   ///< ...or inline CSV text (exactly one of the two)
  std::map<std::string, std::string> options;  ///< registry Configure pairs
};

enum class JobState { kQueued, kRunning, kDone, kError, kCancelled };

/// "queued" / "running" / "done" / "error" / "cancelled".
const char* JobStateName(JobState state);

/// One estimator wave as observed by the job's progress callback: the basis
/// of GET /jobs/<id>/eventz and of the `<id>.events.json` artifact.
struct JobWaveEvent {
  size_t wave = 0;     ///< 1-based wave index
  int64_t ts_us = 0;   ///< wave boundary, trace-epoch microseconds
  int64_t dur_us = 0;  ///< time since the previous boundary (or job start)
  std::string phase;   ///< reporting estimator phase, e.g. "tmc_shapley"
  size_t completed = 0;
  size_t total = 0;
  size_t utility_evaluations = 0;
  double max_std_error = 0.0;
};

/// Point-in-time copy of one job, safe to read after the job advanced.
struct JobSnapshot {
  std::string id;
  std::string algorithm;
  JobState state = JobState::kQueued;
  size_t progress_completed = 0;
  size_t progress_total = 0;
  /// Set when state == kDone (and for a cancelled job that completed waves
  /// before the cancel landed, values stay empty — partial results are not
  /// exposed, matching the CLI's exit-3 contract).
  ImportanceEstimate estimate;
  std::vector<uint32_t> ranked_rows;
  size_t train_rows = 0;
  size_t valid_rows = 0;
  Status error;               ///< non-OK when state is kError/kCancelled
  std::string artifact_path;  ///< RunReport artifact ("" when disabled)
  /// The job's trace attribution (id fields set at submit time) and the
  /// wave-boundary timeline recorded so far.
  TraceContext trace;
  std::vector<JobWaveEvent> events;
};

class JobManager {
 public:
  explicit JobManager(JobApiOptions options = {});

  /// Cancels every queued/running job, then drains the pool.
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Validates the request (algorithm exists, options parse, exactly one CSV
  /// source) and enqueues it. InvalidArgument/NotFound for a bad request;
  /// ResourceExhausted when max_queued jobs are already waiting.
  Result<std::string> Submit(const JobRequest& request);

  /// NotFound for an unknown id.
  Result<JobSnapshot> Get(const std::string& id) const;

  /// Summaries of every job, oldest first.
  std::vector<JobSnapshot> List() const;

  /// Raises the job's cancel flag. Queued jobs finish as kCancelled without
  /// running; a running job stops at its next wave boundary. Cancelling a
  /// finished job is a no-op. NotFound for an unknown id.
  Status Cancel(const std::string& id);

  /// The HTTP face: handles /jobs, /jobs/<id>, /jobs/<id>/tracez,
  /// /jobs/<id>/eventz, and /algorithmz requests and returns complete
  /// response bytes. Install via
  /// `exporter.SetHandler([&](const auto& r) { return m.HandleHttp(r); })`.
  std::string HandleHttp(const telemetry::HttpRequest& request);

  const JobApiOptions& options() const { return options_; }

 private:
  struct Job;

  void Execute(const std::shared_ptr<Job>& job);
  Status RunJob(Job* job);

  JobApiOptions options_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Job>> jobs_;
  std::vector<std::string> order_;  ///< submission order for List()
  size_t next_id_ = 1;
  size_t pending_ = 0;  ///< submitted but not yet started
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace nde

#endif  // NDE_NDE_JOB_API_H_
