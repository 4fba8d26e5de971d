#ifndef NDE_NDE_REGISTRY_H_
#define NDE_NDE_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/progress.h"
#include "common/result.h"
#include "common/status.h"
#include "importance/game_values.h"
#include "ml/dataset.h"
#include "pipeline/pipeline.h"

namespace nde {

/// The algorithm registry: one uniform, string-configurable surface over
/// every importance estimator in the library (LOO, TMC-Shapley, Banzhaf,
/// Beta-Shapley, KNN-Shapley, Datascope pipeline importance, influence
/// functions, AUM, self-confidence).
///
/// Why: the CLI, the HTTP job API (src/nde/job_api.h), and tests all need to
/// pick an estimator by name and set its knobs from strings. Before the
/// registry each caller hand-rolled its own if/else dispatch and its own flag
/// parsing; now `AlgorithmRegistry::Global().Create("tmc_shapley")` yields an
/// instance whose options are declared once — name, type, default, doc — and
/// set with `Configure("num_permutations", "64")`, with type mismatches and
/// unknown names reported as Status instead of silently ignored.
///
/// Determinism contract: Configure only fills the same option structs the
/// typed APIs take, so a registry-driven run is bit-identical to calling the
/// estimator directly with equal options (pinned by registry_test and
/// determinism_test).

/// Wire types an option value can take. Everything is set from a string;
/// the type governs how that string is parsed and validated.
enum class OptionType {
  kBool,    ///< "true"/"false"/"1"/"0"
  kInt,     ///< non-negative integer ("42")
  kDouble,  ///< finite decimal ("0.5", "1e-3")
  kString,  ///< taken verbatim
};

/// "bool" / "int" / "double" / "string".
const char* OptionTypeName(OptionType type);

/// One declared option: its name, wire type, default (already formatted as
/// the string Configure would accept), and one-line doc.
struct OptionSpec {
  std::string name;
  OptionType type = OptionType::kString;
  std::string default_value;
  std::string doc;
};

/// The data an algorithm runs over. `train` is always set; `validation` is
/// set for every algorithm that scores against a held-out set (all but aum).
/// The pipeline fields are set when the run came through an MlPipeline (the
/// engine fills them); only `datascope` requires them.
struct RunInput {
  const MlDataset* train = nullptr;
  const MlDataset* validation = nullptr;
  /// Pipeline context for source-tuple attribution (datascope).
  const PipelineOutput* pipeline_output = nullptr;
  int32_t source_table_id = 0;
  size_t num_source_rows = 0;
};

/// A configured instance of one algorithm. Instances are cheap, single-use
/// state machines: Create -> Configure*(string) -> Run. Not thread-safe;
/// each job/CLI invocation creates its own.
class AlgorithmInstance {
 public:
  virtual ~AlgorithmInstance() = default;

  const std::string& name() const { return name_; }
  const std::string& summary() const { return summary_; }

  /// The declared options, in registration order.
  std::vector<OptionSpec> OptionSpecs() const;

  bool HasOption(const std::string& option) const;

  /// Parses `value` per the option's declared type and stores it.
  /// Unknown option -> NotFound; unparsable/out-of-range value ->
  /// InvalidArgument. Either way the instance is unchanged on error.
  Status Configure(const std::string& option, const std::string& value);

  /// Applies every entry of `options` via Configure; stops at the first
  /// error.
  Status ConfigureAll(const std::map<std::string, std::string>& options);

  /// The current value of an option, formatted as the string Configure would
  /// accept (doubles use the shortest round-tripping spelling).
  Result<std::string> GetOption(const std::string& option) const;

  /// Cooperative cancellation: the flag is polled at wave boundaries by the
  /// Monte-Carlo estimators and before the run starts by every algorithm.
  /// Must outlive Run. See EstimatorOptions::cancel.
  void SetCancelFlag(const std::atomic<bool>* cancel) { cancel_ = cancel; }

  /// Observational progress hook, forwarded to estimators that report
  /// progress (see common/progress.h).
  void SetProgress(ProgressCallback progress) {
    progress_ = std::move(progress);
  }

  /// Runs the algorithm. Plain-score methods (knn_shapley, influence, aum,
  /// self_confidence, datascope) return an estimate with empty std_errors
  /// and utility_evaluations of 0 (or the LOO count when tracked).
  virtual Result<ImportanceEstimate> Run(const RunInput& input) const = 0;

  /// True when Run's values index rows of the *source table* (datascope's
  /// provenance-attributed scores) rather than rows of the training split.
  virtual bool values_are_source_rows() const { return false; }

 protected:
  AlgorithmInstance(std::string name, std::string summary)
      : name_(std::move(name)), summary_(std::move(summary)) {}

  /// Declares one option with a custom parser. The parser returns
  /// InvalidArgument (message only; Configure prefixes context) on bad
  /// input, and must not mutate state when failing.
  using OptionParser = std::function<Status(const std::string& value)>;
  using OptionGetter = std::function<std::string()>;
  void BindOption(const std::string& name, OptionType type,
                  const std::string& doc, OptionParser parser,
                  OptionGetter getter);

  /// Typed binders over BindOption; defaults are read from *target at bind
  /// time, so bind after the struct holds its defaults.
  void BindBool(const std::string& name, const std::string& doc, bool* target);
  void BindSize(const std::string& name, const std::string& doc,
                size_t* target, size_t min_value = 0);
  void BindUint64(const std::string& name, const std::string& doc,
                  uint64_t* target);
  void BindDouble(const std::string& name, const std::string& doc,
                  double* target, double min_value, bool exclusive_min);

  /// Binds `num_threads`, the one EstimatorOptions knob every estimator
  /// reads. Each algorithm binds the other fields only if its estimator
  /// reads them, so no listed option is inert.
  void BindNumThreads(EstimatorOptions* options);

  /// Copies the runtime-only fields (cancel flag, progress callback) into
  /// the options struct an estimator is about to receive. Call at the top
  /// of Run.
  void ApplyRuntime(EstimatorOptions* options) const {
    options->cancel = cancel_;
    options->progress = progress_;
  }

  bool cancel_requested() const {
    return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  }

  const std::atomic<bool>* cancel_flag() const { return cancel_; }
  const ProgressCallback& progress() const { return progress_; }

 private:
  struct Binding {
    OptionSpec spec;
    OptionParser parser;
    OptionGetter getter;
  };

  std::string name_;
  std::string summary_;
  std::vector<Binding> bindings_;  ///< registration order
  const std::atomic<bool>* cancel_ = nullptr;
  ProgressCallback progress_;
};

/// Builds a fresh unconfigured instance of one algorithm.
using AlgorithmFactory = std::function<std::unique_ptr<AlgorithmInstance>()>;

/// Name -> factory map. `Global()` comes pre-registered with every built-in
/// algorithm; tests may Register extras (e.g. a blocking fake).
class AlgorithmRegistry {
 public:
  /// The process-wide registry with all built-ins registered.
  static AlgorithmRegistry& Global();

  /// Registers `factory` under the name its instances report.
  /// AlreadyExists when the name is taken.
  Status Register(AlgorithmFactory factory);

  /// A fresh instance, or NotFound listing the available names.
  Result<std::unique_ptr<AlgorithmInstance>> Create(
      const std::string& name) const;

  bool Has(const std::string& name) const;

  /// Registered names, sorted.
  std::vector<std::string> Names() const;

  /// Machine-readable catalog:
  /// {"algorithms":[{"name","summary","values","options":[
  ///   {"name","type","default","doc"}]}]} — served on GET /algorithmz.
  std::string DescribeJson() const;

  /// Human-readable catalog for `nde_cli --list-algorithms`.
  std::string DescribeText() const;

 private:
  std::map<std::string, AlgorithmFactory> factories_;
};

}  // namespace nde

#endif  // NDE_NDE_REGISTRY_H_
