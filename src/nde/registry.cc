#include "nde/registry.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "common/json.h"
#include "common/string_util.h"
#include "datascope/datascope.h"
#include "importance/influence.h"
#include "importance/knn_shapley.h"
#include "importance/label_scores.h"
#include "importance/utility.h"
#include "ml/knn.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"

namespace nde {

const char* OptionTypeName(OptionType type) {
  switch (type) {
    case OptionType::kBool:
      return "bool";
    case OptionType::kInt:
      return "int";
    case OptionType::kDouble:
      return "double";
    case OptionType::kString:
      return "string";
  }
  return "unknown";
}

namespace {

Result<bool> ParseBool(const std::string& value) {
  if (value == "true" || value == "1") return true;
  if (value == "false" || value == "0") return false;
  return Status::InvalidArgument("expects true|false|1|0, got '" + value +
                                 "'");
}

Result<uint64_t> ParseUnsigned(const std::string& value) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument("expects a non-negative integer, got '" +
                                   value + "'");
  }
  errno = 0;
  unsigned long long parsed = std::strtoull(value.c_str(), nullptr, 10);
  if (errno == ERANGE) {
    return Status::InvalidArgument("integer out of range: '" + value + "'");
  }
  return static_cast<uint64_t>(parsed);
}

Result<double> ParseDouble(const std::string& value) {
  if (value.empty()) {
    return Status::InvalidArgument("expects a number, got ''");
  }
  char* end = nullptr;
  double parsed = std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size()) {
    return Status::InvalidArgument("expects a number, got '" + value + "'");
  }
  if (!std::isfinite(parsed)) {
    return Status::InvalidArgument("expects a finite number, got '" + value +
                                   "'");
  }
  return parsed;
}

}  // namespace

std::vector<OptionSpec> AlgorithmInstance::OptionSpecs() const {
  std::vector<OptionSpec> specs;
  specs.reserve(bindings_.size());
  for (const Binding& binding : bindings_) specs.push_back(binding.spec);
  return specs;
}

bool AlgorithmInstance::HasOption(const std::string& option) const {
  for (const Binding& binding : bindings_) {
    if (binding.spec.name == option) return true;
  }
  return false;
}

Status AlgorithmInstance::Configure(const std::string& option,
                                    const std::string& value) {
  for (const Binding& binding : bindings_) {
    if (binding.spec.name != option) continue;
    Status parsed = binding.parser(value);
    if (!parsed.ok()) {
      return Status(parsed.code(),
                    StrFormat("option '%s' of algorithm '%s': %s",
                              option.c_str(), name_.c_str(),
                              parsed.message().c_str()));
    }
    return Status::OK();
  }
  return Status::NotFound(StrFormat("algorithm '%s' has no option '%s'",
                                    name_.c_str(), option.c_str()));
}

Status AlgorithmInstance::ConfigureAll(
    const std::map<std::string, std::string>& options) {
  for (const auto& [option, value] : options) {
    NDE_RETURN_IF_ERROR(Configure(option, value));
  }
  return Status::OK();
}

Result<std::string> AlgorithmInstance::GetOption(
    const std::string& option) const {
  for (const Binding& binding : bindings_) {
    if (binding.spec.name == option) return binding.getter();
  }
  return Status::NotFound(StrFormat("algorithm '%s' has no option '%s'",
                                    name_.c_str(), option.c_str()));
}

void AlgorithmInstance::BindOption(const std::string& name, OptionType type,
                                   const std::string& doc,
                                   OptionParser parser, OptionGetter getter) {
  Binding binding;
  binding.spec.name = name;
  binding.spec.type = type;
  binding.spec.doc = doc;
  binding.spec.default_value = getter();
  binding.parser = std::move(parser);
  binding.getter = std::move(getter);
  bindings_.push_back(std::move(binding));
}

void AlgorithmInstance::BindBool(const std::string& name,
                                 const std::string& doc, bool* target) {
  BindOption(
      name, OptionType::kBool, doc,
      [target](const std::string& value) -> Status {
        NDE_ASSIGN_OR_RETURN(*target, ParseBool(value));
        return Status::OK();
      },
      [target]() -> std::string { return *target ? "true" : "false"; });
}

void AlgorithmInstance::BindSize(const std::string& name,
                                 const std::string& doc, size_t* target,
                                 size_t min_value) {
  BindOption(
      name, OptionType::kInt, doc,
      [target, min_value](const std::string& value) -> Status {
        NDE_ASSIGN_OR_RETURN(uint64_t parsed, ParseUnsigned(value));
        if (parsed < min_value) {
          return Status::InvalidArgument(
              StrFormat("must be at least %zu, got '%s'", min_value,
                        value.c_str()));
        }
        *target = static_cast<size_t>(parsed);
        return Status::OK();
      },
      [target]() -> std::string { return StrFormat("%zu", *target); });
}

void AlgorithmInstance::BindUint64(const std::string& name,
                                   const std::string& doc, uint64_t* target) {
  BindOption(
      name, OptionType::kInt, doc,
      [target](const std::string& value) -> Status {
        NDE_ASSIGN_OR_RETURN(*target, ParseUnsigned(value));
        return Status::OK();
      },
      [target]() -> std::string {
        return StrFormat("%llu", static_cast<unsigned long long>(*target));
      });
}

void AlgorithmInstance::BindUint32(const std::string& name,
                                   const std::string& doc, uint32_t* target) {
  BindOption(
      name, OptionType::kInt, doc,
      [target](const std::string& value) -> Status {
        NDE_ASSIGN_OR_RETURN(uint64_t parsed, ParseUnsigned(value));
        if (parsed > 0xffffffffULL) {
          return Status::InvalidArgument("integer out of range: '" + value +
                                         "'");
        }
        *target = static_cast<uint32_t>(parsed);
        return Status::OK();
      },
      [target]() -> std::string { return StrFormat("%u", *target); });
}

void AlgorithmInstance::BindDouble(const std::string& name,
                                   const std::string& doc, double* target,
                                   double min_value, bool exclusive_min) {
  BindOption(
      name, OptionType::kDouble, doc,
      [target, min_value, exclusive_min](const std::string& value) -> Status {
        NDE_ASSIGN_OR_RETURN(double parsed, ParseDouble(value));
        if (exclusive_min ? parsed <= min_value : parsed < min_value) {
          return Status::InvalidArgument(
              StrFormat("must be %s %s, got '%s'",
                        exclusive_min ? "greater than" : "at least",
                        FormatDouble(min_value).c_str(), value.c_str()));
        }
        *target = parsed;
        return Status::OK();
      },
      [target]() -> std::string { return FormatDouble(*target); });
}

void AlgorithmInstance::BindEstimatorOptions(EstimatorOptions* options) {
  BindUint64("seed", "base RNG seed; a fixed seed fixes the result "
             "bit-for-bit at any thread count", &options->seed);
  BindSize("num_threads", "worker threads for the utility fan-out "
           "(0 = process default)", &options->num_threads);
  BindDouble("convergence_tolerance",
             "stop sampling once every std error is at or below this "
             "(0 disables early stopping)",
             &options->convergence_tolerance, 0.0, false);
  BindBool("use_prefix_scan",
           "use the utility's incremental prefix-scan fast path",
           &options->use_prefix_scan);
  BindBool("warm_start",
           "allow approximate warm-started prefix training for models "
           "without an exact scan", &options->warm_start);
  BindSize("max_retries",
           "retry budget per utility evaluation for transient failures",
           &options->max_retries);
  BindUint32("retry_backoff_ms",
             "base retry backoff in ms, doubled per attempt",
             &options->retry_backoff_ms);
}

namespace {

Status CheckTrainValidation(const AlgorithmInstance& algorithm,
                            const RunInput& input, bool needs_validation) {
  if (input.train == nullptr) {
    return Status::InvalidArgument("algorithm '" + algorithm.name() +
                                   "' needs a training dataset");
  }
  if (needs_validation && input.validation == nullptr) {
    return Status::InvalidArgument("algorithm '" + algorithm.name() +
                                   "' needs a validation dataset");
  }
  return Status::OK();
}

/// Shared base for the estimators driven by the retrain-and-score proxy
/// utility (loo, tmc_shapley, banzhaf, beta_shapley). The proxy model is
/// selectable: KNN and Gaussian NB have exact prefix-scan scorers, logistic
/// regression rides the approximate warm-start scan when enabled.
class GameAlgorithm : public AlgorithmInstance {
 protected:
  GameAlgorithm(std::string name, std::string summary)
      : AlgorithmInstance(std::move(name), std::move(summary)) {}

  /// Call from the subclass constructor after its option struct holds its
  /// defaults (binders snapshot defaults at bind time).
  void BindGameOptions(EstimatorOptions* options) {
    BindOption(
        "model", OptionType::kString,
        "proxy model retrained per coalition: knn | gaussian_nb | logreg "
        "(knn and gaussian_nb have exact prefix scans; logreg needs "
        "warm_start for a fast path)",
        [this](const std::string& value) -> Status {
          if (value != "knn" && value != "gaussian_nb" && value != "logreg") {
            return Status::InvalidArgument(
                "expects knn|gaussian_nb|logreg, got '" + value + "'");
          }
          model_ = value;
          return Status::OK();
        },
        [this]() -> std::string { return model_; });
    BindSize("k", "neighbors of the KNN proxy model", &k_, 1);
    BindEstimatorOptions(options);
  }

  Result<std::unique_ptr<ModelAccuracyUtility>> MakeUtility(
      const RunInput& input) const {
    if (cancel_requested()) {
      return Status::Cancelled("'" + name() + "' cancelled before start");
    }
    NDE_RETURN_IF_ERROR(CheckTrainValidation(*this, input, true));
    ClassifierFactory factory;
    if (model_ == "gaussian_nb") {
      factory = [] { return std::make_unique<GaussianNaiveBayes>(); };
    } else if (model_ == "logreg") {
      factory = [] { return std::make_unique<LogisticRegression>(); };
    } else {
      size_t k = k_;
      factory = [k] { return std::make_unique<KnnClassifier>(k); };
    }
    return std::make_unique<ModelAccuracyUtility>(
        std::move(factory), *input.train, *input.validation);
  }

 private:
  std::string model_ = "knn";
  size_t k_ = 5;
};

class LooAlgorithm final : public GameAlgorithm {
 public:
  LooAlgorithm()
      : GameAlgorithm("loo",
                      "leave-one-out importance under the KNN proxy utility: "
                      "phi_i = v(N) - v(N minus i)") {
    BindGameOptions(&options_);
  }

  Result<ImportanceEstimate> Run(const RunInput& input) const override {
    NDE_ASSIGN_OR_RETURN(std::unique_ptr<ModelAccuracyUtility> utility,
                         MakeUtility(input));
    EstimatorOptions options = options_;
    ApplyRuntime(&options);
    NDE_ASSIGN_OR_RETURN(std::vector<double> values,
                         LeaveOneOutValues(*utility, options));
    ImportanceEstimate estimate;
    estimate.values = std::move(values);
    estimate.utility_evaluations = utility->num_evaluations();
    return estimate;
  }

 private:
  EstimatorOptions options_;
};

class TmcShapleyAlgorithm final : public GameAlgorithm {
 public:
  TmcShapleyAlgorithm()
      : GameAlgorithm("tmc_shapley",
                      "truncated Monte-Carlo permutation-sampling Shapley "
                      "values (Ghorbani & Zou 2019)") {
    BindGameOptions(&options_);
    BindSize("num_permutations", "sampled permutations",
             &options_.num_permutations, 1);
    BindDouble("truncation_tolerance",
               "take remaining marginals as zero once |v(prefix) - v(N)| "
               "falls below this (0 disables truncation)",
               &options_.truncation_tolerance, 0.0, false);
  }

  Result<ImportanceEstimate> Run(const RunInput& input) const override {
    NDE_ASSIGN_OR_RETURN(std::unique_ptr<ModelAccuracyUtility> utility,
                         MakeUtility(input));
    TmcShapleyOptions options = options_;
    ApplyRuntime(&options);
    return TmcShapleyValues(*utility, options);
  }

 private:
  TmcShapleyOptions options_;
};

class BanzhafAlgorithm final : public GameAlgorithm {
 public:
  BanzhafAlgorithm()
      : GameAlgorithm("banzhaf",
                      "maximum-sample-reuse Banzhaf values (Wang & Jia "
                      "2023)") {
    BindGameOptions(&options_);
    BindSize("num_samples", "random subsets drawn", &options_.num_samples, 1);
  }

  Result<ImportanceEstimate> Run(const RunInput& input) const override {
    NDE_ASSIGN_OR_RETURN(std::unique_ptr<ModelAccuracyUtility> utility,
                         MakeUtility(input));
    BanzhafOptions options = options_;
    ApplyRuntime(&options);
    return BanzhafValues(*utility, options);
  }

 private:
  BanzhafOptions options_;
};

class BetaShapleyAlgorithm final : public GameAlgorithm {
 public:
  BetaShapleyAlgorithm()
      : GameAlgorithm("beta_shapley",
                      "Beta(alpha, beta)-weighted semivalues by stratified "
                      "cardinality sampling (Kwon & Zou 2022)") {
    BindGameOptions(&options_);
    BindDouble("alpha", "Beta distribution alpha; (1,1) recovers Shapley",
               &options_.alpha, 0.0, true);
    BindDouble("beta", "Beta distribution beta", &options_.beta, 0.0, true);
    BindSize("samples_per_unit", "sampled coalitions per training row",
             &options_.samples_per_unit, 1);
  }

  Result<ImportanceEstimate> Run(const RunInput& input) const override {
    NDE_ASSIGN_OR_RETURN(std::unique_ptr<ModelAccuracyUtility> utility,
                         MakeUtility(input));
    BetaShapleyOptions options = options_;
    ApplyRuntime(&options);
    return BetaShapleyValues(*utility, options);
  }

 private:
  BetaShapleyOptions options_;
};

class KnnShapleyAlgorithm final : public AlgorithmInstance {
 public:
  KnnShapleyAlgorithm()
      : AlgorithmInstance("knn_shapley",
                          "exact Shapley values of the soft K-NN utility in "
                          "O(n log n) per validation point (Jia et al. "
                          "2019)") {
    BindSize("k", "neighbors of the KNN utility", &k_, 1);
    BindEstimatorOptions(&options_);
  }

  Result<ImportanceEstimate> Run(const RunInput& input) const override {
    NDE_RETURN_IF_ERROR(CheckTrainValidation(*this, input, true));
    EstimatorOptions options = options_;
    ApplyRuntime(&options);
    ImportanceEstimate estimate;
    NDE_ASSIGN_OR_RETURN(
        estimate.values,
        KnnShapleyValues(*input.train, *input.validation, k_, options));
    return estimate;
  }

 private:
  size_t k_ = 5;
  EstimatorOptions options_;
};

class DatascopeAlgorithm final : public AlgorithmInstance {
 public:
  DatascopeAlgorithm()
      : AlgorithmInstance(
            "datascope",
            "pipeline-aware source-tuple importance: exact KNN-Shapley over "
            "the pipeline output attributed to source rows via provenance "
            "(Karlas et al. 2023)") {
    BindSize("k", "neighbors of the KNN proxy game", &k_, 1);
    BindEstimatorOptions(&options_);
  }

  bool values_are_source_rows() const override { return true; }

  Result<ImportanceEstimate> Run(const RunInput& input) const override {
    NDE_RETURN_IF_ERROR(CheckTrainValidation(*this, input, true));
    if (input.pipeline_output == nullptr) {
      return Status::InvalidArgument(
          "algorithm 'datascope' needs pipeline provenance; run it through "
          "an MlPipeline (CSV jobs and `nde_cli importance <table.csv>` "
          "provide it)");
    }
    EstimatorOptions options = options_;
    ApplyRuntime(&options);
    NDE_ASSIGN_OR_RETURN(
        std::vector<double> values,
        KnnShapleyOverPipeline(*input.pipeline_output, *input.validation,
                               input.source_table_id, input.num_source_rows,
                               k_, options));
    ImportanceEstimate estimate;
    estimate.values = std::move(values);
    return estimate;
  }

 private:
  size_t k_ = 5;
  EstimatorOptions options_;
};

class InfluenceAlgorithm final : public AlgorithmInstance {
 public:
  InfluenceAlgorithm()
      : AlgorithmInstance("influence",
                          "influence-function approximation of each row's "
                          "effect on validation loss under L2 logistic "
                          "regression (binary labels only)") {
    BindDouble("l2", "L2 regularization of the logistic model", &options_.l2,
               0.0, false);
    BindSize("newton_iterations", "Newton steps for the model fit",
             &options_.newton_iterations, 1);
    BindBool("standardize", "z-score features before fitting",
             &options_.standardize);
  }

  Result<ImportanceEstimate> Run(const RunInput& input) const override {
    if (cancel_requested()) {
      return Status::Cancelled("'influence' cancelled before start");
    }
    NDE_RETURN_IF_ERROR(CheckTrainValidation(*this, input, true));
    NDE_ASSIGN_OR_RETURN(
        std::vector<double> values,
        InfluenceOnValidationLoss(*input.train, *input.validation, options_));
    ImportanceEstimate estimate;
    estimate.values = std::move(values);
    return estimate;
  }

 private:
  InfluenceOptions options_;
};

class AumAlgorithm final : public AlgorithmInstance {
 public:
  AumAlgorithm()
      : AlgorithmInstance("aum",
                          "area under the margin of a softmax logistic model "
                          "trained on the data itself; low margins flag "
                          "suspect labels (Pleiss et al. 2020)") {
    BindDouble("learning_rate", "gradient-descent step size",
               &options_.learning_rate, 0.0, true);
    BindSize("epochs", "training epochs", &options_.epochs, 1);
    BindDouble("l2", "L2 regularization", &options_.l2, 0.0, false);
  }

  Result<ImportanceEstimate> Run(const RunInput& input) const override {
    if (cancel_requested()) {
      return Status::Cancelled("'aum' cancelled before start");
    }
    NDE_RETURN_IF_ERROR(CheckTrainValidation(*this, input, false));
    NDE_ASSIGN_OR_RETURN(std::vector<double> values,
                         AumScores(*input.train, options_));
    ImportanceEstimate estimate;
    estimate.values = std::move(values);
    return estimate;
  }

 private:
  AumOptions options_;
};

class SelfConfidenceAlgorithm final : public AlgorithmInstance {
 public:
  SelfConfidenceAlgorithm()
      : AlgorithmInstance("self_confidence",
                          "out-of-fold predicted probability of each row's "
                          "assigned label under a KNN model; low values flag "
                          "suspect labels (confident learning)") {
    BindSize("num_folds", "cross-validation folds", &options_.num_folds, 2);
    BindUint64("seed", "fold-assignment RNG seed", &options_.seed);
    BindSize("k", "neighbors of the KNN model", &k_, 1);
  }

  Result<ImportanceEstimate> Run(const RunInput& input) const override {
    if (cancel_requested()) {
      return Status::Cancelled("'self_confidence' cancelled before start");
    }
    NDE_RETURN_IF_ERROR(CheckTrainValidation(*this, input, false));
    size_t k = k_;
    NDE_ASSIGN_OR_RETURN(
        std::vector<double> values,
        SelfConfidenceScores([k]() { return std::make_unique<KnnClassifier>(k); },
                             *input.train, options_));
    ImportanceEstimate estimate;
    estimate.values = std::move(values);
    return estimate;
  }

 private:
  SelfConfidenceOptions options_;
  size_t k_ = 5;
};

}  // namespace

AlgorithmRegistry& AlgorithmRegistry::Global() {
  static AlgorithmRegistry* registry = [] {
    auto* r = new AlgorithmRegistry();
    (void)r->Register([] { return std::make_unique<LooAlgorithm>(); });
    (void)r->Register([] { return std::make_unique<TmcShapleyAlgorithm>(); });
    (void)r->Register([] { return std::make_unique<BanzhafAlgorithm>(); });
    (void)r->Register([] { return std::make_unique<BetaShapleyAlgorithm>(); });
    (void)r->Register([] { return std::make_unique<KnnShapleyAlgorithm>(); });
    (void)r->Register([] { return std::make_unique<DatascopeAlgorithm>(); });
    (void)r->Register([] { return std::make_unique<InfluenceAlgorithm>(); });
    (void)r->Register([] { return std::make_unique<AumAlgorithm>(); });
    (void)r->Register(
        [] { return std::make_unique<SelfConfidenceAlgorithm>(); });
    return r;
  }();
  return *registry;
}

Status AlgorithmRegistry::Register(AlgorithmFactory factory) {
  std::unique_ptr<AlgorithmInstance> probe = factory();
  if (probe == nullptr) {
    return Status::InvalidArgument("algorithm factory returned null");
  }
  std::string name = probe->name();
  if (factories_.count(name) > 0) {
    return Status::AlreadyExists("algorithm '" + name +
                                 "' is already registered");
  }
  factories_[name] = std::move(factory);
  return Status::OK();
}

Result<std::unique_ptr<AlgorithmInstance>> AlgorithmRegistry::Create(
    const std::string& name) const {
  auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::string available;
    for (const std::string& known : Names()) {
      if (!available.empty()) available += " ";
      available += known;
    }
    return Status::NotFound("no algorithm named '" + name +
                            "' (available: " + available + ")");
  }
  return it->second();
}

bool AlgorithmRegistry::Has(const std::string& name) const {
  return factories_.count(name) > 0;
}

std::vector<std::string> AlgorithmRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) names.push_back(name);
  return names;  // std::map iterates sorted
}

std::string AlgorithmRegistry::DescribeJson() const {
  json::Writer json;
  json.BeginObject().Key("algorithms").BeginArray();
  for (const std::string& name : Names()) {
    std::unique_ptr<AlgorithmInstance> instance = factories_.at(name)();
    json.BeginObject().Key("name").String(instance->name())
        .Key("summary").String(instance->summary()).Key("values")
        .String(instance->values_are_source_rows() ? "source_rows"
                                                   : "train_rows")
        .Key("options").BeginArray();
    for (const OptionSpec& spec : instance->OptionSpecs()) {
      json.BeginObject().Key("name").String(spec.name)
          .Key("type").String(OptionTypeName(spec.type))
          .Key("default").String(spec.default_value)
          .Key("doc").String(spec.doc).EndObject();
    }
    json.EndArray().EndObject();
  }
  return json.EndArray().EndObject().Take();
}

std::string AlgorithmRegistry::DescribeText() const {
  std::ostringstream os;
  os << "available algorithms (set options with --set name=value or the "
        "job-API \"options\" map):\n";
  for (const std::string& name : Names()) {
    std::unique_ptr<AlgorithmInstance> instance = factories_.at(name)();
    os << "\n" << instance->name() << "\n  " << instance->summary() << "\n";
    for (const OptionSpec& spec : instance->OptionSpecs()) {
      os << "    " << spec.name << " (" << OptionTypeName(spec.type)
         << ", default " << spec.default_value << ") — " << spec.doc << "\n";
    }
  }
  return os.str();
}

}  // namespace nde
