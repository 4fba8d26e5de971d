#include "importance/utility.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <utility>

#include "common/failpoint.h"
#include "common/parallel.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry.h"

namespace nde {

namespace {

/// The unit that a coalition of n - 1 distinct units out of [0, n) lacks, or
/// nullopt when it holds all n: 0 + 1 + ... + (n - 1) minus the coalition's
/// sum, which wrapping size_t arithmetic keeps exact.
std::optional<size_t> MissingUnit(const std::vector<size_t>& subset,
                                  size_t n) {
  if (subset.size() == n) return std::nullopt;
  size_t missing = n % 2 == 0 ? n / 2 * (n - 1) : (n - 1) / 2 * n;
  for (size_t unit : subset) missing -= unit;
  return missing;
}

}  // namespace

double UtilityFunction::FullUtility() const {
  std::vector<size_t> all(num_units());
  std::iota(all.begin(), all.end(), size_t{0});
  return Evaluate(all);
}

Result<double> UtilityFunction::TryEvaluate(const std::vector<size_t>& subset,
                                            uint64_t salt) const {
  if (failpoint::AnyArmed()) {
    // Order-insensitive subset hash: XOR of per-element mixes commutes, so
    // the key — and therefore a probabilistic fire decision — depends only on
    // the coalition itself, not on which thread or wave evaluated it.
    uint64_t key = failpoint::MixKey(subset.size(), salt);
    for (size_t unit : subset) key ^= failpoint::MixKey(unit + 1, 0x5eed);
    failpoint::Outcome fp = failpoint::Fire("utility.evaluate", key);
    if (fp.kind == failpoint::Outcome::kNanPoison) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    if (fp.fired()) return fp.status;
  }
  return Evaluate(subset);
}

ModelAccuracyUtility::ModelAccuracyUtility(ClassifierFactory factory,
                                           MlDataset train,
                                           MlDataset validation)
    : factory_(std::move(factory)),
      train_(std::move(train)),
      validation_(std::move(validation)) {
  NDE_CHECK(factory_ != nullptr);
  num_classes_ = std::max({train_.NumClasses(), validation_.NumClasses(), 2});
}

double ModelAccuracyUtility::MajorityAccuracy(
    const std::vector<int>& coalition_labels) const {
  std::map<int, size_t> counts;
  for (int label : coalition_labels) ++counts[label];
  int majority = 0;
  size_t best = 0;
  for (const auto& [label, count] : counts) {
    if (count > best) {
      best = count;
      majority = label;
    }
  }
  size_t correct = 0;
  for (int label : validation_.labels) {
    if (label == majority) ++correct;
  }
  return static_cast<double>(correct) /
         static_cast<double>(validation_.labels.size());
}

/// Exact prefix scan over a model's CoalitionScorer: every Push admits one
/// row and rescores the validation set, bit-identical to a cold retrain by
/// the CoalitionScorer contract. The score is NumCorrect() / m, the same
/// double Accuracy() computes on Predict().
class ModelAccuracyUtility::ExactScan : public UtilityFunction::PrefixScan {
 public:
  ExactScan(const ModelAccuracyUtility* owner,
            const CoalitionScorerContext& context)
      : owner_(owner), scorer_(context.NewScorer()) {}

  double Push(size_t unit) override {
    owner_->evaluations_.fetch_add(1, std::memory_order_relaxed);
    scorer_->Add(unit);
    return ScoreCurrent();
  }

  /// Admits a whole coalition, then scores once: Evaluate's path, which
  /// counts its query itself.
  double Score(const std::vector<size_t>& coalition) {
    for (size_t unit : coalition) scorer_->Add(unit);
    return ScoreCurrent();
  }

 private:
  double ScoreCurrent() {
    return static_cast<double>(scorer_->NumCorrect()) /
           static_cast<double>(owner_->validation_.labels.size());
  }

  const ModelAccuracyUtility* owner_;
  std::unique_ptr<CoalitionScorer> scorer_;
};

/// Approximate warm-started scan: one persistent model re-fitted via
/// FitIncremental as the coalition grows. Only handed out when the caller
/// opted in (TmcShapleyOptions::warm_start) because values differ from cold
/// retraining; they remain deterministic for any thread count since each
/// permutation owns one scan.
class ModelAccuracyUtility::WarmStartScan
    : public UtilityFunction::PrefixScan {
 public:
  explicit WarmStartScan(const ModelAccuracyUtility* owner)
      : owner_(owner),
        model_(owner->factory_()),
        row_(1, owner->train_.features.cols()) {
    coalition_.features = Matrix(0, owner->train_.features.cols());
    // A scan grows to the full training set; reserving up front keeps the
    // per-Push AppendRows free of reallocation.
    coalition_.features.Reserve(owner->train_.size());
    coalition_.labels.reserve(owner->train_.size());
  }

  double Push(size_t unit) override {
    owner_->evaluations_.fetch_add(1, std::memory_order_relaxed);
    const double* src = owner_->train_.features.RowPtr(unit);
    std::copy(src, src + row_.cols(), row_.RowPtr(0));
    coalition_.features.AppendRows(row_);
    coalition_.labels.push_back(owner_->train_.labels[unit]);
    Status fit = model_->FitIncremental(coalition_, owner_->num_classes_);
    if (!fit.ok()) {
      return owner_->MajorityAccuracy(coalition_.labels);
    }
    return Accuracy(owner_->validation_.labels,
                    model_->Predict(owner_->validation_.features));
  }

 private:
  const ModelAccuracyUtility* owner_;
  std::unique_ptr<Classifier> model_;
  MlDataset coalition_;
  Matrix row_;  ///< Reused 1 x d staging row for AppendRows.
};

double ModelAccuracyUtility::Evaluate(const std::vector<size_t>& subset) const {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  if (subset.empty()) {
    return 1.0 / static_cast<double>(num_classes_);
  }
  // Whole-coalition evaluations carry the phase observability; the per-Push
  // prefix-scan path stays clock-free.
  telemetry::AllocationScope eval_alloc("utility.evaluate");
  [[maybe_unused]] int64_t start_us =
      telemetry::Enabled() ? telemetry::NowMicros() : 0;
  const CoalitionScorerContext* context =
      scorer_context_built_.load(std::memory_order_acquire)
          ? scorer_context_.get()
          : nullptr;
  double result;
  if (context != nullptr && context->ReplacesColdFit()) {
    // Bit-identical to the retrain below by the CoalitionScorer contract,
    // but reads the context's precomputed ranks instead of recomputing
    // |subset| x |validation| distances. Every game estimator builds the
    // context before its first evaluation, so this is how they score
    // whole coalitions. A coalition missing at most one unit (v(N), LOO)
    // may be read from the context without a scorer.
    const size_t n = train_.size();
    std::optional<size_t> correct;
    if (subset.size() + 1 >= n) {
      correct = context->NumCorrectWithout(MissingUnit(subset, n));
    }
    result = correct.has_value()
                 ? static_cast<double>(*correct) /
                       static_cast<double>(validation_.labels.size())
                 : ExactScan(this, *context).Score(subset);
  } else {
    std::unique_ptr<Classifier> model = factory_();
    MlDatasetView view(train_, subset);
    Status fit = model->FitView(view, num_classes_);
    if (fit.ok()) {
      std::vector<int> predicted = model->Predict(validation_.features);
      result = Accuracy(validation_.labels, predicted);
    } else {
      // Fallback: majority-label predictor of the coalition.
      result = MajorityAccuracy(view.CopyLabels());
    }
  }
  NDE_METRIC_RECORD(
      "utility.eval_ms",
      static_cast<double>(telemetry::NowMicros() - start_us) / 1000.0);
  return result;
}

Status ModelAccuracyUtility::BuildScorerContext(
    const ParallelRunner& parallel) const {
  std::lock_guard<std::mutex> lock(scorer_context_mu_);
  if (scorer_context_built_.load(std::memory_order_relaxed)) {
    return Status::OK();
  }
  NDE_ASSIGN_OR_RETURN(scorer_context_,
                       factory_()->NewCoalitionScorerContext(
                           train_, validation_, num_classes_, parallel));
  scorer_context_built_.store(true, std::memory_order_release);
  return Status::OK();
}

Status ModelAccuracyUtility::Prepare(size_t num_threads) const {
  return BuildScorerContext(
      [num_threads](size_t count, const std::function<void(size_t)>& body) {
        return TryParallelFor(0, count, body, num_threads,
                              "scorer_context_rows")
            .status();
      });
}

std::unique_ptr<UtilityFunction::PrefixScan>
ModelAccuracyUtility::NewPrefixScan(bool allow_warm_start) const {
  if (train_.size() == 0 || validation_.size() == 0) return nullptr;
  if (!scorer_context_built_.load(std::memory_order_acquire)) {
    // Callers that skipped Prepare build here, inline on this thread
    // (concurrent callers wait on the mutex). No pool task runs, so there is
    // nothing to lose.
    Status built = BuildScorerContext(nullptr);
    NDE_CHECK(built.ok()) << built.ToString();
  }
  if (scorer_context_ != nullptr) {
    return std::make_unique<ExactScan>(this, *scorer_context_);
  }
  if (allow_warm_start) {
    return std::make_unique<WarmStartScan>(this);
  }
  return nullptr;
}

}  // namespace nde
