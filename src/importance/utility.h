#ifndef NDE_IMPORTANCE_UTILITY_H_
#define NDE_IMPORTANCE_UTILITY_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "ml/dataset.h"
#include "ml/metrics.h"
#include "ml/model.h"

namespace nde {

/// A coalition utility v(S) over subsets of training units, the object all
/// game-theoretic importance methods (LOO, Shapley, Banzhaf, Beta-Shapley)
/// are defined on.
///
/// Subsets are given as sorted, unique indices into the training set.
///
/// Thread-safety contract: the parallel estimators call Evaluate concurrently
/// from many worker threads, so implementations must keep Evaluate free of
/// unsynchronized mutable state (counters go in atomics, as
/// ModelAccuracyUtility does).
class UtilityFunction {
 public:
  virtual ~UtilityFunction() = default;

  /// Value of the coalition `subset`.
  virtual double Evaluate(const std::vector<size_t>& subset) const = 0;

  /// Failure-aware wrapper around Evaluate: the estimators call this so a
  /// backend fault (injected through the `utility.evaluate` failpoint, or a
  /// real one once utilities grow fallible backends) surfaces as a typed
  /// Status instead of undefined behavior. The failpoint is keyed by an
  /// order-insensitive hash of the subset, so probabilistic specs replay
  /// bit-identically for any thread count. A `nan` action poisons the value
  /// path: TryEvaluate returns quiet NaN and the caller's finiteness check
  /// converts it into a typed error.
  Result<double> TryEvaluate(const std::vector<size_t>& subset) const;

  /// Number of training units (players).
  virtual size_t num_units() const = 0;

  /// v(N): utility of the full training set.
  double FullUtility() const;

  /// v(empty set).
  double EmptyUtility() const { return Evaluate({}); }

  /// One permutation scan's worth of incremental utility evaluation: the TMC
  /// estimator grows a coalition one unit at a time, and Push(unit) returns
  /// v(coalition + unit) — the same value Evaluate would return on the grown
  /// subset, but without retraining from scratch. A scan session is
  /// single-threaded and starts from the empty coalition.
  class PrefixScan {
   public:
    virtual ~PrefixScan() = default;

    /// Adds `unit` to the coalition and returns the utility of the grown
    /// coalition. Each Push counts as one utility evaluation.
    virtual double Push(size_t unit) = 0;
  };

  /// Returns a fresh scan session, or nullptr when the utility has no fast
  /// path (the caller then falls back to plain Evaluate per prefix).
  ///
  /// An *exact* scan returns bit-identical values to Evaluate and may always
  /// be used. When no exact scan exists and `allow_warm_start` is true, the
  /// utility may return an approximate warm-started scan (model reuse across
  /// prefixes) — TMC-Shapley only passes true when the caller opted in via
  /// TmcShapleyOptions::warm_start. Thread-safe; called once per permutation.
  virtual std::unique_ptr<PrefixScan> NewPrefixScan(
      bool allow_warm_start) const {
    (void)allow_warm_start;
    return nullptr;
  }

  /// Builds up front the shared state that Evaluate and NewPrefixScan read,
  /// fanning the work out over `num_threads` (0 = the process-wide default).
  /// Every game estimator calls this once, through PrepareUtility
  /// (importance/waves.h), before its first evaluation; NewPrefixScan still
  /// builds lazily for callers that skip it. A failure (such as a lost pool
  /// task) leaves the state unbuilt, so a later call can build it. Never
  /// changes a value. Default: nothing to build.
  virtual Status Prepare(size_t num_threads) const {
    (void)num_threads;
    return Status::OK();
  }
};

/// The standard data-valuation utility: validation accuracy of a model
/// retrained on the subset.
///
/// Conventions for degenerate coalitions:
///   - empty subset: random-guess accuracy 1/num_classes;
///   - training failure (e.g. one class only and the model rejects it):
///     accuracy of predicting the subset's majority label on the validation
///     set.
///
/// Once Prepare has built a context that ReplacesColdFit (KNN), coalitions
/// are scored from it; otherwise they train through zero-copy index views
/// (Classifier::FitView, bit-identical to materializing them by the FitView
/// contract). Each exact prefix scan owns one CoalitionScorer for its whole
/// permutation.
class ModelAccuracyUtility : public UtilityFunction {
 public:
  ModelAccuracyUtility(ClassifierFactory factory, MlDataset train,
                       MlDataset validation);

  double Evaluate(const std::vector<size_t>& subset) const override;
  size_t num_units() const override { return train_.size(); }

  /// Exact scan via the model's CoalitionScorerContext when available (KNN,
  /// Gaussian NB), else a warm-started scan via Classifier::FitIncremental
  /// when `allow_warm_start`, else nullptr. Builds the context inline on the
  /// calling thread when Prepare has not.
  std::unique_ptr<PrefixScan> NewPrefixScan(
      bool allow_warm_start) const override;

  /// Builds the model's CoalitionScorerContext; KNN ranks the training rows
  /// for every validation point, in blocks of validation points over
  /// TryParallelFor. Once a built context ReplacesColdFit, Evaluate scores
  /// coalitions from it instead of retraining, bit-identically by the
  /// CoalitionScorer contract.
  Status Prepare(size_t num_threads) const override;

  const MlDataset& train() const { return train_; }
  const MlDataset& validation() const { return validation_; }

  /// Total number of Evaluate calls so far (Monte-Carlo cost accounting).
  /// Prefix-scan pushes count too: the number reflects how often the *game*
  /// was queried, not how often a model was trained, so it is identical
  /// whether coalitions are scored from the context or by a cold fit.
  size_t num_evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }

 private:
  class ExactScan;
  class WarmStartScan;

  /// Builds the scorer context unless it is built, fanning out through
  /// `parallel`; a failed build leaves it unbuilt.
  Status BuildScorerContext(const ParallelRunner& parallel) const;

  /// Majority-label fallback accuracy from coalition label counts.
  double MajorityAccuracy(const std::vector<int>& coalition_labels) const;

  ClassifierFactory factory_;
  MlDataset train_;
  MlDataset validation_;
  int num_classes_;
  /// Shared exact-scorer precomputation, built by Prepare or the first
  /// NewPrefixScan, never by Evaluate itself. Written once under the mutex,
  /// then published by the release store of `scorer_context_built_`; a
  /// reader that sees the flag set reads the pointer without locking.
  mutable std::mutex scorer_context_mu_;
  mutable std::shared_ptr<const CoalitionScorerContext> scorer_context_;
  mutable std::atomic<bool> scorer_context_built_{false};
  /// Atomic: Evaluate runs concurrently under the parallel estimators.
  mutable std::atomic<size_t> evaluations_{0};
};

}  // namespace nde

#endif  // NDE_IMPORTANCE_UTILITY_H_
