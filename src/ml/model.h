#ifndef NDE_ML_MODEL_H_
#define NDE_ML_MODEL_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"
#include "ml/dataset.h"

namespace nde {

/// Runs body(i) for every i in [0, count), possibly concurrently and in any
/// order, and returns the first failure (such as a lost pool task). Callers
/// lend one to a scorer-context build so its one-time precomputation can fan
/// out over their threads without the ml layer owning a thread runtime.
using ParallelRunner = std::function<Status(
    size_t count, const std::function<void(size_t)>& body)>;

/// Incrementally scores a growing coalition of training rows against a fixed
/// evaluation set (see CoalitionScorerContext). Add() admits one parent-row
/// index at a time; Predict() returns the evaluation-set predictions of the
/// model trained on the current coalition, and NumCorrect() how many of them
/// match the evaluation labels.
///
/// Contract: Predict() after any sequence of Add() calls is bit-identical to
/// a cold FitWithClasses on the same coalition followed by Predict on the
/// evaluation features, regardless of insertion order. That exactness is what
/// lets the prefix-scan fast path replace per-prefix retraining without
/// changing estimator results. A scorer is single-threaded.
class CoalitionScorer {
 public:
  virtual ~CoalitionScorer() = default;

  /// Adds training row `train_index` (an index into the context's training
  /// set) to the coalition.
  virtual void Add(size_t train_index) = 0;

  /// Predictions for the context's evaluation rows under the current
  /// coalition. The reference stays valid until the next Add/Predict call.
  /// Precondition: at least one Add().
  virtual const std::vector<int>& Predict() = 0;

  /// Number of evaluation rows whose Predict() entry equals their label, so
  /// NumCorrect() / m is the double Accuracy() computes on Predict(). KNN
  /// keeps the count as its windows flip predictions; Gaussian NB counts
  /// after predicting. Precondition: at least one Add().
  virtual size_t NumCorrect() = 0;
};

/// Immutable shared precomputation for coalition scorers over one fixed
/// (train, eval) pair — e.g. KNN's train-major matrix of neighbor ranks.
/// Built once per utility; NewScorer() is then cheap enough to call once per
/// permutation. Thread-safe: NewScorer may be called concurrently, and the
/// scorers it returns are independent.
class CoalitionScorerContext {
 public:
  virtual ~CoalitionScorerContext() = default;

  /// A fresh scorer over the empty coalition. It owns its window/statistics
  /// arrays, allocated once here, so one scorer serves a whole permutation
  /// scan without allocating again.
  virtual std::unique_ptr<CoalitionScorer> NewScorer() const = 0;

  /// True when a fresh scorer fed a whole coalition (Add every row, Predict
  /// once) can stand in for the cold fit: exact, and cheaper. A utility may
  /// then serve plain coalition evaluations from this context. Default false.
  virtual bool ReplacesColdFit() const { return false; }

  /// NumCorrect of the coalition of every training row but `missing` (of
  /// every row when nullopt), equal to a fresh scorer fed that coalition,
  /// when the context can read it without one: KNN keeps each evaluation
  /// point's k + 1 nearest rows, which hold the window of every such
  /// coalition. nullopt (the default) when it cannot.
  virtual std::optional<size_t> NumCorrectWithout(
      std::optional<size_t> missing) const {
    (void)missing;
    return std::nullopt;
  }
};

/// Abstract multi-class classifier. All models in the library implement this
/// interface so importance methods, cleaning strategies and benchmarks can be
/// written once against it.
///
/// Contract:
///   - `Fit` must be called before `Predict`/`PredictProba`.
///   - Labels are 0-based; `Fit` learns `num_classes = max(label)+1` classes
///     (callers may pass an explicit class count via the dataset if a class
///     is absent from a subset — see `FitWithClasses`).
///   - Models are deterministic given the same data and configuration.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Trains on the dataset. Returns InvalidArgument for inconsistent data.
  virtual Status Fit(const MlDataset& data) = 0;

  /// Trains knowing the total class count (subsets may miss classes).
  /// Default: delegates to Fit.
  virtual Status FitWithClasses(const MlDataset& data, int num_classes) {
    (void)num_classes;
    return Fit(data);
  }

  /// Trains on a zero-copy row view with results bit-identical to
  /// FitWithClasses(view.Materialize(), num_classes) — which is also the
  /// default implementation. Models that can train straight off the parent
  /// rows override this to skip the coalition copy; an override that keeps
  /// *borrowing* the view after returning (KnnClassifier does) requires the
  /// parent dataset to outlive the model's use.
  virtual Status FitView(const MlDatasetView& view, int num_classes);

  /// Refits on `data` reusing the previously fitted state as the starting
  /// point when the model supports warm starts (and shapes allow). The
  /// default is an exact refit from scratch, so callers must treat this as an
  /// *approximate* Fit: warm-started results may differ from a cold fit.
  virtual Status FitIncremental(const MlDataset& data, int num_classes) {
    return FitWithClasses(data, num_classes);
  }

  /// A scorer context for models that support exact incremental coalition
  /// scoring of `train` coalitions against `eval` (features, and the labels
  /// NumCorrect counts against); nullptr (the default) when the model has no
  /// such fast path, and the runner's failure when the build fanned out
  /// through `parallel` and lost a task. `parallel` spreads the context's
  /// one-time precomputation (KNN: each evaluation point's ranking of the
  /// training rows, in blocks of evaluation points); empty runs it inline on
  /// the calling thread. Blocks own disjoint evaluation points and keep their
  /// arithmetic, so the runner never changes bits. Both datasets must outlive
  /// the context.
  virtual Result<std::shared_ptr<const CoalitionScorerContext>>
  NewCoalitionScorerContext(const MlDataset& train, const MlDataset& eval,
                            int num_classes,
                            const ParallelRunner& parallel = {}) const {
    (void)train;
    (void)eval;
    (void)num_classes;
    (void)parallel;
    return std::shared_ptr<const CoalitionScorerContext>();
  }

  /// Predicted class per row. Precondition: fitted.
  virtual std::vector<int> Predict(const Matrix& features) const = 0;

  /// Class-probability estimates, n x num_classes. Models without calibrated
  /// probabilities return one-hot rows of their hard predictions.
  virtual Matrix PredictProba(const Matrix& features) const;

  /// Number of classes the model was fitted with. Precondition: fitted.
  virtual int num_classes() const = 0;

  /// Deep copy with the same configuration (fitted state need not carry).
  virtual std::unique_ptr<Classifier> Clone() const = 0;

  /// Short human-readable identifier ("knn(k=5)", "logreg", ...).
  virtual std::string name() const = 0;
};

/// A factory for fresh, unfitted classifiers of a fixed configuration.
/// Importance methods retrain many times; they take a factory rather than a
/// model instance.
using ClassifierFactory = std::function<std::unique_ptr<Classifier>()>;

}  // namespace nde

#endif  // NDE_ML_MODEL_H_
