#ifndef NDE_ML_NAIVE_BAYES_H_
#define NDE_ML_NAIVE_BAYES_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/model.h"

namespace nde {

/// Gaussian naive Bayes classifier: per-class feature means and variances
/// with a small variance floor for numerical stability.
class GaussianNaiveBayes : public Classifier {
 public:
  /// `var_smoothing` is added to every per-class feature variance.
  explicit GaussianNaiveBayes(double var_smoothing = 1e-9);

  Status Fit(const MlDataset& data) override;
  Status FitWithClasses(const MlDataset& data, int num_classes) override;

  /// Gaussian NB supports exact incremental coalition scoring. Scorers keep
  /// sorted member lists (global and per class) and on each Add recompute
  /// only the pushed class's two moment passes, iterating members in sorted
  /// order — the same per-(class, feature) accumulation chains as a cold
  /// two-pass FitWithClasses on the sorted coalition — so Predict() is
  /// bit-identical to cold retraining, regardless of insertion order.
  /// NumCorrect() predicts, then counts. `train` and `eval` must outlive the
  /// context. There is nothing to precompute, so `parallel` goes unused.
  Result<std::shared_ptr<const CoalitionScorerContext>>
  NewCoalitionScorerContext(const MlDataset& train, const MlDataset& eval,
                            int num_classes,
                            const ParallelRunner& parallel = {}) const override;

  std::vector<int> Predict(const Matrix& features) const override;
  Matrix PredictProba(const Matrix& features) const override;
  int num_classes() const override { return num_classes_; }
  std::unique_ptr<Classifier> Clone() const override;
  std::string name() const override { return "gaussian_nb"; }

 private:
  Matrix LogJoint(const Matrix& features) const;

  double var_smoothing_;
  Matrix means_;      // num_classes x d
  Matrix variances_;  // num_classes x d
  std::vector<double> log_priors_;
  int num_classes_ = 0;
  bool fitted_ = false;
};

}  // namespace nde

#endif  // NDE_ML_NAIVE_BAYES_H_
