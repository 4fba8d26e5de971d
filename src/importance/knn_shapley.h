#ifndef NDE_IMPORTANCE_KNN_SHAPLEY_H_
#define NDE_IMPORTANCE_KNN_SHAPLEY_H_

#include <vector>

#include "common/result.h"
#include "importance/estimator_options.h"
#include "importance/game_values.h"
#include "importance/utility.h"
#include "ml/dataset.h"

namespace nde {

/// Exact Shapley values for the soft K-NN utility in O(n log n) per
/// validation point (Jia et al., "Efficient task-specific data valuation for
/// nearest neighbor algorithms", 2019) — the workhorse that makes
/// Shapley-based data debugging tractable (Figure 2's
/// `nde.knn_shapley_values`).
///
/// The underlying cooperative game is
///   v(S) = mean over validation points of
///          (1/K) * sum_{j=1}^{min(K,|S|)} 1[label of j-th nearest in S == y]
/// with v(empty) = 0. The returned values satisfy the efficiency axiom:
/// sum_i phi_i == v(full training set).
///
/// Each validation point ranks the training rows by `NearestOrder`
/// (ml/knn.h), `KnnClassifier`'s order: ties by training index, NaN
/// distances last.
///
/// Validation points are scored in parallel (fixed 8-point chunks with
/// per-chunk partial sums folded in chunk order), so for any
/// `options.num_threads` the result is bit-identical; the closed form draws
/// no randomness, so `options.seed` is unused. The estimate carries the
/// values and the threads the run fanned out over; a closed form evaluates
/// no utility and has no std errors. Like LeaveOneOutValues, a run stopped
/// by `options.cancel` (polled every 64 validation points) or by a lost pool
/// task returns that cause as its Status: a closed form has no partial
/// estimate.
Result<ImportanceEstimate> KnnShapleyValues(
    const MlDataset& train, const MlDataset& validation, size_t k,
    const EstimatorOptions& options = {});

/// The same game as an explicit UtilityFunction, used to validate the closed
/// form against exact enumeration in tests and to plug the KNN proxy game
/// into the generic Monte-Carlo estimators.
class SoftKnnUtility : public UtilityFunction {
 public:
  SoftKnnUtility(MlDataset train, MlDataset validation, size_t k);

  double Evaluate(const std::vector<size_t>& subset) const override;
  size_t num_units() const override { return train_.size(); }

 private:
  MlDataset train_;
  MlDataset validation_;
  size_t k_;
  /// distance_order_[v] = training indices in validation point v's
  /// NearestOrder (precomputed once).
  std::vector<std::vector<size_t>> distance_order_;
};

}  // namespace nde

#endif  // NDE_IMPORTANCE_KNN_SHAPLEY_H_
