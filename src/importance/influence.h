#ifndef NDE_IMPORTANCE_INFLUENCE_H_
#define NDE_IMPORTANCE_INFLUENCE_H_

#include <vector>

#include "common/result.h"
#include "importance/game_values.h"
#include "ml/dataset.h"

namespace nde {

/// Options for influence-function computation.
struct InfluenceOptions {
  double l2 = 1e-3;          ///< L2 regularization of the logistic model
  size_t newton_iterations = 25;
  bool standardize = true;   ///< z-score features before fitting
};

/// Gradient-based data importance via influence functions (Koh & Liang
/// 2017) for a binary L2-regularized logistic regression fitted by Newton's
/// method.
///
/// For each training point z the returned value approximates the *increase*
/// in mean validation loss caused by removing z:
///   phi_i ≈ (1/n) * g_val^T H^{-1} grad L(z_i),
/// so positive values mark helpful points and negative values harmful ones —
/// the same sign convention as the Shapley-style scores, making the methods
/// directly comparable in ranking benchmarks.
///
/// The Newton passes and the Hessian at the optimum fan out over blocks of
/// kRowBlock training rows (common/parallel.h) on the process-default thread
/// count, and every floating-point sum keeps the order of a one-row-at-a-time
/// pass, so the values are bit-identical for any thread count. The estimate
/// has no std errors or utility evaluations; `num_threads_used` is the widest
/// fan-out the run used (1 under one block).
///
/// Requires binary labels {0, 1}; returns InvalidArgument otherwise. A pool
/// task lost to the `threadpool.task` failpoint returns its typed Status.
Result<ImportanceEstimate> InfluenceOnValidationLoss(
    const MlDataset& train, const MlDataset& validation,
    const InfluenceOptions& options = {});

/// Brute-force counterpart used to validate the first-order approximation:
/// actually retrains without each point and reports the exact change in mean
/// validation log-loss. O(n) Newton fits; for tests and small data only.
Result<std::vector<double>> ExactRemovalLossChange(
    const MlDataset& train, const MlDataset& validation,
    const InfluenceOptions& options = {});

}  // namespace nde

#endif  // NDE_IMPORTANCE_INFLUENCE_H_
