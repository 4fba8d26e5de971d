#ifndef NDE_CLEANING_STRATEGIES_H_
#define NDE_CLEANING_STRATEGIES_H_

#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "ml/dataset.h"
#include "ml/model.h"

namespace nde {

/// Ranks the training examples of `dirty` by cleaning priority (most suspect
/// first) using the validation set as the quality signal.
using RankingFn = std::function<Result<std::vector<size_t>>(
    const MlDataset& dirty, const MlDataset& validation, uint64_t seed)>;

/// A named prioritization strategy for data cleaning.
struct CleaningStrategy {
  std::string name;
  RankingFn rank;
};

/// Individual strategies. All return a full ranking of the n training rows.

/// Uniform random order (the baseline every importance method must beat).
CleaningStrategy RandomStrategy();

/// Ascending exact KNN-Shapley value: most negative (harmful) first.
CleaningStrategy KnnShapleyStrategy(size_t k = 5);

/// Ascending leave-one-out value under a KNN utility (cheap retrains).
CleaningStrategy LooStrategy(size_t k = 5);

/// Ascending influence-function value (binary tasks only).
CleaningStrategy InfluenceStrategy();

/// Ascending cross-validated self-confidence of the assigned label.
CleaningStrategy SelfConfidenceStrategy(size_t folds = 5);

/// Ascending area-under-the-margin score.
CleaningStrategy AumStrategy();

/// Ascending truncated-Monte-Carlo Shapley value with a KNN proxy utility.
CleaningStrategy TmcShapleyStrategy(size_t permutations = 30, size_t k = 5);

/// The standard benchmark panel (E4/E6): random, loo, knn_shapley,
/// influence, self_confidence, aum.
std::vector<CleaningStrategy> StandardStrategies();

/// Helper: indices of `scores` sorted ascending, NaN after every number, ties
/// and NaNs by index. Exposed for custom strategies.
std::vector<size_t> AscendingOrder(const std::vector<double>& scores);

/// Precision@k of a ranking against the true corrupted set: the fraction of
/// the first k ranked indices that are truly corrupted.
double PrecisionAtK(const std::vector<size_t>& ranking,
                    const std::vector<size_t>& corrupted, size_t k);

}  // namespace nde

#endif  // NDE_CLEANING_STRATEGIES_H_
