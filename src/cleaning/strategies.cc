#include "cleaning/strategies.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "common/rng.h"
#include "importance/game_values.h"
#include "importance/influence.h"
#include "importance/knn_shapley.h"
#include "importance/label_scores.h"
#include "importance/utility.h"
#include "ml/knn.h"

namespace nde {

std::vector<size_t> AscendingOrder(const std::vector<double>& scores) {
  std::vector<size_t> order(scores.size());
  std::iota(order.begin(), order.end(), size_t{0});
  // NaN ranks after every number: `!=` alone is no strict weak order once
  // some scores are NaN, and std::sort is then undefined. Ties, and NaNs
  // among themselves, go by index.
  std::sort(order.begin(), order.end(), [&scores](size_t a, size_t b) {
    bool a_nan = std::isnan(scores[a]);
    bool b_nan = std::isnan(scores[b]);
    if (a_nan != b_nan) return b_nan;
    if (!a_nan && scores[a] != scores[b]) return scores[a] < scores[b];
    return a < b;
  });
  return order;
}

CleaningStrategy RandomStrategy() {
  return CleaningStrategy{
      "random",
      [](const MlDataset& dirty, const MlDataset& validation,
         uint64_t seed) -> Result<std::vector<size_t>> {
        (void)validation;
        Rng rng(seed);
        return rng.Permutation(dirty.size());
      }};
}

CleaningStrategy KnnShapleyStrategy(size_t k) {
  return CleaningStrategy{
      "knn_shapley",
      [k](const MlDataset& dirty, const MlDataset& validation,
          uint64_t seed) -> Result<std::vector<size_t>> {
        (void)seed;
        NDE_ASSIGN_OR_RETURN(ImportanceEstimate knn,
                             KnnShapleyValues(dirty, validation, k));
        return AscendingOrder(knn.values);
      }};
}

CleaningStrategy LooStrategy(size_t k) {
  return CleaningStrategy{
      "loo",
      [k](const MlDataset& dirty, const MlDataset& validation,
          uint64_t seed) -> Result<std::vector<size_t>> {
        (void)seed;
        ModelAccuracyUtility utility(
            [k]() { return std::make_unique<KnnClassifier>(k); }, dirty,
            validation);
        NDE_ASSIGN_OR_RETURN(ImportanceEstimate loo,
                             LeaveOneOutValues(utility));
        return AscendingOrder(loo.values);
      }};
}

CleaningStrategy InfluenceStrategy() {
  return CleaningStrategy{
      "influence",
      [](const MlDataset& dirty, const MlDataset& validation,
         uint64_t seed) -> Result<std::vector<size_t>> {
        (void)seed;
        NDE_ASSIGN_OR_RETURN(ImportanceEstimate influence,
                             InfluenceOnValidationLoss(dirty, validation));
        return AscendingOrder(influence.values);
      }};
}

CleaningStrategy SelfConfidenceStrategy(size_t folds) {
  return CleaningStrategy{
      "self_confidence",
      [folds](const MlDataset& dirty, const MlDataset& validation,
              uint64_t seed) -> Result<std::vector<size_t>> {
        (void)validation;
        SelfConfidenceOptions options;
        options.num_folds = folds;
        options.seed = seed;
        NDE_ASSIGN_OR_RETURN(
            std::vector<double> scores,
            SelfConfidenceScores(
                []() { return std::make_unique<KnnClassifier>(5); }, dirty,
                options));
        return AscendingOrder(scores);
      }};
}

CleaningStrategy AumStrategy() {
  return CleaningStrategy{
      "aum",
      [](const MlDataset& dirty, const MlDataset& validation,
         uint64_t seed) -> Result<std::vector<size_t>> {
        (void)validation;
        (void)seed;
        NDE_ASSIGN_OR_RETURN(std::vector<double> scores, AumScores(dirty));
        return AscendingOrder(scores);
      }};
}

CleaningStrategy TmcShapleyStrategy(size_t permutations, size_t k) {
  return CleaningStrategy{
      "tmc_shapley",
      [permutations, k](const MlDataset& dirty, const MlDataset& validation,
                        uint64_t seed) -> Result<std::vector<size_t>> {
        ModelAccuracyUtility utility(
            [k]() { return std::make_unique<KnnClassifier>(k); }, dirty,
            validation);
        TmcShapleyOptions options;
        options.num_permutations = permutations;
        options.seed = seed;
        NDE_ASSIGN_OR_RETURN(ImportanceEstimate estimate,
                             TmcShapleyValues(utility, options));
        return AscendingOrder(estimate.values);
      }};
}

std::vector<CleaningStrategy> StandardStrategies() {
  std::vector<CleaningStrategy> strategies;
  strategies.push_back(RandomStrategy());
  strategies.push_back(LooStrategy());
  strategies.push_back(KnnShapleyStrategy());
  strategies.push_back(InfluenceStrategy());
  strategies.push_back(SelfConfidenceStrategy());
  strategies.push_back(AumStrategy());
  return strategies;
}

double PrecisionAtK(const std::vector<size_t>& ranking,
                    const std::vector<size_t>& corrupted, size_t k) {
  if (k == 0 || ranking.empty()) return 0.0;
  std::unordered_set<size_t> truth(corrupted.begin(), corrupted.end());
  size_t limit = std::min(k, ranking.size());
  size_t hits = 0;
  for (size_t i = 0; i < limit; ++i) {
    if (truth.count(ranking[i]) > 0) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(limit);
}

}  // namespace nde
