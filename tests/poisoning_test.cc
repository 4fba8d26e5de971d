#include <algorithm>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/synthetic.h"
#include "ml/knn.h"
#include "uncertain/poisoning.h"

namespace nde {
namespace {

/// Brute-force removal radius: tries every deletion subset up to
/// `max_budget` and reports the largest budget the prediction survives.
size_t BruteForceRemovalRadius(const MlDataset& train,
                               const std::vector<double>& query, size_t k,
                               size_t max_budget) {
  KnnClassifier knn(k);
  Status s = knn.Fit(train);
  NDE_CHECK(s.ok());
  Matrix single(1, query.size());
  single.SetRow(0, query);
  int baseline = knn.Predict(single)[0];

  size_t n = train.size();
  for (size_t budget = 1; budget <= max_budget && budget < n; ++budget) {
    // Enumerate all subsets of size `budget` via bitmasks (n small).
    for (size_t mask = 0; mask < (size_t{1} << n); ++mask) {
      if (static_cast<size_t>(__builtin_popcountll(mask)) != budget) continue;
      std::vector<size_t> removed;
      for (size_t i = 0; i < n; ++i) {
        if (mask & (size_t{1} << i)) removed.push_back(i);
      }
      MlDataset reduced = train.Without(removed);
      if (reduced.size() == 0) continue;
      KnnClassifier refit(k);
      Status rs = refit.FitWithClasses(reduced, train.NumClasses());
      NDE_CHECK(rs.ok());
      if (refit.Predict(single)[0] != baseline) {
        return budget - 1;
      }
    }
  }
  return max_budget;
}

TEST(PoisoningTest, RemovalRadiusMatchesBruteForce) {
  // The second input gives one row a NaN feature: its distance is NaN for
  // every query, so it ranks after every other row, as in the brute force's
  // refitted KnnClassifier.
  for (bool with_nan : {false, true}) {
    for (uint64_t seed : {1u, 2u, 3u, 4u}) {
      BlobsOptions options;
      options.num_examples = 9;
      options.num_features = 2;
      options.separation = 2.0;
      options.noise = 1.2;
      options.seed = seed;
      MlDataset train = MakeBlobs(options);
      if (with_nan) {
        train.features(seed % train.size(), seed % 2) =
            std::numeric_limits<double>::quiet_NaN();
      }
      Rng rng(seed * 7);
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<double> query = {rng.NextGaussian(), rng.NextGaussian()};
        for (size_t k : {1u, 3u}) {
          size_t exact = CertifiedRemovalRadius(train, query, k);
          size_t brute = BruteForceRemovalRadius(train, query, k, 4);
          EXPECT_EQ(std::min(exact, size_t{4}), brute)
              << "nan=" << with_nan << " seed=" << seed << " trial=" << trial
              << " k=" << k;
        }
      }
    }
  }
}

TEST(PoisoningTest, UnanimousNeighborhoodHasLargeRadius) {
  MlDataset train;
  train.features = Matrix::FromRows(
      {{0.0}, {0.1}, {0.2}, {0.3}, {0.4}, {10.0}});
  train.labels = {1, 1, 1, 1, 1, 0};
  // Query at 0: all 3 nearest are class 1; flipping needs to delete enough
  // class-1 points that the lone class-0 point enters and dominates.
  size_t radius = CertifiedRemovalRadius(train, {0.0}, 3);
  EXPECT_GE(radius, 2u);
}

TEST(PoisoningTest, KnifeEdgeVoteHasZeroRadius) {
  MlDataset train;
  train.features = Matrix::FromRows({{0.0}, {0.2}, {0.4}});
  train.labels = {1, 0, 1};
  // k=3 vote: 2-1 for class 1; deleting one class-1 point leaves 1-1 and the
  // tie-break picks class 0 -> radius 0.
  EXPECT_EQ(CertifiedRemovalRadius(train, {0.0}, 3), 0u);
}

TEST(PoisoningTest, InsertionRadiusFollowsVoteMargin) {
  MlDataset train;
  train.features = Matrix::FromRows({{0.0}, {0.1}, {0.2}, {0.3}, {0.4}});
  train.labels = {1, 1, 1, 1, 1};
  // k=5, unanimous 5-0. Inserting m zeros of class 0 gives votes
  // (m for 0) vs (5-m for 1); class 0 wins at m=3 by count (3 > 2).
  EXPECT_EQ(CertifiedInsertionRadius(train, {0.0}, 5), 2u);
}

TEST(PoisoningTest, InsertionTieBreakTowardSmallerClass) {
  MlDataset train;
  train.features = Matrix::FromRows({{0.0}, {0.1}, {0.2}});
  train.labels = {1, 1, 1};
  // k=3: m=2 gives votes 2 vs 1 -> flip at m=2, radius 1? m=1: votes 1 vs 2
  // -> class 1 holds. So radius is 1... wait: m=2 -> class0=2, class1=1,
  // flip. Radius = 1.
  EXPECT_EQ(CertifiedInsertionRadius(train, {0.0}, 3), 1u);
}

TEST(PoisoningTest, InsertionRadiusRanksNanDistancesLast) {
  MlDataset train;
  train.features = Matrix::FromRows(
      {{std::numeric_limits<double>::quiet_NaN()}, {0.1}, {0.2}, {5.0}});
  train.labels = {0, 1, 1, 0};
  // Query at 0, k=3: rows 1, 2 and 3 are nearest (row 0's distance is NaN,
  // which ranks last), votes 2-1 for class 1. m=1 inserted class-0 point
  // leaves rows 1 and 2 in the window (1 vs 2); m=2 leaves row 1 (2 vs 1),
  // so class 0 wins at m=2: radius 1. Had row 0 entered the window, one
  // insertion would flip it (radius 0).
  EXPECT_EQ(CertifiedInsertionRadius(train, {0.0}, 3), 1u);
}

TEST(PoisoningTest, CertifiedRatioDecreasesWithBudget) {
  BlobsOptions options;
  options.num_examples = 150;
  options.num_features = 3;
  options.separation = 3.0;
  MlDataset train = MakeBlobs(options);
  BlobsOptions query_options = options;
  query_options.num_examples = 40;
  query_options.seed = 9;
  query_options.center_seed = 42;
  MlDataset queries = MakeBlobs(query_options);

  double previous = 1.1;
  for (size_t budget : {0u, 1u, 3u, 8u, 20u}) {
    double ratio = CertifiedRemovalRatio(train, queries.features, 5, budget);
    EXPECT_LE(ratio, previous);
    previous = ratio;
  }
  EXPECT_EQ(CertifiedRemovalRatio(train, queries.features, 5, 0), 1.0);
}

}  // namespace
}  // namespace nde
