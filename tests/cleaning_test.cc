#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "cleaning/challenge.h"
#include "cleaning/cleaner.h"
#include "cleaning/strategies.h"
#include "common/rng.h"
#include "datagen/synthetic.h"
#include "ml/knn.h"

namespace nde {
namespace {

struct CleaningFixture {
  MlDataset clean_train;
  MlDataset dirty_train;
  MlDataset valid;
  MlDataset test;
  std::vector<size_t> corrupted;

  static CleaningFixture Make(size_t n = 400, uint64_t seed = 42,
                              double flip_fraction = 0.15) {
    DatasetSplits splits = LoadRecommendationLetters(n, seed);
    CleaningFixture fixture;
    fixture.clean_train = splits.train;
    fixture.dirty_train = splits.train;
    fixture.valid = splits.valid;
    fixture.test = splits.test;
    Rng rng(seed + 1);
    fixture.corrupted =
        InjectLabelErrors(&fixture.dirty_train, flip_fraction, &rng);
    return fixture;
  }
};

ClassifierFactory KnnFactory(size_t k = 5) {
  return [k]() { return std::make_unique<KnnClassifier>(k); };
}

// --- Strategies --------------------------------------------------------------

TEST(StrategiesTest, AscendingOrderSortsByScore) {
  std::vector<size_t> order = AscendingOrder({3.0, -1.0, 2.0, -1.0});
  EXPECT_EQ(order, (std::vector<size_t>{1, 3, 2, 0}));
}

/// NaN ranks after every number (ties, and NaNs among themselves, by
/// index), so the comparator stays a strict weak order on any input.
TEST(StrategiesTest, AscendingOrderRanksNanLast) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> scores = {nan, 2.0,  -0.0, inf,  nan,  0.0,
                                -inf, -1.5, 2.0,  -nan, 1e-300};
  EXPECT_EQ(AscendingOrder(scores),
            (std::vector<size_t>{6, 7, 2, 5, 10, 1, 8, 3, 0, 4, 9}));

  // Past std::sort's insertion-sort cutoff, against the order spelled out:
  // the numbers by (value, index), then the NaNs by index.
  Rng rng(11);
  std::vector<double> mixed(500);
  for (double& value : mixed) {
    uint64_t kind = rng.NextBounded(6);
    value = kind == 0   ? nan
            : kind == 1 ? (rng.NextBounded(2) == 0 ? inf : -inf)
            : kind == 2 ? (rng.NextBounded(2) == 0 ? 0.0 : -0.0)
                        : static_cast<double>(rng.NextBounded(40)) - 20.0;
  }
  std::vector<size_t> numbers, nans;
  for (size_t i = 0; i < mixed.size(); ++i) {
    (std::isnan(mixed[i]) ? nans : numbers).push_back(i);
  }
  std::stable_sort(numbers.begin(), numbers.end(),
                   [&](size_t a, size_t b) { return mixed[a] < mixed[b]; });
  numbers.insert(numbers.end(), nans.begin(), nans.end());
  EXPECT_EQ(AscendingOrder(mixed), numbers);

  std::vector<size_t> identity(100);
  std::iota(identity.begin(), identity.end(), size_t{0});
  EXPECT_EQ(AscendingOrder(std::vector<double>(100, nan)), identity);
}

TEST(StrategiesTest, PrecisionAtK) {
  std::vector<size_t> ranking = {5, 3, 9, 1};
  std::vector<size_t> corrupted = {3, 9};
  EXPECT_EQ(PrecisionAtK(ranking, corrupted, 2), 0.5);
  EXPECT_EQ(PrecisionAtK(ranking, corrupted, 4), 0.5);
  EXPECT_EQ(PrecisionAtK(ranking, corrupted, 0), 0.0);
  EXPECT_EQ(PrecisionAtK({}, corrupted, 3), 0.0);
}

TEST(StrategiesTest, EveryStrategyReturnsFullPermutation) {
  CleaningFixture fixture = CleaningFixture::Make(150, 7);
  for (const CleaningStrategy& strategy : StandardStrategies()) {
    Result<std::vector<size_t>> ranking =
        strategy.rank(fixture.dirty_train, fixture.valid, 3);
    ASSERT_TRUE(ranking.ok()) << strategy.name;
    EXPECT_EQ(ranking->size(), fixture.dirty_train.size()) << strategy.name;
    std::set<size_t> unique(ranking->begin(), ranking->end());
    EXPECT_EQ(unique.size(), fixture.dirty_train.size()) << strategy.name;
  }
}

TEST(StrategiesTest, ImportanceStrategiesBeatRandomAtFindingErrors) {
  CleaningFixture fixture = CleaningFixture::Make(300, 11, 0.1);
  size_t k = fixture.corrupted.size();

  auto precision_of = [&](const CleaningStrategy& strategy) {
    std::vector<size_t> ranking =
        strategy.rank(fixture.dirty_train, fixture.valid, 5).value();
    return PrecisionAtK(ranking, fixture.corrupted, k);
  };

  double random_precision = precision_of(RandomStrategy());
  EXPECT_GT(precision_of(KnnShapleyStrategy()), random_precision + 0.2);
  EXPECT_GT(precision_of(InfluenceStrategy()), random_precision + 0.2);
  EXPECT_GT(precision_of(SelfConfidenceStrategy()), random_precision + 0.2);
  EXPECT_GT(precision_of(AumStrategy()), random_precision + 0.2);
}

TEST(StrategiesTest, TmcShapleyStrategyRuns) {
  CleaningFixture fixture = CleaningFixture::Make(60, 13);
  CleaningStrategy strategy = TmcShapleyStrategy(/*permutations=*/5);
  std::vector<size_t> ranking =
      strategy.rank(fixture.dirty_train, fixture.valid, 7).value();
  EXPECT_EQ(ranking.size(), 36u);  // 60% train split of 60.
}

// --- OracleCleaner ------------------------------------------------------------

TEST(OracleCleanerTest, RepairRestoresGroundTruth) {
  CleaningFixture fixture = CleaningFixture::Make(200, 17);
  OracleCleaner oracle(fixture.clean_train);
  MlDataset working = fixture.dirty_train;
  ASSERT_TRUE(oracle.Repair(&working, fixture.corrupted).ok());
  EXPECT_EQ(working.labels, fixture.clean_train.labels);
  EXPECT_EQ(working.features.MaxAbsDiff(fixture.clean_train.features), 0.0);
}

TEST(OracleCleanerTest, RepairIsIdempotentAndRangeChecked) {
  CleaningFixture fixture = CleaningFixture::Make(100, 19);
  OracleCleaner oracle(fixture.clean_train);
  MlDataset working = fixture.dirty_train;
  ASSERT_TRUE(oracle.Repair(&working, {0, 0, 1}).ok());
  EXPECT_FALSE(oracle.Repair(&working, {99999}).ok());
  EXPECT_FALSE(oracle.Repair(nullptr, {0}).ok());
}

// --- IterativeClean -------------------------------------------------------------

TEST(IterativeCleanTest, ShapleyCleaningRecoversAccuracy) {
  // The Figure 2 workflow: dirty accuracy < cleaned accuracy, approaching
  // the clean-data accuracy as the budget covers the corrupted set.
  CleaningFixture fixture = CleaningFixture::Make(400, 23, 0.15);
  OracleCleaner oracle(fixture.clean_train);
  IterativeCleaningOptions options;
  options.budget = fixture.corrupted.size();
  options.batch_size = 20;
  IterativeCleaningResult result =
      IterativeClean(KnnShapleyStrategy(), fixture.dirty_train, oracle,
                     fixture.valid, fixture.test, KnnFactory(), options)
          .value();
  ASSERT_GE(result.accuracy_curve.size(), 2u);
  double dirty_accuracy = result.accuracy_curve.front();
  double final_accuracy = result.accuracy_curve.back();
  EXPECT_GT(final_accuracy, dirty_accuracy);
  EXPECT_EQ(result.cleaned_order.size(), options.budget);
  // No duplicates in the cleaning order.
  std::set<size_t> unique(result.cleaned_order.begin(),
                          result.cleaned_order.end());
  EXPECT_EQ(unique.size(), result.cleaned_order.size());
}

TEST(IterativeCleanTest, ShapleyBeatsRandomAtEqualBudget) {
  CleaningFixture fixture = CleaningFixture::Make(400, 29, 0.15);
  OracleCleaner oracle(fixture.clean_train);
  IterativeCleaningOptions options;
  options.budget = 30;
  options.batch_size = 10;
  double shapley_final =
      IterativeClean(KnnShapleyStrategy(), fixture.dirty_train, oracle,
                     fixture.valid, fixture.test, KnnFactory(), options)
          .value()
          .accuracy_curve.back();
  double random_final =
      IterativeClean(RandomStrategy(), fixture.dirty_train, oracle,
                     fixture.valid, fixture.test, KnnFactory(), options)
          .value()
          .accuracy_curve.back();
  EXPECT_GE(shapley_final, random_final);
}

TEST(IterativeCleanTest, RejectsZeroBatch) {
  CleaningFixture fixture = CleaningFixture::Make(50, 31);
  OracleCleaner oracle(fixture.clean_train);
  IterativeCleaningOptions options;
  options.batch_size = 0;
  EXPECT_FALSE(IterativeClean(RandomStrategy(), fixture.dirty_train, oracle,
                              fixture.valid, fixture.test, KnnFactory(),
                              options)
                   .ok());
}

// --- DataDebuggingChallenge -------------------------------------------------------

DataDebuggingChallenge MakeChallenge(size_t n = 300, uint64_t seed = 37) {
  DatasetSplits splits = LoadRecommendationLetters(n, seed);
  ChallengeOptions options;
  options.seed = seed + 1;
  options.cleaning_budget = 30;
  return DataDebuggingChallenge(splits.train, splits.valid, splits.test,
                                KnnFactory(), options);
}

TEST(ChallengeTest, DirtyTrainDiffersFromHidden) {
  DataDebuggingChallenge challenge = MakeChallenge();
  EXPECT_FALSE(challenge.corrupted_indices().empty());
  EXPECT_GT(challenge.BaselineScore(), 0.4);
}

TEST(ChallengeTest, BudgetIsEnforcedCumulatively) {
  DataDebuggingChallenge challenge = MakeChallenge();
  std::vector<size_t> first(20);
  std::iota(first.begin(), first.end(), size_t{0});
  ASSERT_TRUE(challenge.SubmitCleaningRequest("alice", first).ok());
  EXPECT_EQ(challenge.RemainingBudget("alice"), 10u);
  // Re-cleaning the same ids is free.
  ASSERT_TRUE(challenge.SubmitCleaningRequest("alice", first).ok());
  EXPECT_EQ(challenge.RemainingBudget("alice"), 10u);
  // Requesting 20 fresh ids exceeds the remaining 10.
  std::vector<size_t> second(20);
  std::iota(second.begin(), second.end(), size_t{50});
  EXPECT_EQ(challenge.SubmitCleaningRequest("alice", second).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(challenge.RemainingBudget("alice"), 10u);  // Nothing consumed.
}

TEST(ChallengeTest, OutOfRangeIdsRejected) {
  DataDebuggingChallenge challenge = MakeChallenge();
  EXPECT_EQ(challenge.SubmitCleaningRequest("bob", {999999}).status().code(),
            StatusCode::kOutOfRange);
}

TEST(ChallengeTest, CleaningTrueErrorsImprovesHiddenScore) {
  DataDebuggingChallenge challenge = MakeChallenge(400, 41);
  // Cheat: clean the actual corrupted rows (within budget).
  std::vector<size_t> ids = challenge.corrupted_indices();
  if (ids.size() > 30) ids.resize(30);
  double score = challenge.SubmitCleaningRequest("oracle_user", ids).value();
  EXPECT_GT(score, challenge.BaselineScore());
}

TEST(ChallengeTest, LeaderboardOrdersByBestScore) {
  DataDebuggingChallenge challenge = MakeChallenge(400, 43);
  // Participant A cleans true errors; participant B cleans arbitrary rows.
  std::vector<size_t> good = challenge.corrupted_indices();
  if (good.size() > 25) good.resize(25);
  std::vector<size_t> arbitrary(25);
  std::iota(arbitrary.begin(), arbitrary.end(), size_t{0});
  ASSERT_TRUE(challenge.SubmitCleaningRequest("informed", good).ok());
  ASSERT_TRUE(challenge.SubmitCleaningRequest("uninformed", arbitrary).ok());
  auto leaderboard = challenge.Leaderboard();
  ASSERT_EQ(leaderboard.size(), 2u);
  EXPECT_GE(leaderboard[0].best_score, leaderboard[1].best_score);
  EXPECT_FALSE(leaderboard[0].ToString().empty());
  // The informed participant should top the board.
  EXPECT_EQ(leaderboard[0].participant, "informed");
}

TEST(ChallengeTest, ParticipantsAreIsolated) {
  DataDebuggingChallenge challenge = MakeChallenge();
  std::vector<size_t> ids = {0, 1, 2};
  ASSERT_TRUE(challenge.SubmitCleaningRequest("a", ids).ok());
  EXPECT_EQ(challenge.RemainingBudget("a"), 27u);
  EXPECT_EQ(challenge.RemainingBudget("b"), 30u);
}

}  // namespace
}  // namespace nde
