#include <atomic>
#include <functional>
#include <memory>
#include <numeric>

#include <gtest/gtest.h>

#include "cold_reference.h"
#include "common/rng.h"
#include "datagen/synthetic.h"
#include "importance/game_values.h"
#include "importance/grouped.h"
#include "ml/knn.h"

namespace nde {
namespace {

class LambdaUtility : public UtilityFunction {
 public:
  LambdaUtility(size_t n, std::function<double(const std::vector<size_t>&)> fn)
      : n_(n), fn_(std::move(fn)) {}
  double Evaluate(const std::vector<size_t>& subset) const override {
    return fn_(subset);
  }
  size_t num_units() const override { return n_; }

 private:
  size_t n_;
  std::function<double(const std::vector<size_t>&)> fn_;
};

TEST(GroupedUtilityTest, CreateValidatesAssignment) {
  LambdaUtility base(4, [](const std::vector<size_t>&) { return 0.0; });
  EXPECT_FALSE(GroupedUtility::Create(nullptr, {0, 0, 1, 1}).ok());
  EXPECT_FALSE(GroupedUtility::Create(&base, {0, 1}).ok());       // Size.
  EXPECT_FALSE(GroupedUtility::Create(&base, {0, 0, 2, 2}).ok());  // Gap.
  EXPECT_TRUE(GroupedUtility::Create(&base, {0, 0, 1, 1}).ok());
}

TEST(GroupedUtilityTest, EvaluatesUnionOfGroupRows) {
  // Base game: v(S) = sum of (i + 1) over rows.
  LambdaUtility base(5, [](const std::vector<size_t>& subset) {
    double total = 0.0;
    for (size_t i : subset) total += static_cast<double>(i + 1);
    return total;
  });
  GroupedUtility grouped =
      GroupedUtility::Create(&base, {0, 0, 1, 1, 1}).value();
  EXPECT_EQ(grouped.num_units(), 2u);
  EXPECT_EQ(grouped.Evaluate({0}), 1.0 + 2.0);
  EXPECT_EQ(grouped.Evaluate({1}), 3.0 + 4.0 + 5.0);
  EXPECT_EQ(grouped.Evaluate({0, 1}), 15.0);
  EXPECT_EQ(grouped.GroupRows(1), (std::vector<size_t>{2, 3, 4}));
}

TEST(GroupedUtilityTest, GroupShapleyOfAdditiveGameIsGroupSum) {
  // In an additive game the group Shapley value equals the sum of member
  // worths — a crisp correctness anchor.
  std::vector<double> worths = {1.0, 2.0, -1.5, 0.5, 3.0, -0.5};
  LambdaUtility base(6, [worths](const std::vector<size_t>& subset) {
    double total = 0.0;
    for (size_t i : subset) total += worths[i];
    return total;
  });
  GroupedUtility grouped =
      GroupedUtility::Create(&base, {0, 0, 1, 1, 2, 2}).value();
  std::vector<double> values = ExactShapleyValues(grouped).value();
  EXPECT_NEAR(values[0], 3.0, 1e-12);
  EXPECT_NEAR(values[1], -1.0, 1e-12);
  EXPECT_NEAR(values[2], 2.5, 1e-12);
}

TEST(GroupedUtilityTest, EfficiencyOverGroups) {
  LambdaUtility base(6, [](const std::vector<size_t>& subset) {
    return static_cast<double>(subset.size() * subset.size());
  });
  GroupedUtility grouped =
      GroupedUtility::Create(&base, {0, 1, 1, 2, 2, 2}).value();
  std::vector<double> values = ExactShapleyValues(grouped).value();
  double total = std::accumulate(values.begin(), values.end(), 0.0);
  EXPECT_NEAR(total, 36.0, 1e-9);  // v(all groups) = 6^2.
}

TEST(GroupShapleyTest, CorruptedProviderGetsLowestValue) {
  // Three "data providers": provider 2's labels are all flipped. Its group
  // Shapley value must be the lowest (and negative).
  BlobsOptions options;
  options.num_examples = 150;
  options.num_features = 4;
  options.separation = 3.0;
  MlDataset all = MakeBlobs(options);
  Rng split_rng(7);
  SplitResult split = TrainTestSplit(all, 0.4, &split_rng);
  MlDataset train = split.train;
  MlDataset validation = split.test;

  std::vector<size_t> group_of(train.size());
  for (size_t i = 0; i < train.size(); ++i) {
    group_of[i] = i % 3;
    if (group_of[i] == 2) train.labels[i] = 1 - train.labels[i];
  }
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  std::vector<double> values =
      GroupShapleyValues(factory, train, validation, group_of).value();
  ASSERT_EQ(values.size(), 3u);
  EXPECT_LT(values[2], values[0]);
  EXPECT_LT(values[2], values[1]);
  EXPECT_LT(values[2], 0.0);
  EXPECT_GT(values[0], 0.0);
}

TEST(GroupedUtilityTest, TmcOverKnnGroupsScoresFromOnePreparedModel) {
  // The estimator prepares the grouped utility, which prepares its KNN base:
  // every group coalition is then scored from the base's scorer context, so
  // the factory builds the one model that context comes from, and the values
  // equal a run that fits every coalition cold.
  BlobsOptions blobs;
  blobs.num_examples = 240;
  blobs.num_features = 4;
  blobs.separation = 1.5;
  MlDataset all = MakeBlobs(blobs);
  Rng split_rng(11);
  SplitResult split = TrainTestSplit(all, 0.25, &split_rng);
  std::vector<size_t> group_of(split.train.size());
  for (size_t i = 0; i < group_of.size(); ++i) group_of[i] = i % 12;

  std::atomic<size_t> models{0};
  ClassifierFactory counting = [&models] {
    models.fetch_add(1);
    return std::make_unique<KnnClassifier>(3);
  };
  ModelAccuracyUtility base(counting, split.train, split.test);
  GroupedUtility grouped = GroupedUtility::Create(&base, group_of).value();
  TmcShapleyOptions options;
  options.num_permutations = 6;
  options.truncation_tolerance = 0.0;
  options.num_threads = 2;
  ImportanceEstimate prepared = TmcShapleyValues(grouped, options).value();
  EXPECT_EQ(models.load(), 1u);

  ModelAccuracyUtility cold_base(
      [] { return std::make_unique<KnnClassifier>(3); }, split.train,
      split.test);
  GroupedUtility cold_grouped =
      GroupedUtility::Create(&cold_base, group_of).value();
  ImportanceEstimate cold =
      TmcShapleyValues(ColdReference(cold_grouped), options).value();
  EXPECT_EQ(prepared.values, cold.values);
  EXPECT_EQ(prepared.utility_evaluations, cold.utility_evaluations);
}

TEST(GroupShapleyTest, TooManyGroupsRejected) {
  MlDataset train = MakeBlobs({});
  std::vector<size_t> group_of(train.size());
  std::iota(group_of.begin(), group_of.end(), size_t{0});  // 500 groups.
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  EXPECT_FALSE(GroupShapleyValues(factory, train, train, group_of).ok());
}

}  // namespace
}  // namespace nde
