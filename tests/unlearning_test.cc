#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/synthetic.h"
#include "ml/knn.h"
#include "ml/metrics.h"
#include "ml/naive_bayes.h"
#include "ml/unlearning.h"

namespace nde {
namespace {

MlDataset SmallBlobs(uint64_t seed = 42) {
  BlobsOptions options;
  options.num_examples = 120;
  options.num_features = 4;
  options.num_classes = 3;
  options.seed = seed;
  return MakeBlobs(options);
}

// --- DecrementalGaussianNb ----------------------------------------------------

TEST(DecrementalNbTest, FreshFitMatchesBatchModel) {
  MlDataset data = SmallBlobs();
  GaussianNaiveBayes batch;
  DecrementalGaussianNb decremental;
  ASSERT_TRUE(batch.Fit(data).ok());
  ASSERT_TRUE(decremental.Fit(data).ok());
  Matrix batch_proba = batch.PredictProba(data.features);
  Matrix dec_proba = decremental.PredictProba(data.features);
  EXPECT_LT(batch_proba.MaxAbsDiff(dec_proba), 1e-9);
}

TEST(DecrementalNbTest, ForgetEqualsRetrainFromScratch) {
  MlDataset data = SmallBlobs(7);
  DecrementalGaussianNb decremental;
  ASSERT_TRUE(decremental.Fit(data).ok());
  std::vector<size_t> to_forget = {3, 17, 55, 90, 4};
  for (size_t i : to_forget) {
    ASSERT_TRUE(decremental.Forget(i).ok());
  }
  EXPECT_EQ(decremental.remaining_size(), data.size() - to_forget.size());

  GaussianNaiveBayes retrained;
  MlDataset reduced = data.Without(to_forget);
  ASSERT_TRUE(retrained.FitWithClasses(reduced, 3).ok());

  MlDataset probe = SmallBlobs(8);
  Matrix dec_proba = decremental.PredictProba(probe.features);
  Matrix retrain_proba = retrained.PredictProba(probe.features);
  EXPECT_LT(dec_proba.MaxAbsDiff(retrain_proba), 1e-8);
}

TEST(DecrementalNbTest, ForgettingAWholeClassFallsBackGracefully) {
  MlDataset data;
  data.features = Matrix::FromRows({{0.0}, {0.1}, {5.0}, {5.1}, {5.2}});
  data.labels = {0, 0, 1, 1, 1};
  DecrementalGaussianNb model;
  ASSERT_TRUE(model.Fit(data).ok());
  ASSERT_TRUE(model.Forget(0).ok());
  ASSERT_TRUE(model.Forget(1).ok());  // Class 0 now empty.
  std::vector<int> predictions = model.Predict(data.features);
  EXPECT_EQ(predictions[2], 1);  // Remaining class dominates.
}

TEST(DecrementalNbTest, ForgetValidation) {
  MlDataset data = SmallBlobs();
  DecrementalGaussianNb model;
  EXPECT_EQ(model.Forget(0).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_EQ(model.Forget(9999).code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(model.Forget(5).ok());
  EXPECT_EQ(model.Forget(5).code(), StatusCode::kFailedPrecondition);
}

TEST(DecrementalNbTest, CannotForgetEverything) {
  MlDataset data;
  data.features = Matrix::FromRows({{0.0}, {1.0}});
  data.labels = {0, 1};
  DecrementalGaussianNb model;
  ASSERT_TRUE(model.Fit(data).ok());
  ASSERT_TRUE(model.Forget(0).ok());
  EXPECT_FALSE(model.Forget(1).ok());
}

// --- DecrementalKnn --------------------------------------------------------------

TEST(DecrementalKnnTest, FreshFitMatchesBatchKnn) {
  MlDataset data = SmallBlobs(11);
  KnnClassifier batch(5);
  DecrementalKnn decremental(5);
  ASSERT_TRUE(batch.Fit(data).ok());
  ASSERT_TRUE(decremental.Fit(data).ok());
  MlDataset probe = SmallBlobs(12);
  EXPECT_EQ(batch.Predict(probe.features),
            decremental.Predict(probe.features));
}

TEST(DecrementalKnnTest, NanDistancesComeAfterInfinity) {
  // KnnClassifier's order: distance ascending, NaN after +inf.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  MlDataset data;
  data.features = Matrix::FromRows({{nan}, {1e300}, {2.0}});
  data.labels = {0, 1, 2};
  DecrementalKnn model(1);
  ASSERT_TRUE(model.Fit(data).ok());
  const Matrix query = Matrix::FromRows({{1.0}});
  EXPECT_EQ(model.Predict(query), std::vector<int>{2});
  ASSERT_TRUE(model.Forget(2).ok());
  EXPECT_EQ(model.Predict(query), std::vector<int>{1});
}

TEST(DecrementalKnnTest, ForgetEqualsRetrainFromScratch) {
  MlDataset data = SmallBlobs(13);
  DecrementalKnn decremental(5);
  ASSERT_TRUE(decremental.Fit(data).ok());
  std::vector<size_t> to_forget = {0, 1, 2, 50, 99};
  for (size_t i : to_forget) {
    ASSERT_TRUE(decremental.Forget(i).ok());
  }
  KnnClassifier retrained(5);
  ASSERT_TRUE(retrained.FitWithClasses(data.Without(to_forget), 3).ok());
  MlDataset probe = SmallBlobs(14);
  Matrix dec_proba = decremental.PredictProba(probe.features);
  Matrix retrain_proba = retrained.PredictProba(probe.features);
  EXPECT_LT(dec_proba.MaxAbsDiff(retrain_proba), 1e-12);
}

TEST(DecrementalKnnTest, UnlearningHarmfulPointsImprovesAccuracy) {
  // The debugging/unlearning synergy: forget the label errors found by
  // debugging instead of retraining.
  DatasetSplits splits = LoadRecommendationLetters(300, 17);
  MlDataset dirty = splits.train;
  Rng rng(19);
  std::vector<size_t> corrupted = InjectLabelErrors(&dirty, 0.15, &rng);

  DecrementalKnn model(1);
  ASSERT_TRUE(model.Fit(dirty).ok());
  double dirty_accuracy =
      Accuracy(splits.test.labels, model.Predict(splits.test.features));
  for (size_t i : corrupted) {
    ASSERT_TRUE(model.Forget(i).ok());
  }
  double forgotten_accuracy =
      Accuracy(splits.test.labels, model.Predict(splits.test.features));
  EXPECT_GT(forgotten_accuracy, dirty_accuracy);
}

}  // namespace
}  // namespace nde
