#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "ml/decision_tree.h"
#include "ml/knn.h"
#include "ml/linear_regression.h"
#include "ml/logistic_regression.h"
#include "ml/metrics.h"
#include "ml/naive_bayes.h"
#include "ml/svm.h"

namespace nde {
namespace {

MlDataset EasyBinaryBlobs(uint64_t seed = 42, size_t n = 300) {
  BlobsOptions options;
  options.num_examples = n;
  options.num_features = 4;
  options.num_classes = 2;
  options.separation = 4.0;
  options.noise = 0.8;
  options.seed = seed;
  return MakeBlobs(options);
}

// --- Dataset helpers ------------------------------------------------------------

TEST(MlDatasetTest, SubsetAndWithout) {
  MlDataset data = EasyBinaryBlobs();
  MlDataset subset = data.Subset({0, 5, 10});
  EXPECT_EQ(subset.size(), 3u);
  EXPECT_EQ(subset.labels[1], data.labels[5]);

  MlDataset without = data.Without({0, 1, 2});
  EXPECT_EQ(without.size(), data.size() - 3);
  EXPECT_EQ(without.labels[0], data.labels[3]);
}

TEST(MlDatasetTest, NumClasses) {
  MlDataset data;
  data.features = Matrix(3, 1);
  data.labels = {0, 4, 2};
  EXPECT_EQ(data.NumClasses(), 5);
  MlDataset empty;
  EXPECT_EQ(empty.NumClasses(), 0);
}

TEST(MlDatasetTest, ValidateCatchesMismatch) {
  MlDataset data;
  data.features = Matrix(3, 2);
  data.labels = {0, 1};
  EXPECT_FALSE(data.Validate().ok());
  data.labels = {0, 1, -1};
  EXPECT_FALSE(data.Validate().ok());
}

TEST(TrainTestSplitTest, PartitionsWithoutOverlap) {
  MlDataset data = EasyBinaryBlobs();
  Rng rng(3);
  SplitResult split = TrainTestSplit(data, 0.25, &rng);
  EXPECT_EQ(split.train.size() + split.test.size(), data.size());
  EXPECT_NEAR(static_cast<double>(split.test.size()), 75.0, 1.0);
  std::vector<bool> seen(data.size(), false);
  for (size_t i : split.train_indices) seen[i] = true;
  for (size_t i : split.test_indices) {
    EXPECT_FALSE(seen[i]) << "index in both splits";
    seen[i] = true;
  }
}

TEST(FeatureScalerTest, TransformsToZeroMeanUnitVariance) {
  MlDataset data = EasyBinaryBlobs();
  FeatureScaler scaler = FeatureScaler::Fit(data.features);
  Matrix z = scaler.Transform(data.features);
  FeatureScaler check = FeatureScaler::Fit(z);
  for (size_t j = 0; j < z.cols(); ++j) {
    EXPECT_NEAR(check.mean[j], 0.0, 1e-9);
    EXPECT_NEAR(check.stddev[j], 1.0, 1e-9);
  }
}

TEST(FeatureScalerTest, ConstantFeatureGetsUnitStddev) {
  Matrix m(5, 1, 3.0);
  FeatureScaler scaler = FeatureScaler::Fit(m);
  EXPECT_EQ(scaler.stddev[0], 1.0);
  Matrix z = scaler.Transform(m);
  EXPECT_EQ(z(0, 0), 0.0);
}

// --- KNN ------------------------------------------------------------------------

TEST(KnnTest, PerfectOnTrainingDataWithK1) {
  MlDataset data = EasyBinaryBlobs();
  KnnClassifier knn(1);
  ASSERT_TRUE(knn.Fit(data).ok());
  std::vector<int> predictions = knn.Predict(data.features);
  EXPECT_EQ(Accuracy(data.labels, predictions), 1.0);
}

TEST(KnnTest, NeighborsSortedByDistance) {
  MlDataset data;
  data.features = Matrix::FromRows({{0.0}, {1.0}, {2.0}, {5.0}});
  data.labels = {0, 0, 1, 1};
  KnnClassifier knn(2);
  ASSERT_TRUE(knn.Fit(data).ok());
  std::vector<size_t> neighbors = knn.Neighbors({1.9}, 3);
  EXPECT_EQ(neighbors, (std::vector<size_t>{2, 1, 0}));
}

TEST(KnnTest, NeighborsPutNanDistancesAfterInfinityTiesByIndex) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  MlDataset data;
  data.features =
      Matrix::FromRows({{nan}, {1e300}, {2.0}, {nan}, {0.0}, {2.0}});
  data.labels = {0, 0, 1, 1, 0, 1};
  KnnClassifier knn(1);
  ASSERT_TRUE(knn.Fit(data).ok());
  // Distances to 1.0: rows 2, 4 and 5 at 1, row 1 at +inf, rows 0 and 3 NaN.
  EXPECT_EQ(knn.Neighbors({1.0}, 6), (std::vector<size_t>{2, 4, 5, 1, 0, 3}));
  EXPECT_EQ(knn.Neighbors({1.0}, 1), (std::vector<size_t>{2}));
}

TEST(KnnTest, ProbaSumsToOne) {
  MlDataset data = EasyBinaryBlobs();
  KnnClassifier knn(5);
  ASSERT_TRUE(knn.Fit(data).ok());
  Matrix proba = knn.PredictProba(data.features.SelectRows({0, 1, 2}));
  for (size_t r = 0; r < proba.rows(); ++r) {
    double total = 0.0;
    for (size_t c = 0; c < proba.cols(); ++c) total += proba(r, c);
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(KnnTest, RejectsEmptyData) {
  KnnClassifier knn(3);
  EXPECT_FALSE(knn.Fit(MlDataset{}).ok());
}

TEST(KnnTest, CloneIsUnfittedSameConfig) {
  KnnClassifier knn(7);
  std::unique_ptr<Classifier> clone = knn.Clone();
  EXPECT_EQ(clone->name(), "knn(k=7)");
}

// --- Logistic regression ----------------------------------------------------------

TEST(LogisticRegressionTest, LearnsSeparableData) {
  MlDataset data = EasyBinaryBlobs();
  Rng rng(5);
  SplitResult split = TrainTestSplit(data, 0.3, &rng);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(split.train).ok());
  std::vector<int> predictions = model.Predict(split.test.features);
  EXPECT_GT(Accuracy(split.test.labels, predictions), 0.95);
}

TEST(LogisticRegressionTest, MulticlassBlobsTrainable) {
  BlobsOptions options;
  options.num_classes = 3;
  options.num_examples = 300;
  options.separation = 5.0;
  MlDataset data = MakeBlobs(options);
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_EQ(model.num_classes(), 3);
  std::vector<int> predictions = model.Predict(data.features);
  EXPECT_GT(Accuracy(data.labels, predictions), 0.9);
}

TEST(LogisticRegressionTest, ProbaRowsAreDistributions) {
  MlDataset data = EasyBinaryBlobs();
  LogisticRegression model;
  ASSERT_TRUE(model.Fit(data).ok());
  Matrix proba = model.PredictProba(data.features);
  for (size_t r = 0; r < std::min<size_t>(proba.rows(), 20); ++r) {
    double total = 0.0;
    for (size_t c = 0; c < proba.cols(); ++c) {
      EXPECT_GE(proba(r, c), 0.0);
      total += proba(r, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(LogisticRegressionTest, LogLossDecreasesWithTraining) {
  MlDataset data = EasyBinaryBlobs();
  LogisticRegressionOptions few;
  few.epochs = 2;
  LogisticRegressionOptions many;
  many.epochs = 300;
  LogisticRegression short_model(few);
  LogisticRegression long_model(many);
  ASSERT_TRUE(short_model.Fit(data).ok());
  ASSERT_TRUE(long_model.Fit(data).ok());
  EXPECT_LT(long_model.LogLoss(data), short_model.LogLoss(data));
}

TEST(SoftmaxTest, RowsNormalizedAndStable) {
  Matrix logits = Matrix::FromRows({{1000.0, 1001.0}, {-1000.0, -1001.0}});
  SoftmaxRowsInPlace(&logits);
  EXPECT_NEAR(logits(0, 0) + logits(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(logits(1, 0) + logits(1, 1), 1.0, 1e-12);
  EXPECT_GT(logits(0, 1), logits(0, 0));
  EXPECT_GT(logits(1, 0), logits(1, 1));
}

// --- Ridge regression ---------------------------------------------------------------

TEST(RidgeRegressionTest, RecoversLinearFunction) {
  Rng rng(7);
  RegressionDataset data;
  data.features = Matrix(100, 2);
  data.targets.resize(100);
  for (size_t i = 0; i < 100; ++i) {
    data.features(i, 0) = rng.NextGaussian();
    data.features(i, 1) = rng.NextGaussian();
    data.targets[i] =
        3.0 * data.features(i, 0) - 2.0 * data.features(i, 1) + 1.0;
  }
  RidgeRegression model(1e-6);
  ASSERT_TRUE(model.Fit(data).ok());
  EXPECT_NEAR(model.weights()[0], 3.0, 1e-3);
  EXPECT_NEAR(model.weights()[1], -2.0, 1e-3);
  EXPECT_NEAR(model.intercept(), 1.0, 1e-3);
  EXPECT_LT(model.MeanSquaredError(data), 1e-6);
}

TEST(RidgeRegressionTest, HatRowReproducesPrediction) {
  Rng rng(11);
  RegressionDataset data;
  data.features = Matrix(50, 3);
  data.targets.resize(50);
  for (size_t i = 0; i < 50; ++i) {
    for (size_t j = 0; j < 3; ++j) data.features(i, j) = rng.NextGaussian();
    data.targets[i] = rng.NextGaussian();
  }
  RidgeRegression model(0.1);
  ASSERT_TRUE(model.Fit(data).ok());
  std::vector<double> x = {0.5, -1.0, 2.0};
  std::vector<double> hat = model.HatRow(x);
  ASSERT_EQ(hat.size(), data.size());
  // prediction must equal hat . y exactly (linearity in targets).
  EXPECT_NEAR(Dot(hat, data.targets), model.PredictOne(x), 1e-9);
}

TEST(RidgeRegressionTest, RejectsShapeMismatch) {
  RegressionDataset data;
  data.features = Matrix(3, 1);
  data.targets = {1.0};
  RidgeRegression model;
  EXPECT_FALSE(model.Fit(data).ok());
}

// --- SVM ------------------------------------------------------------------------

TEST(LinearSvmTest, LearnsSeparableData) {
  MlDataset data = EasyBinaryBlobs();
  Rng rng(13);
  SplitResult split = TrainTestSplit(data, 0.3, &rng);
  LinearSvm model;
  ASSERT_TRUE(model.Fit(split.train).ok());
  std::vector<int> predictions = model.Predict(split.test.features);
  EXPECT_GT(Accuracy(split.test.labels, predictions), 0.92);
}

TEST(LinearSvmTest, DecisionValueSignMatchesPrediction) {
  MlDataset data = EasyBinaryBlobs();
  LinearSvm model;
  ASSERT_TRUE(model.Fit(data).ok());
  std::vector<int> predictions = model.Predict(data.features);
  for (size_t i = 0; i < 20; ++i) {
    double value = model.DecisionValue(data.features.Row(i));
    EXPECT_EQ(predictions[i], value >= 0.0 ? 1 : 0);
  }
}

TEST(LinearSvmTest, RejectsMulticlass) {
  BlobsOptions options;
  options.num_classes = 3;
  MlDataset data = MakeBlobs(options);
  LinearSvm model;
  EXPECT_FALSE(model.Fit(data).ok());
}

// --- Decision tree ------------------------------------------------------------------

TEST(DecisionTreeTest, SolvesXor) {
  // XOR is not linearly separable; a depth>=2 tree nails it.
  MlDataset data;
  data.features = Matrix::FromRows(
      {{0, 0}, {0, 1}, {1, 0}, {1, 1}, {0.1, 0.1}, {0.1, 0.9}, {0.9, 0.1},
       {0.9, 0.9}});
  data.labels = {0, 1, 1, 0, 0, 1, 1, 0};
  DecisionTreeOptions options;
  options.max_depth = 3;
  options.min_samples_leaf = 1;
  options.min_samples_split = 2;
  DecisionTreeClassifier tree(options);
  ASSERT_TRUE(tree.Fit(data).ok());
  std::vector<int> predictions = tree.Predict(data.features);
  EXPECT_EQ(Accuracy(data.labels, predictions), 1.0);
  EXPECT_GE(tree.Depth(), 2u);
}

TEST(DecisionTreeTest, RespectsMaxDepth) {
  MlDataset data = EasyBinaryBlobs();
  DecisionTreeOptions options;
  options.max_depth = 1;
  DecisionTreeClassifier stump(options);
  ASSERT_TRUE(stump.Fit(data).ok());
  EXPECT_LE(stump.Depth(), 2u);
  EXPECT_LE(stump.NodeCount(), 3u);
}

TEST(DecisionTreeTest, PureLeafStopsSplitting) {
  MlDataset data;
  data.features = Matrix::FromRows({{1}, {2}, {3}});
  data.labels = {1, 1, 1};
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(data).ok());
  EXPECT_EQ(tree.NodeCount(), 1u);
  EXPECT_EQ(tree.Predict(data.features), (std::vector<int>{1, 1, 1}));
}

TEST(DecisionTreeTest, GeneralizesOnBlobs) {
  MlDataset data = EasyBinaryBlobs();
  Rng rng(17);
  SplitResult split = TrainTestSplit(data, 0.3, &rng);
  DecisionTreeClassifier tree;
  ASSERT_TRUE(tree.Fit(split.train).ok());
  EXPECT_GT(Accuracy(split.test.labels, tree.Predict(split.test.features)),
            0.85);
}

// --- Naive Bayes --------------------------------------------------------------------

TEST(GaussianNbTest, LearnsBlobs) {
  MlDataset data = EasyBinaryBlobs();
  Rng rng(19);
  SplitResult split = TrainTestSplit(data, 0.3, &rng);
  GaussianNaiveBayes model;
  ASSERT_TRUE(model.Fit(split.train).ok());
  EXPECT_GT(Accuracy(split.test.labels, model.Predict(split.test.features)),
            0.92);
}

TEST(GaussianNbTest, ProbaRowsNormalized) {
  MlDataset data = EasyBinaryBlobs();
  GaussianNaiveBayes model;
  ASSERT_TRUE(model.Fit(data).ok());
  Matrix proba = model.PredictProba(data.features.SelectRows({0, 1}));
  for (size_t r = 0; r < proba.rows(); ++r) {
    double total = 0.0;
    for (size_t c = 0; c < proba.cols(); ++c) total += proba(r, c);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(GaussianNbTest, FitWithClassesHandlesAbsentClass) {
  MlDataset data;
  data.features = Matrix::FromRows({{0.0}, {0.1}, {5.0}});
  data.labels = {0, 0, 1};
  GaussianNaiveBayes model;
  ASSERT_TRUE(model.FitWithClasses(data, 3).ok());
  EXPECT_EQ(model.num_classes(), 3);
  std::vector<int> predictions = model.Predict(data.features);
  EXPECT_EQ(predictions[0], 0);
  EXPECT_EQ(predictions[2], 1);
}

// --- Shared interface behaviors -------------------------------------------------------

class AllModelsTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<Classifier> MakeModel() const {
    switch (GetParam()) {
      case 0:
        return std::make_unique<KnnClassifier>(5);
      case 1:
        return std::make_unique<LogisticRegression>();
      case 2:
        return std::make_unique<LinearSvm>();
      case 3:
        return std::make_unique<DecisionTreeClassifier>();
      default:
        return std::make_unique<GaussianNaiveBayes>();
    }
  }
};

TEST_P(AllModelsTest, BeatsChanceOnBlobs) {
  MlDataset data = EasyBinaryBlobs(GetParam() + 100);
  Rng rng(29);
  SplitResult split = TrainTestSplit(data, 0.3, &rng);
  std::unique_ptr<Classifier> model = MakeModel();
  ASSERT_TRUE(model->Fit(split.train).ok());
  EXPECT_GT(Accuracy(split.test.labels, model->Predict(split.test.features)),
            0.8)
      << model->name();
}

TEST_P(AllModelsTest, CloneProducesSameKind) {
  std::unique_ptr<Classifier> model = MakeModel();
  std::unique_ptr<Classifier> clone = model->Clone();
  EXPECT_EQ(model->name(), clone->name());
}

TEST_P(AllModelsTest, RejectsEmptyFit) {
  std::unique_ptr<Classifier> model = MakeModel();
  EXPECT_FALSE(model->Fit(MlDataset{}).ok());
}

INSTANTIATE_TEST_SUITE_P(Models, AllModelsTest, ::testing::Range(0, 5));

// --- Zero-copy view fitting ---------------------------------------------------------------

TEST(FitViewTest, LogisticRegressionViewWeightsMatchMaterializedFit) {
  MlDataset data = EasyBinaryBlobs(7, 40);
  std::vector<size_t> subset = {1, 3, 4, 8, 11, 15, 20, 21, 30, 37};

  LogisticRegressionOptions options;
  options.epochs = 40;
  LogisticRegression from_view(options);
  ASSERT_TRUE(from_view.FitView(MlDatasetView(data, subset), 2).ok());
  LogisticRegression from_copy(options);
  ASSERT_TRUE(from_copy.FitWithClasses(data.Subset(subset), 2).ok());

  ASSERT_EQ(from_view.weights().rows(), from_copy.weights().rows());
  ASSERT_EQ(from_view.weights().cols(), from_copy.weights().cols());
  for (size_t r = 0; r < from_view.weights().rows(); ++r) {
    for (size_t c = 0; c < from_view.weights().cols(); ++c) {
      EXPECT_EQ(from_view.weights().At(r, c), from_copy.weights().At(r, c))
          << "weight (" << r << ", " << c << ")";
    }
  }
}

TEST(FitViewTest, KnnViewPredictionsMatchMaterializedFit) {
  MlDataset data = EasyBinaryBlobs(9, 50);
  MlDataset eval = EasyBinaryBlobs(10, 20);
  std::vector<size_t> subset = {0, 2, 5, 7, 12, 18, 25, 33, 41, 49};

  KnnClassifier from_view(3);
  ASSERT_TRUE(from_view.FitView(MlDatasetView(data, subset), 2).ok());
  KnnClassifier from_copy(3);
  ASSERT_TRUE(from_copy.FitWithClasses(data.Subset(subset), 2).ok());

  EXPECT_EQ(from_view.Predict(eval.features), from_copy.Predict(eval.features));
}

TEST(FitViewTest, EmptyViewIsRejected) {
  MlDataset data = EasyBinaryBlobs(11, 10);
  std::vector<size_t> empty;
  KnnClassifier knn(3);
  EXPECT_FALSE(knn.FitView(MlDatasetView(data, empty), 2).ok());
  LogisticRegression logreg;
  EXPECT_FALSE(logreg.FitView(MlDatasetView(data, empty), 2).ok());
}

// --- Warm-start incremental fitting -------------------------------------------------------

TEST(FitIncrementalTest, UnfittedModelFallsBackToExactFit) {
  MlDataset data = EasyBinaryBlobs(13, 60);
  LogisticRegressionOptions options;
  options.epochs = 40;
  LogisticRegression incremental(options);
  ASSERT_TRUE(incremental.FitIncremental(data, 2).ok());
  LogisticRegression cold(options);
  ASSERT_TRUE(cold.FitWithClasses(data, 2).ok());
  // No previous state to warm-start from, so the fallback is the exact fit.
  for (size_t r = 0; r < cold.weights().rows(); ++r) {
    for (size_t c = 0; c < cold.weights().cols(); ++c) {
      EXPECT_EQ(incremental.weights().At(r, c), cold.weights().At(r, c));
    }
  }
}

TEST(FitIncrementalTest, WarmStartRefinesPreviousWeights) {
  MlDataset data = EasyBinaryBlobs(17, 80);
  LogisticRegressionOptions options;
  options.epochs = 60;
  options.warm_start_epochs = 10;
  LogisticRegression model(options);
  ASSERT_TRUE(model.FitWithClasses(data, 2).ok());
  Matrix before = model.weights();

  // Growing the dataset and warm-starting must keep the model usable and
  // actually move the weights (it runs warm_start_epochs > 0 of descent).
  MlDataset grown = EasyBinaryBlobs(17, 80);
  MlDataset extra = EasyBinaryBlobs(19, 20);
  grown.features.AppendRows(extra.features);
  grown.labels.insert(grown.labels.end(), extra.labels.begin(),
                      extra.labels.end());
  ASSERT_TRUE(model.FitIncremental(grown, 2).ok());
  bool moved = false;
  for (size_t r = 0; r < before.rows() && !moved; ++r) {
    for (size_t c = 0; c < before.cols() && !moved; ++c) {
      moved = model.weights().At(r, c) != before.At(r, c);
    }
  }
  EXPECT_TRUE(moved);
  double accuracy = Accuracy(grown.labels, model.Predict(grown.features));
  EXPECT_GT(accuracy, 0.8);
}

TEST(FitIncrementalTest, DefaultImplementationDelegatesToExactFit) {
  // Models without a warm-start override (e.g. KNN) must still satisfy the
  // FitIncremental contract by refitting exactly.
  MlDataset data = EasyBinaryBlobs(23, 40);
  MlDataset eval = EasyBinaryBlobs(24, 15);
  KnnClassifier incremental(3);
  ASSERT_TRUE(incremental.FitIncremental(data, 2).ok());
  KnnClassifier cold(3);
  ASSERT_TRUE(cold.FitWithClasses(data, 2).ok());
  EXPECT_EQ(incremental.Predict(eval.features), cold.Predict(eval.features));
}

// --- Coalition scorers ----------------------------------------------------
//
// The CoalitionScorer contract: Predict() after any sequence of Add() calls
// is bit-identical to a cold FitWithClasses on the *sorted* coalition. These
// tests drive the scorers directly (no estimator) with adversarial insertion
// orders.

MlDataset ScorerBlobs(uint64_t seed, size_t n) {
  BlobsOptions options;
  options.num_examples = n;
  options.num_features = 4;
  options.num_classes = 3;
  options.seed = seed;
  options.center_seed = 7;
  return MakeBlobs(options);
}

/// Insertion order that starts with every row of one class (so the scorer
/// spends several steps with classes absent), then drains the rest in
/// descending index order (so sorted-insert paths never get appended-only
/// input).
std::vector<size_t> AdversarialOrder(const MlDataset& train) {
  std::vector<size_t> order;
  for (size_t i = 0; i < train.size(); ++i) {
    if (train.labels[i] == 0) order.push_back(i);
  }
  for (size_t i = train.size(); i-- > 0;) {
    if (train.labels[i] != 0) order.push_back(i);
  }
  return order;
}

/// How many of `predicted` equal `labels`: the count NumCorrect() keeps.
size_t CountCorrect(const std::vector<int>& predicted,
                    const std::vector<int>& labels) {
  size_t correct = 0;
  for (size_t r = 0; r < labels.size(); ++r) {
    if (predicted[r] == labels[r]) ++correct;
  }
  return correct;
}

/// Adds `order` one row at a time and, after every Add, requires Predict()
/// to equal a cold fit on the sorted coalition and NumCorrect() to equal a
/// recount of Predict() against the evaluation labels.
template <typename Model>
void CheckScorerMatchesColdFit(const Model& model, const MlDataset& train,
                               const MlDataset& eval, int num_classes,
                               const std::vector<size_t>& order) {
  std::shared_ptr<const CoalitionScorerContext> context =
      model.NewCoalitionScorerContext(train, eval, num_classes).value();
  ASSERT_NE(context, nullptr);
  std::unique_ptr<CoalitionScorer> scorer = context->NewScorer();
  std::vector<size_t> coalition;
  for (size_t index : order) {
    scorer->Add(index);
    coalition.push_back(index);
    std::vector<size_t> sorted = coalition;
    std::sort(sorted.begin(), sorted.end());
    std::unique_ptr<Classifier> cold = model.Clone();
    ASSERT_TRUE(cold->FitWithClasses(train.Subset(sorted), num_classes).ok());
    const std::vector<int> predicted = scorer->Predict();
    EXPECT_EQ(predicted, cold->Predict(eval.features))
        << "after " << coalition.size() << " adds";
    EXPECT_EQ(scorer->NumCorrect(), CountCorrect(predicted, eval.labels))
        << "after " << coalition.size() << " adds";
  }
}

template <typename Model>
void CheckScorerMatchesColdFit(const Model& model, const MlDataset& train,
                               const MlDataset& eval, int num_classes) {
  CheckScorerMatchesColdFit(model, train, eval, num_classes,
                            AdversarialOrder(train));
}

TEST(CoalitionScorerTest, KnnKernelMatchesColdFitUnderAdversarialOrder) {
  MlDataset train = ScorerBlobs(31, 24);
  MlDataset eval = ScorerBlobs(32, 10);
  CheckScorerMatchesColdFit(KnnClassifier(3), train, eval, train.NumClasses());
}

TEST(CoalitionScorerTest, GaussianNbScorerMatchesColdFitUnderAdversarialOrder) {
  MlDataset train = ScorerBlobs(33, 24);
  MlDataset eval = ScorerBlobs(34, 10);
  CheckScorerMatchesColdFit(GaussianNaiveBayes(), train, eval,
                            train.NumClasses());
}

/// Appends copies of `rows` of `data` (features and labels), in that order.
void AppendCopies(MlDataset& data, const std::vector<size_t>& rows) {
  MlDataset copies = data.Subset(rows);
  data.features.AppendRows(copies.features);
  data.labels.insert(data.labels.end(), copies.labels.begin(),
                     copies.labels.end());
}

TEST(CoalitionScorerTest, KnnKernelOrdersEqualDistancesByIndex) {
  // Duplicated rows sit at equal distances from every evaluation point, so
  // only the index tie-break decides which of them a full window keeps. The
  // copies carry other labels, so a wrong tie-break changes predictions.
  MlDataset train = ScorerBlobs(35, 18);
  AppendCopies(train, {0, 1, 2, 3, 4, 5, 0, 1, 2});
  for (size_t i = 18; i < train.size(); ++i) {
    train.labels[i] = (train.labels[i] + 1 + static_cast<int>(i % 2)) % 3;
  }
  MlDataset eval = train.Subset({0, 1, 2, 3, 4, 5, 6, 7});
  CheckScorerMatchesColdFit(KnnClassifier(3), train, eval, 3);
  CheckScorerMatchesColdFit(KnnClassifier(1), train, eval, 3);
}

TEST(CoalitionScorerTest, KnnKernelOrdersFloatEqualDistancesExactly) {
  // Rows 1e-9 apart: their distances to every evaluation point differ only
  // below float precision, so they share one radix key and only the exact
  // re-ordering of equal keys ranks them. The nearer a row, the higher its
  // index, so index order (what the radix passes leave) is the wrong order;
  // labels alternate, so every wrong window shows in Predict().
  MlDataset train;
  train.features = Matrix(12, 2);
  for (size_t i = 0; i < 12; ++i) {
    train.features(i, 0) = 1.0 - 1e-9 * static_cast<double>(i);
    train.features(i, 1) = 0.5;
    train.labels.push_back(static_cast<int>(i % 3 == 0 ? 0 : i % 2 + 1));
  }
  MlDataset eval;
  eval.features = Matrix(3, 2);
  eval.features(0, 0) = 0.0;
  eval.features(1, 0) = -2.0;
  eval.features(1, 1) = 3.0;
  eval.features(2, 0) = 0.25;
  eval.features(2, 1) = 0.5;
  eval.labels = {0, 1, 2};
  for (size_t k : {size_t{1}, size_t{2}, size_t{3}}) {
    CheckScorerMatchesColdFit(KnnClassifier(k), train, eval, 3);
  }
}

TEST(CoalitionScorerTest, KnnKernelPutsNanDistancesAfterInfinity) {
  // A NaN feature makes that row's distance NaN for every evaluation point,
  // and a huge one makes it +inf. The cold fit and the kernel must agree on
  // one total order: finite, then +inf, then NaN, ties by index.
  MlDataset train = ScorerBlobs(36, 15);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t i : {2u, 5u, 9u, 13u}) train.features(i, 1) = nan;
  for (size_t i : {4u, 11u}) train.features(i, 0) = 1e300;
  MlDataset eval = ScorerBlobs(37, 6);
  CheckScorerMatchesColdFit(KnnClassifier(3), train, eval, 3);
  CheckScorerMatchesColdFit(KnnClassifier(5), train, eval, 3);
  // With every distance NaN, windows fill by index alone.
  MlDataset all_nan = train;
  for (size_t i = 0; i < all_nan.size(); ++i) all_nan.features(i, 0) = nan;
  CheckScorerMatchesColdFit(KnnClassifier(3), all_nan, eval, 3);
}

/// Width boundary: up to 65,535 training rows the kernel stores 16-bit ranks
/// and the largest rank sits one below the underfull cutoff; one row more
/// switches it to 32-bit ranks. Rows lie on a line, nearest first, and the
/// scan starts with the farthest, so the first Adds carry the largest ranks.
void CheckRankWidthBoundary(size_t n) {
  MlDataset train;
  train.features = Matrix(n, 2);
  train.labels.resize(n);
  for (size_t i = 0; i < n; ++i) {
    train.features(i, 0) = static_cast<double>(i);
    train.labels[i] = static_cast<int>((i / 2) % 3);
  }
  MlDataset eval;
  eval.features = Matrix(3, 2);
  eval.features(1, 0) = static_cast<double>(n / 2);
  eval.features(2, 0) = static_cast<double>(n);
  eval.features(2, 1) = 1.0;
  eval.labels = {0, 1, 2};
  KnnClassifier model(3);
  std::shared_ptr<const CoalitionScorerContext> context =
      model.NewCoalitionScorerContext(train, eval, 3).value();
  ASSERT_NE(context, nullptr);
  std::unique_ptr<CoalitionScorer> scorer = context->NewScorer();
  std::vector<size_t> coalition;
  const std::vector<size_t> checkpoints = {1, 2, 3, 4, 7, 1000, n / 2 + 1, n};
  size_t next = 0;
  for (size_t step = 0; step < n; ++step) {
    const size_t index = n - 1 - step;  // Farthest from evaluation row 0 first.
    scorer->Add(index);
    coalition.push_back(index);
    if (coalition.size() != checkpoints[next]) continue;
    ++next;
    std::vector<size_t> sorted(coalition.rbegin(), coalition.rend());
    KnnClassifier cold(3);
    ASSERT_TRUE(cold.FitWithClasses(train.Subset(sorted), 3).ok());
    const std::vector<int> predicted = scorer->Predict();
    EXPECT_EQ(predicted, cold.Predict(eval.features))
        << n << " rows, after " << coalition.size() << " adds";
    EXPECT_EQ(scorer->NumCorrect(), CountCorrect(predicted, eval.labels));
  }
  EXPECT_EQ(next, checkpoints.size());
}

TEST(CoalitionScorerTest, KnnKernelMatchesColdFitAtTheRankWidthBoundary) {
  CheckRankWidthBoundary(65535);  // uint16_t ranks, the largest 65,534.
  CheckRankWidthBoundary(65536);  // uint32_t ranks.
}

}  // namespace
}  // namespace nde
