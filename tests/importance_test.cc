#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "datagen/synthetic.h"
#include "importance/fairness_debugging.h"
#include "importance/game_values.h"
#include "importance/influence.h"
#include "importance/knn_shapley.h"
#include "importance/label_scores.h"
#include "importance/utility.h"
#include "ml/knn.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"

#include "influence_reference.h"

namespace nde {
namespace {

/// A synthetic game defined by an arbitrary set function, for axiom tests.
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

/// Additive game: v(S) = sum of per-unit worths. Shapley/Banzhaf/LOO must all
/// return exactly the worths.
LambdaUtility AdditiveGame(const std::vector<double>& worths) {
  return LambdaUtility(worths.size(),
                       [worths](const std::vector<size_t>& subset) {
                         double total = 0.0;
                         for (size_t i : subset) total += worths[i];
                         return total;
                       });
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  double mean_a = std::accumulate(a.begin(), a.end(), 0.0) / a.size();
  double mean_b = std::accumulate(b.begin(), b.end(), 0.0) / b.size();
  double cov = 0.0, var_a = 0.0, var_b = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    cov += (a[i] - mean_a) * (b[i] - mean_b);
    var_a += (a[i] - mean_a) * (a[i] - mean_a);
    var_b += (b[i] - mean_b) * (b[i] - mean_b);
  }
  return cov / std::sqrt(var_a * var_b + 1e-300);
}

// --- LOO ------------------------------------------------------------------------

TEST(LeaveOneOutTest, ExactOnAdditiveGame) {
  LambdaUtility game = AdditiveGame({1.0, -2.0, 0.5});
  std::vector<double> values = LeaveOneOutValues(game).value().values;
  EXPECT_NEAR(values[0], 1.0, 1e-12);
  EXPECT_NEAR(values[1], -2.0, 1e-12);
  EXPECT_NEAR(values[2], 0.5, 1e-12);
}

TEST(LeaveOneOutTest, ZeroForDummyPlayer) {
  // Player 2 contributes nothing.
  LambdaUtility game(3, [](const std::vector<size_t>& subset) {
    double v = 0.0;
    for (size_t i : subset) {
      if (i != 2) v += 1.0;
    }
    return v;
  });
  std::vector<double> values = LeaveOneOutValues(game).value().values;
  EXPECT_NEAR(values[2], 0.0, 1e-12);
}

// --- Exact Shapley / Banzhaf ------------------------------------------------------

TEST(ExactShapleyTest, AdditiveGameGivesWorths) {
  LambdaUtility game = AdditiveGame({2.0, 3.0, -1.0, 0.0});
  std::vector<double> values = ExactShapleyValues(game).value();
  EXPECT_NEAR(values[0], 2.0, 1e-12);
  EXPECT_NEAR(values[1], 3.0, 1e-12);
  EXPECT_NEAR(values[2], -1.0, 1e-12);
  EXPECT_NEAR(values[3], 0.0, 1e-12);
}

TEST(ExactShapleyTest, EfficiencyAxiom) {
  // Non-additive game: v(S) = |S|^2.
  LambdaUtility game(5, [](const std::vector<size_t>& subset) {
    return static_cast<double>(subset.size() * subset.size());
  });
  std::vector<double> values = ExactShapleyValues(game).value();
  double total = std::accumulate(values.begin(), values.end(), 0.0);
  EXPECT_NEAR(total, 25.0, 1e-9);  // v(N) - v(empty) = 25 - 0.
}

TEST(ExactShapleyTest, SymmetryAxiom) {
  // Players 0 and 1 are interchangeable.
  LambdaUtility game(4, [](const std::vector<size_t>& subset) {
    bool has0 = std::find(subset.begin(), subset.end(), 0u) != subset.end();
    bool has1 = std::find(subset.begin(), subset.end(), 1u) != subset.end();
    return (has0 ? 1.0 : 0.0) + (has1 ? 1.0 : 0.0) +
           (has0 && has1 ? 3.0 : 0.0);
  });
  std::vector<double> values = ExactShapleyValues(game).value();
  EXPECT_NEAR(values[0], values[1], 1e-12);
  EXPECT_NEAR(values[2], 0.0, 1e-12);
  EXPECT_NEAR(values[3], 0.0, 1e-12);
}

TEST(ExactShapleyTest, RejectsLargeGames) {
  LambdaUtility game(30, [](const std::vector<size_t>&) { return 0.0; });
  EXPECT_FALSE(ExactShapleyValues(game).ok());
}

TEST(ExactBanzhafTest, AdditiveGameGivesWorths) {
  LambdaUtility game = AdditiveGame({1.5, -0.5});
  std::vector<double> values = ExactBanzhafValues(game).value();
  EXPECT_NEAR(values[0], 1.5, 1e-12);
  EXPECT_NEAR(values[1], -0.5, 1e-12);
}

TEST(ExactBanzhafTest, MajorityGameHandChecked) {
  // 3-player majority game: v(S) = 1 iff |S| >= 2. Banzhaf value of each
  // player: swings = subsets of others with exactly 1 member = 2 of 4.
  LambdaUtility game(3, [](const std::vector<size_t>& subset) {
    return subset.size() >= 2 ? 1.0 : 0.0;
  });
  std::vector<double> values = ExactBanzhafValues(game).value();
  for (double v : values) EXPECT_NEAR(v, 0.5, 1e-12);
}

// --- Monte-Carlo estimators ---------------------------------------------------------

TEST(TmcShapleyTest, MatchesExactOnSmallGame) {
  LambdaUtility game(6, [](const std::vector<size_t>& subset) {
    double v = 0.0;
    for (size_t i : subset) v += static_cast<double>(i + 1);
    return std::sqrt(v);  // Non-additive.
  });
  std::vector<double> exact = ExactShapleyValues(game).value();
  TmcShapleyOptions options;
  options.num_permutations = 4000;
  options.truncation_tolerance = 0.0;  // Unbiased.
  ImportanceEstimate estimate = TmcShapleyValues(game, options).value();
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(estimate.values[i], exact[i], 0.02) << "unit " << i;
  }
}

TEST(TmcShapleyTest, EfficiencyHoldsPerPermutationWithoutTruncation) {
  LambdaUtility game(5, [](const std::vector<size_t>& subset) {
    return static_cast<double>(subset.size() * subset.size());
  });
  TmcShapleyOptions options;
  options.num_permutations = 10;
  options.truncation_tolerance = 0.0;
  ImportanceEstimate estimate = TmcShapleyValues(game, options).value();
  double total =
      std::accumulate(estimate.values.begin(), estimate.values.end(), 0.0);
  EXPECT_NEAR(total, 25.0, 1e-9);  // Telescoping sum is exact per permutation.
}

TEST(TmcShapleyTest, TruncationReducesEvaluations) {
  MlDataset data = MakeBlobs({});
  Rng rng(3);
  SplitResult split = TrainTestSplit(data, 0.5, &rng);
  MlDataset small_train = split.train.Subset({0, 1, 2, 3, 4, 5, 6, 7, 8, 9,
                                              10, 11, 12, 13, 14, 15});
  auto factory = []() { return std::make_unique<KnnClassifier>(3); };
  TmcShapleyOptions no_trunc;
  no_trunc.num_permutations = 10;
  no_trunc.truncation_tolerance = 0.0;
  TmcShapleyOptions trunc = no_trunc;
  trunc.truncation_tolerance = 0.05;
  ModelAccuracyUtility u1(factory, small_train, split.test);
  ASSERT_TRUE(TmcShapleyValues(u1, no_trunc).ok());
  size_t full_evals = u1.num_evaluations();
  ModelAccuracyUtility u2(factory, small_train, split.test);
  ASSERT_TRUE(TmcShapleyValues(u2, trunc).ok());
  size_t truncated_evals = u2.num_evaluations();
  EXPECT_LT(truncated_evals, full_evals);
}

TEST(TmcShapleyTest, StdErrorsShrinkWithMorePermutations) {
  LambdaUtility game(6, [](const std::vector<size_t>& subset) {
    return subset.size() % 2 == 0 ? 0.0 : 1.0;  // High-variance marginals.
  });
  TmcShapleyOptions few;
  few.num_permutations = 50;
  few.truncation_tolerance = 0.0;
  TmcShapleyOptions many = few;
  many.num_permutations = 2000;
  double few_err = TmcShapleyValues(game, few).value().std_errors[0];
  double many_err = TmcShapleyValues(game, many).value().std_errors[0];
  EXPECT_LT(many_err, few_err);
}

TEST(BanzhafMsrTest, MatchesExactOnSmallGame) {
  LambdaUtility game(6, [](const std::vector<size_t>& subset) {
    double v = 0.0;
    for (size_t i : subset) v += static_cast<double>(i + 1);
    return v * v / 100.0;
  });
  std::vector<double> exact = ExactBanzhafValues(game).value();
  BanzhafOptions options;
  options.num_samples = 80000;
  ImportanceEstimate estimate = BanzhafValues(game, options).value();
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(estimate.values[i], exact[i], 0.02) << "unit " << i;
  }
}

// --- Beta Shapley --------------------------------------------------------------------

TEST(BetaShapleyTest, UnitParametersGiveUniformCardinalityWeights) {
  std::vector<double> weights = BetaShapleyCardinalityWeights(8, 1.0, 1.0);
  for (double w : weights) EXPECT_NEAR(w, 1.0 / 8.0, 1e-9);
}

TEST(BetaShapleyTest, LargeAlphaEmphasizesSmallCoalitions) {
  // Beta(16, 1) is the paper's noise-reduced recommendation: most of the
  // sampling mass sits on small coalitions.
  std::vector<double> weights = BetaShapleyCardinalityWeights(10, 16.0, 1.0);
  EXPECT_GT(weights.front(), weights.back());
  EXPECT_GT(weights[0], 0.2);
}

TEST(BetaShapleyTest, LargeBetaEmphasizesLargeCoalitions) {
  std::vector<double> weights = BetaShapleyCardinalityWeights(10, 1.0, 16.0);
  EXPECT_GT(weights.back(), weights.front());
}

TEST(BetaShapleyTest, Beta11MatchesExactShapley) {
  LambdaUtility game(5, [](const std::vector<size_t>& subset) {
    double v = 0.0;
    for (size_t i : subset) v += static_cast<double>(i + 1);
    return std::sqrt(v);
  });
  std::vector<double> exact = ExactShapleyValues(game).value();
  BetaShapleyOptions options;
  options.samples_per_unit = 4000;
  ImportanceEstimate estimate = BetaShapleyValues(game, options).value();
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(estimate.values[i], exact[i], 0.03) << "unit " << i;
  }
}

// --- KNN-Shapley ----------------------------------------------------------------------

TEST(KnnShapleyTest, MatchesExactEnumerationOfItsGame) {
  // Ground truth: exact Shapley values of the SoftKnnUtility game on a tiny
  // dataset, compared against the closed-form recurrence.
  BlobsOptions options;
  options.num_examples = 9;
  options.num_features = 3;
  options.seed = 5;
  MlDataset train = MakeBlobs(options);
  BlobsOptions val_options = options;
  val_options.num_examples = 6;
  val_options.seed = 6;
  MlDataset validation = MakeBlobs(val_options);

  for (size_t k : {1u, 3u}) {
    SoftKnnUtility game(train, validation, k);
    std::vector<double> exact = ExactShapleyValues(game).value();
    std::vector<double> closed_form =
        KnnShapleyValues(train, validation, k).value().values;
    ASSERT_EQ(exact.size(), closed_form.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_NEAR(closed_form[i], exact[i], 1e-9) << "k=" << k << " i=" << i;
    }
  }
}

TEST(KnnShapleyTest, EfficiencySumsToFullUtility) {
  MlDataset train = MakeBlobs({});
  BlobsOptions val_options;
  val_options.num_examples = 40;
  val_options.seed = 77;
  MlDataset validation = MakeBlobs(val_options);
  size_t k = 5;
  std::vector<double> values =
      KnnShapleyValues(train, validation, k).value().values;
  SoftKnnUtility game(train, validation, k);
  double total = std::accumulate(values.begin(), values.end(), 0.0);
  EXPECT_NEAR(total, game.FullUtility(), 1e-9);
}

TEST(KnnShapleyTest, FlippedLabelsGetLowValues) {
  DatasetSplits splits = LoadRecommendationLetters(400, 11);
  MlDataset dirty = splits.train;
  Rng rng(13);
  std::vector<size_t> corrupted = InjectLabelErrors(&dirty, 0.1, &rng);
  std::vector<double> values =
      KnnShapleyValues(dirty, splits.valid, 5).value().values;

  double corrupted_mean = 0.0;
  double clean_mean = 0.0;
  std::unordered_set<size_t> bad(corrupted.begin(), corrupted.end());
  size_t clean_count = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (bad.count(i) > 0) {
      corrupted_mean += values[i];
    } else {
      clean_mean += values[i];
      ++clean_count;
    }
  }
  corrupted_mean /= static_cast<double>(corrupted.size());
  clean_mean /= static_cast<double>(clean_count);
  EXPECT_LT(corrupted_mean, clean_mean);
  EXPECT_LT(corrupted_mean, 0.0);
}

// --- Influence functions ----------------------------------------------------------------

TEST(InfluenceTest, ApproximatesExactRemovalEffects) {
  BlobsOptions options;
  options.num_examples = 60;
  options.num_features = 3;
  options.separation = 2.0;
  options.noise = 1.2;
  MlDataset data = MakeBlobs(options);
  Rng rng(17);
  SplitResult split = TrainTestSplit(data, 0.4, &rng);

  InfluenceOptions influence_options;
  influence_options.l2 = 0.05;  // Stronger convexity = better approximation.
  std::vector<double> approx =
      InfluenceOnValidationLoss(split.train, split.test, influence_options)
          .value()
          .values;
  std::vector<double> exact =
      ExactRemovalLossChange(split.train, split.test, influence_options)
          .value();
  EXPECT_GT(PearsonCorrelation(approx, exact), 0.95);
}

TEST(InfluenceTest, FlippedLabelsGetNegativeInfluence) {
  DatasetSplits splits = LoadRecommendationLetters(300, 19);
  MlDataset dirty = splits.train;
  Rng rng(23);
  std::vector<size_t> corrupted = InjectLabelErrors(&dirty, 0.1, &rng);
  std::vector<double> values =
      InfluenceOnValidationLoss(dirty, splits.valid).value().values;
  double corrupted_mean = 0.0;
  for (size_t i : corrupted) corrupted_mean += values[i];
  corrupted_mean /= static_cast<double>(corrupted.size());
  double overall_mean =
      std::accumulate(values.begin(), values.end(), 0.0) / values.size();
  EXPECT_LT(corrupted_mean, overall_mean);
}

TEST(InfluenceTest, RejectsNonBinaryLabels) {
  BlobsOptions options;
  options.num_classes = 3;
  MlDataset data = MakeBlobs(options);
  EXPECT_FALSE(InfluenceOnValidationLoss(data, data).ok());
}

/// A binary problem with `d` features whose labels follow a noisy linear
/// rule, so every Newton step moves the fit.
MlDataset NoisyLinearProblem(size_t rows, size_t d, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> beta(d);
  for (double& b : beta) b = rng.NextGaussian();
  MlDataset data;
  data.features = Matrix(rows, d);
  for (size_t i = 0; i < rows; ++i) {
    double score = rng.NextGaussian();
    for (size_t j = 0; j < d; ++j) {
      data.features(i, j) = rng.NextGaussian(j % 3 == 0 ? 1.0 : 0.0, 1.0);
      score += beta[j] * data.features(i, j);
    }
    data.labels.push_back(score > 0.0 ? 1 : 0);
  }
  return data;
}

/// Sets the process-default thread count for one scope.
class ScopedDefaultThreads {
 public:
  explicit ScopedDefaultThreads(size_t threads) {
    SetDefaultNumThreads(threads);
  }
  ~ScopedDefaultThreads() { SetDefaultNumThreads(0); }
};

/// The fanned-out Newton and optimum passes against the serial loop they
/// replaced (tests/influence_reference.h): the same bits at any thread count.
/// p is the design's width (features + intercept): odd and even, under and
/// over one row pair per band; n covers one row, n mod 4 != 0, and designs
/// just over one and two kRowBlock blocks.
TEST(InfluenceTest, FanOutMatchesTheSerialReferenceBitForBit) {
  for (size_t p : {2, 3, 8, 9, 42, 43}) {
    for (size_t n : {1, 3, 4097, 8195}) {
      MlDataset train = NoisyLinearProblem(n, p - 1, 31 * p + n);
      MlDataset validation = NoisyLinearProblem(37, p - 1, 7 * p + n);
      InfluenceOptions options;
      Result<std::vector<double>> reference =
          influence_reference::InfluenceOnValidationLoss(train, validation,
                                                         options);
      for (size_t threads : {1, 2, 3, 8}) {
        SCOPED_TRACE(StrFormat("p=%zu n=%zu threads=%zu", p, n, threads));
        ScopedDefaultThreads scope(threads);
        Result<ImportanceEstimate> fanned =
            InfluenceOnValidationLoss(train, validation, options);
        ASSERT_EQ(fanned.ok(), reference.ok());
        if (!reference.ok()) {
          EXPECT_EQ(fanned.status().ToString(),
                    reference.status().ToString());
          continue;
        }
        ASSERT_EQ(fanned->values.size(), reference->size());
        EXPECT_EQ(std::memcmp(fanned->values.data(), reference->data(),
                              reference->size() * sizeof(double)),
                  0);
        EXPECT_EQ(fanned->num_threads_used,
                  PlannedNumThreads(NumRowBlocks(n), threads));
      }
    }
  }
}

// --- Label scores -------------------------------------------------------------------------

TEST(AumScoresTest, FlippedLabelsGetLowMargins) {
  DatasetSplits splits = LoadRecommendationLetters(300, 29);
  MlDataset dirty = splits.train;
  Rng rng(31);
  std::vector<size_t> corrupted = InjectLabelErrors(&dirty, 0.1, &rng);
  std::vector<double> scores = AumScores(dirty).value();
  double corrupted_mean = 0.0;
  double clean_mean = 0.0;
  std::unordered_set<size_t> bad(corrupted.begin(), corrupted.end());
  size_t clean_count = 0;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (bad.count(i) > 0) {
      corrupted_mean += scores[i];
    } else {
      clean_mean += scores[i];
      ++clean_count;
    }
  }
  corrupted_mean /= static_cast<double>(corrupted.size());
  clean_mean /= static_cast<double>(clean_count);
  EXPECT_LT(corrupted_mean, clean_mean);
}

TEST(SelfConfidenceTest, FlippedLabelsGetLowConfidence) {
  DatasetSplits splits = LoadRecommendationLetters(300, 37);
  MlDataset dirty = splits.train;
  Rng rng(41);
  std::vector<size_t> corrupted = InjectLabelErrors(&dirty, 0.1, &rng);
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  std::vector<double> scores = SelfConfidenceScores(factory, dirty).value();
  double corrupted_mean = 0.0;
  for (size_t i : corrupted) corrupted_mean += scores[i];
  corrupted_mean /= static_cast<double>(corrupted.size());
  double overall =
      std::accumulate(scores.begin(), scores.end(), 0.0) / scores.size();
  EXPECT_LT(corrupted_mean, overall);
}

TEST(SelfConfidenceTest, RejectsBadFoldConfig) {
  MlDataset data = MakeBlobs({});
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  SelfConfidenceOptions options;
  options.num_folds = 1;
  EXPECT_FALSE(SelfConfidenceScores(factory, data, options).ok());
}

TEST(ConfidentLearningTest, SuspectsAreBelowClassMean) {
  std::vector<double> confidence = {0.9, 0.2, 0.8, 0.3};
  std::vector<int> labels = {0, 0, 1, 1};
  std::vector<size_t> suspects = ConfidentLearningSuspects(confidence, labels);
  EXPECT_EQ(suspects, (std::vector<size_t>{1, 3}));
}

TEST(ConfidentLearningTest, CatchesInjectedFlipsWellAboveChance) {
  DatasetSplits splits = LoadRecommendationLetters(300, 43);
  MlDataset dirty = splits.train;
  Rng rng(47);
  std::vector<size_t> corrupted = InjectLabelErrors(&dirty, 0.1, &rng);
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  std::vector<double> scores = SelfConfidenceScores(factory, dirty).value();
  std::vector<size_t> suspects =
      ConfidentLearningSuspects(scores, dirty.labels);
  std::unordered_set<size_t> suspect_set(suspects.begin(), suspects.end());
  size_t caught = 0;
  for (size_t i : corrupted) {
    if (suspect_set.count(i) > 0) ++caught;
  }
  double recall = static_cast<double>(caught) / corrupted.size();
  EXPECT_GT(recall, 0.7);
}

// --- Fairness debugging (Gopher-style) -------------------------------------------------------

TEST(FairnessDebuggingTest, FindsPlantedBiasedGroup) {
  // Training rows of group "b" have most of their positive labels flipped to
  // negative; the protected attribute is visible as a feature, so the model
  // learns the bias and violates equalized odds on clean validation data.
  // Removing the pattern g=b should give the largest fairness improvement.
  Rng rng(59);
  auto make_dataset = [&rng](size_t n, bool biased,
                             std::vector<std::string>* group_values,
                             std::vector<int>* groups) {
    MlDataset data;
    data.features = Matrix(n, 3);
    data.labels.resize(n);
    for (size_t i = 0; i < n; ++i) {
      int group = rng.NextBernoulli(0.5) ? 1 : 0;
      int label = rng.NextBernoulli(0.5) ? 1 : 0;
      data.features(i, 0) = static_cast<double>(group);
      double direction = label == 1 ? 1.5 : -1.5;
      data.features(i, 1) = direction + 0.5 * rng.NextGaussian();
      data.features(i, 2) = direction + 0.5 * rng.NextGaussian();
      if (biased && group == 1 && label == 1 && rng.NextBernoulli(0.8)) {
        label = 0;  // Systematic label bias against group 1 ("b").
      }
      data.labels[i] = label;
      if (group_values != nullptr) {
        group_values->push_back(group == 1 ? "b" : "a");
      }
      if (groups != nullptr) groups->push_back(group);
    }
    return data;
  };

  std::vector<std::string> group_values;
  MlDataset train = make_dataset(240, /*biased=*/true, &group_values, nullptr);
  std::vector<int> val_groups;
  MlDataset validation =
      make_dataset(120, /*biased=*/false, nullptr, &val_groups);
  Table attributes = TableBuilder().AddStringColumn("g", group_values).Build();

  GopherOptions gopher;
  gopher.max_conditions = 1;
  gopher.top_k = 3;
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  std::vector<FairnessPattern> patterns =
      ExplainFairness(factory, train, attributes, validation, val_groups,
                      gopher)
          .value();
  ASSERT_FALSE(patterns.empty());
  EXPECT_EQ(patterns.front().conditions.front(), "g=b");
}

TEST(FairnessDebuggingTest, RejectsMisalignedInputs) {
  MlDataset train = MakeBlobs({});
  Table attributes = TableBuilder().AddStringColumn("g", {"a"}).Build();
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  EXPECT_FALSE(
      ExplainFairness(factory, train, attributes, train, {}).ok());
}

// --- ModelAccuracyUtility -----------------------------------------------------------------

TEST(ModelAccuracyUtilityTest, EmptySubsetIsRandomGuess) {
  MlDataset data = MakeBlobs({});
  auto factory = []() { return std::make_unique<KnnClassifier>(3); };
  ModelAccuracyUtility utility(factory, data, data);
  EXPECT_NEAR(utility.EmptyUtility(), 0.5, 1e-12);
}

TEST(ModelAccuracyUtilityTest, FullUtilityIsTrainedAccuracy) {
  MlDataset data = MakeBlobs({});
  Rng rng(61);
  SplitResult split = TrainTestSplit(data, 0.3, &rng);
  auto factory = []() { return std::make_unique<KnnClassifier>(3); };
  ModelAccuracyUtility utility(factory, split.train, split.test);
  double direct = TrainAndScore(factory, split.train, split.test).value();
  EXPECT_NEAR(utility.FullUtility(), direct, 1e-12);
  EXPECT_GE(utility.num_evaluations(), 1u);
}

TEST(ModelAccuracyUtilityTest, ZeroCopyViewsMatchMaterializedSubsets) {
  // The FitView contract: identical doubles whether the coalition is
  // materialized or trained through the index view, for models with a real
  // FitView override (KNN, logreg) and for ones using the default.
  BlobsOptions options;
  options.num_examples = 20;
  options.num_features = 3;
  options.seed = 23;
  MlDataset train = MakeBlobs(options);
  BlobsOptions val_options = options;
  val_options.num_examples = 10;
  val_options.seed = 24;
  MlDataset validation = MakeBlobs(val_options);

  std::vector<ClassifierFactory> factories = {
      []() { return std::make_unique<KnnClassifier>(3); },
      []() {
        LogisticRegressionOptions lr;
        lr.epochs = 25;
        return std::make_unique<LogisticRegression>(lr);
      }};
  const int num_classes =
      std::max({train.NumClasses(), validation.NumClasses(), 2});

  Rng rng(71);
  for (const ClassifierFactory& factory : factories) {
    ModelAccuracyUtility with_views(factory, train, validation);
    for (size_t trial = 0; trial < 12; ++trial) {
      size_t size = 1 + rng.NextBounded(train.size() - 1);
      std::vector<size_t> picks = rng.SampleWithoutReplacement(train.size(), size);
      std::sort(picks.begin(), picks.end());
      std::unique_ptr<Classifier> materialized = factory();
      ASSERT_TRUE(
          materialized->FitWithClasses(train.Subset(picks), num_classes).ok());
      EXPECT_EQ(with_views.Evaluate(picks),
                Accuracy(validation.labels,
                         materialized->Predict(validation.features)))
          << "trial " << trial;
    }
  }
}

TEST(ModelAccuracyUtilityTest, BuiltContextServesKnnFullSetButNotNb) {
  // Once the scorer context is built (the estimators' prelude), v(N) comes
  // from it — training no model — only where the context ReplacesColdFit:
  // KNN's kernel. Gaussian NB keeps the cold fit (its scorer recomputes the
  // pushed class's moments over all members on every Add, so a full set
  // through it is quadratic in n). Every value equals the cold one.
  BlobsOptions options;
  options.num_examples = 30;
  options.seed = 41;
  options.center_seed = 5;
  MlDataset train = MakeBlobs(options);
  options.num_examples = 10;
  options.seed = 42;
  MlDataset validation = MakeBlobs(options);

  ClassifierFactory knn = [] { return std::make_unique<KnnClassifier>(3); };
  ClassifierFactory nb = [] { return std::make_unique<GaussianNaiveBayes>(); };
  struct Case {
    const char* name;
    ClassifierFactory model;
    bool served_from_context;
  };
  for (const Case& c :
       {Case{"knn", knn, true}, Case{"gaussian_nb", nb, false}}) {
    size_t models = 0;
    ModelAccuracyUtility utility(
        [&models, &c] {
          ++models;
          return c.model();
        },
        train, validation);
    ASSERT_TRUE(utility.Prepare(2).ok()) << c.name;
    size_t after_build = models;
    double full = utility.FullUtility();
    EXPECT_EQ(models - after_build, c.served_from_context ? 0u : 1u)
        << c.name;
    ModelAccuracyUtility cold(c.model, train, validation);
    EXPECT_EQ(full, cold.FullUtility()) << c.name;
  }
}

// --- SoftKnnUtility fast membership -------------------------------------------------------

/// Reference re-implementation of SoftKnnUtility::Evaluate as it was before
/// the epoch-stamped membership vector: per-call unordered_set, same
/// summation order, so results must match bit for bit.
double ReferenceSoftKnnEvaluate(const MlDataset& train,
                                const MlDataset& validation, size_t k,
                                const std::vector<size_t>& subset) {
  if (subset.empty() || validation.size() == 0) return 0.0;
  std::unordered_set<size_t> members(subset.begin(), subset.end());
  double total = 0.0;
  for (size_t v = 0; v < validation.size(); ++v) {
    // Distance order with the same (distance, index) tie-break.
    size_t n = train.size();
    std::vector<double> dist(n);
    for (size_t i = 0; i < n; ++i) {
      const double* row = train.features.RowPtr(i);
      const double* query = validation.features.RowPtr(v);
      double acc = 0.0;
      for (size_t c = 0; c < train.features.cols(); ++c) {
        double diff = row[c] - query[c];
        acc += diff * diff;
      }
      dist[i] = acc;
    }
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&dist](size_t a, size_t b) {
      if (dist[a] != dist[b]) return dist[a] < dist[b];
      return a < b;
    });
    int y = validation.labels[v];
    size_t taken = 0;
    double hits = 0.0;
    for (size_t idx : order) {
      if (members.find(idx) == members.end()) continue;
      if (train.labels[idx] == y) hits += 1.0;
      if (++taken >= k) break;
    }
    total += hits / static_cast<double>(k);
  }
  return total / static_cast<double>(validation.size());
}

TEST(KnnShapleyTest, SoftKnnEpochMembershipMatchesSetReference) {
  BlobsOptions options;
  options.num_examples = 18;
  options.num_features = 3;
  options.seed = 41;
  MlDataset train = MakeBlobs(options);
  options.num_examples = 7;
  options.seed = 42;
  MlDataset validation = MakeBlobs(options);

  for (size_t k : {1u, 3u, 5u}) {
    SoftKnnUtility game(train, validation, k);
    Rng rng(55);
    for (size_t trial = 0; trial < 25; ++trial) {
      size_t size = 1 + rng.NextBounded(train.size() - 1);
      std::vector<size_t> picks =
          rng.SampleWithoutReplacement(train.size(), size);
      std::sort(picks.begin(), picks.end());
      EXPECT_EQ(game.Evaluate(picks),
                ReferenceSoftKnnEvaluate(train, validation, k, picks))
          << "k=" << k << " trial=" << trial;
    }
    EXPECT_EQ(game.Evaluate({}), 0.0);
  }
}

}  // namespace
}  // namespace nde
