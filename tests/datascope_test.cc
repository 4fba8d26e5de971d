#include <algorithm>
#include <memory>
#include <numeric>
#include <unordered_set>

#include <gtest/gtest.h>

#include "datagen/synthetic.h"
#include "datascope/datascope.h"
#include "importance/game_values.h"
#include "importance/knn_shapley.h"
#include "ml/knn.h"
#include "pipeline/encoders.h"

namespace nde {
namespace {

/// A tiny single-source pipeline: identity plan + numeric encoding, so
/// source-tuple importance is directly comparable to flat-dataset methods.
struct FlatPipelineFixture {
  MlPipeline pipeline;
  PipelineOutput output;
  Table validation_table;

  static FlatPipelineFixture Make(size_t n, uint64_t seed,
                                  double label_error_fraction,
                                  std::vector<size_t>* corrupted,
                                  size_t validation_rows = 60) {
    Rng rng(seed);
    auto make_table = [&rng](size_t rows) {
      std::vector<double> f0(rows);
      std::vector<double> f1(rows);
      std::vector<int64_t> labels(rows);
      for (size_t i = 0; i < rows; ++i) {
        int label = rng.NextBernoulli(0.5) ? 1 : 0;
        double direction = label == 1 ? 1.5 : -1.5;
        f0[i] = direction + 0.6 * rng.NextGaussian();
        f1[i] = direction + 0.6 * rng.NextGaussian();
        labels[i] = label;
      }
      return TableBuilder()
          .AddDoubleColumn("f0", f0)
          .AddDoubleColumn("f1", f1)
          .AddInt64Column("label", labels)
          .Build();
    };
    Table train = make_table(n);
    Table validation = make_table(validation_rows);
    if (label_error_fraction > 0.0) {
      Result<std::vector<size_t>> flipped =
          InjectLabelErrorsTable(&train, "label", label_error_fraction, &rng);
      NDE_CHECK(flipped.ok());
      if (corrupted != nullptr) *corrupted = flipped.value();
    }
    ColumnTransformer transformer;
    transformer.Add("f0", std::make_unique<NumericEncoder>(false));
    transformer.Add("f1", std::make_unique<NumericEncoder>(false));
    MlPipeline pipeline(
        {{"train", train}},
        [](const std::vector<PlanNodePtr>& s) { return s[0]; },
        std::move(transformer), "label");
    PipelineOutput output = pipeline.Run().value();
    return FlatPipelineFixture{std::move(pipeline), std::move(output),
                               std::move(validation)};
  }
};

TEST(EncodeValidationTest, UsesFittedEncoders) {
  FlatPipelineFixture fixture = FlatPipelineFixture::Make(40, 3, 0.0, nullptr);
  MlDataset validation =
      EncodeValidation(fixture.output, fixture.validation_table, "label")
          .value();
  EXPECT_EQ(validation.size(), 60u);
  EXPECT_EQ(validation.num_features(), fixture.output.features.cols());
  // NumericEncoder(false) passes values through; check a cell.
  EXPECT_NEAR(validation.features(0, 0),
              fixture.validation_table.At(0, 0).as_double(), 1e-12);
}

TEST(EncodeValidationTest, RejectsUnfittedOrBadLabel) {
  FlatPipelineFixture fixture = FlatPipelineFixture::Make(20, 5, 0.0, nullptr);
  EXPECT_FALSE(
      EncodeValidation(fixture.output, fixture.validation_table, "nope").ok());
  PipelineOutput unfitted;
  EXPECT_EQ(EncodeValidation(unfitted, fixture.validation_table, "label")
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(KnnShapleyOverPipelineTest, IdentityPipelineMatchesFlatKnnShapley) {
  FlatPipelineFixture fixture = FlatPipelineFixture::Make(50, 7, 0.1, nullptr);
  MlDataset validation =
      EncodeValidation(fixture.output, fixture.validation_table, "label")
          .value();
  std::vector<double> pipeline_values =
      KnnShapleyOverPipeline(fixture.output, validation, /*table=*/0,
                             fixture.pipeline.sources()[0].table.num_rows(),
                             /*k=*/3)
          .value()
          .values;
  std::vector<double> flat_values =
      KnnShapleyValues(fixture.output.ToDataset(), validation, 3)
          .value()
          .values;
  ASSERT_EQ(pipeline_values.size(), flat_values.size());
  for (size_t i = 0; i < flat_values.size(); ++i) {
    EXPECT_NEAR(pipeline_values[i], flat_values[i], 1e-12);
  }
}

TEST(KnnShapleyOverPipelineTest, CorruptedSourceRowsScoreLow) {
  std::vector<size_t> corrupted;
  FlatPipelineFixture fixture =
      FlatPipelineFixture::Make(200, 11, 0.1, &corrupted);
  ASSERT_FALSE(corrupted.empty());
  MlDataset validation =
      EncodeValidation(fixture.output, fixture.validation_table, "label")
          .value();
  std::vector<double> values =
      KnnShapleyOverPipeline(fixture.output, validation, 0,
                             fixture.pipeline.sources()[0].table.num_rows(), 5)
          .value()
          .values;
  double corrupted_mean = 0.0;
  for (size_t i : corrupted) corrupted_mean += values[i];
  corrupted_mean /= static_cast<double>(corrupted.size());
  double overall =
      std::accumulate(values.begin(), values.end(), 0.0) / values.size();
  EXPECT_LT(corrupted_mean, overall);
}

TEST(KnnShapleyOverPipelineTest, JoinFanOutAggregatesChildValues) {
  // One source row fans out to several output rows via a join; its
  // importance must equal the sum of its derived rows' values.
  Table left = TableBuilder()
                   .AddInt64Column("k", {1, 2})
                   .AddDoubleColumn("f", {-1.0, 1.0})
                   .AddInt64Column("label", {0, 1})
                   .Build();
  Table right = TableBuilder()
                    .AddInt64Column("k2", {1, 1, 1, 2})
                    .AddDoubleColumn("g", {-1.1, -0.9, -1.0, 1.0})
                    .Build();
  ColumnTransformer transformer;
  transformer.Add("f", std::make_unique<NumericEncoder>(false));
  transformer.Add("g", std::make_unique<NumericEncoder>(false));
  MlPipeline pipeline(
      {{"left", left}, {"right", right}},
      [](const std::vector<PlanNodePtr>& s) {
        return MakeHashJoin(s[0], s[1], "k", "k2");
      },
      std::move(transformer), "label");
  PipelineOutput output = pipeline.Run().value();
  ASSERT_EQ(output.size(), 4u);

  MlDataset validation;
  validation.features = Matrix::FromRows({{-1.0, -1.0}, {1.0, 1.0}});
  validation.labels = {0, 1};

  std::vector<double> output_values =
      KnnShapleyValues(output.ToDataset(), validation, 1).value().values;
  std::vector<double> left_values =
      KnnShapleyOverPipeline(output, validation, 0, 2, 1).value().values;
  // Left row 0 feeds the three join results with k=1.
  double expected_row0 = 0.0;
  for (size_t r = 0; r < output.size(); ++r) {
    const SourceRef* ref = output.provenance[r].FindTableRef(0);
    ASSERT_NE(ref, nullptr);
    if (ref->row_id == 0) expected_row0 += output_values[r];
  }
  EXPECT_NEAR(left_values[0], expected_row0, 1e-12);
}

TEST(PipelineSourceUtilityTest, FullCoalitionMatchesDirectTraining) {
  FlatPipelineFixture fixture = FlatPipelineFixture::Make(60, 13, 0.0, nullptr);
  MlDataset validation =
      EncodeValidation(fixture.output, fixture.validation_table, "label")
          .value();
  auto factory = []() { return std::make_unique<KnnClassifier>(3); };
  PipelineSourceUtility utility(&fixture.pipeline, 0, factory, validation);
  EXPECT_EQ(utility.num_units(), 60u);

  double full = utility.FullUtility();
  double direct =
      TrainAndScore(factory, fixture.output.ToDataset(), validation).value();
  EXPECT_NEAR(full, direct, 1e-12);
  EXPECT_NEAR(utility.EmptyUtility(), 0.5, 1e-12);
}

TEST(PipelineSourceUtilityTest, LooOverPipelineDetectsHarmfulSource) {
  std::vector<size_t> corrupted;
  FlatPipelineFixture fixture =
      FlatPipelineFixture::Make(40, 17, 0.15, &corrupted);
  ASSERT_FALSE(corrupted.empty());
  MlDataset validation =
      EncodeValidation(fixture.output, fixture.validation_table, "label")
          .value();
  auto factory = []() { return std::make_unique<KnnClassifier>(3); };
  PipelineSourceUtility utility(&fixture.pipeline, 0, factory, validation);
  std::vector<double> loo = LeaveOneOutValues(utility).value().values;
  double corrupted_mean = 0.0;
  for (size_t i : corrupted) corrupted_mean += loo[i];
  corrupted_mean /= static_cast<double>(corrupted.size());
  double overall = std::accumulate(loo.begin(), loo.end(), 0.0) / loo.size();
  EXPECT_LE(corrupted_mean, overall);
}

TEST(EvaluateSourceRemovalTest, FastAndFullPathsAgreeOnRowLocalPipeline) {
  std::vector<size_t> corrupted;
  FlatPipelineFixture fixture =
      FlatPipelineFixture::Make(120, 19, 0.15, &corrupted);
  MlDataset validation =
      EncodeValidation(fixture.output, fixture.validation_table, "label")
          .value();
  auto factory = []() { return std::make_unique<KnnClassifier>(3); };
  std::vector<SourceRef> removed;
  for (size_t i = 0; i < std::min<size_t>(corrupted.size(), 10); ++i) {
    removed.push_back(SourceRef{0, static_cast<uint32_t>(corrupted[i])});
  }
  RemovalImpact fast = EvaluateSourceRemoval(fixture.pipeline, fixture.output,
                                             factory, validation, removed,
                                             /*fast_path=*/true)
                           .value();
  RemovalImpact slow = EvaluateSourceRemoval(fixture.pipeline, fixture.output,
                                             factory, validation, removed,
                                             /*fast_path=*/false)
                           .value();
  EXPECT_EQ(fast.output_rows_removed, removed.size());
  EXPECT_NEAR(fast.new_accuracy, slow.new_accuracy, 1e-12);
  EXPECT_NEAR(fast.accuracy_change, slow.accuracy_change, 1e-12);
}

TEST(EvaluateSourceRemovalTest, RemovingCorruptedRowsBeatsRemovingCleanRows) {
  std::vector<size_t> corrupted;
  FlatPipelineFixture fixture = FlatPipelineFixture::Make(
      200, 23, 0.2, &corrupted, /*validation_rows=*/300);
  MlDataset validation =
      EncodeValidation(fixture.output, fixture.validation_table, "label")
          .value();
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };

  std::vector<SourceRef> bad_removals;
  std::unordered_set<size_t> corrupted_set(corrupted.begin(), corrupted.end());
  for (size_t i : corrupted) {
    bad_removals.push_back(SourceRef{0, static_cast<uint32_t>(i)});
  }
  // Control: remove the same number of provably clean rows.
  std::vector<SourceRef> clean_removals;
  for (size_t i = 0; i < 200 && clean_removals.size() < bad_removals.size();
       ++i) {
    if (corrupted_set.count(i) == 0) {
      clean_removals.push_back(SourceRef{0, static_cast<uint32_t>(i)});
    }
  }
  double informed = EvaluateSourceRemoval(fixture.pipeline, fixture.output,
                                          factory, validation, bad_removals)
                        .value()
                        .accuracy_change;
  double control = EvaluateSourceRemoval(fixture.pipeline, fixture.output,
                                         factory, validation, clean_removals)
                       .value()
                       .accuracy_change;
  EXPECT_GT(informed, control);
  EXPECT_GT(informed, 0.0);
}

TEST(EvaluateSourceRemovalTest, RemovingEverythingFails) {
  FlatPipelineFixture fixture = FlatPipelineFixture::Make(10, 31, 0.0, nullptr);
  MlDataset validation =
      EncodeValidation(fixture.output, fixture.validation_table, "label")
          .value();
  std::vector<SourceRef> all;
  for (uint32_t i = 0; i < 10; ++i) all.push_back(SourceRef{0, i});
  auto factory = []() { return std::make_unique<KnnClassifier>(3); };
  EXPECT_FALSE(EvaluateSourceRemoval(fixture.pipeline, fixture.output, factory,
                                     validation, all)
                   .ok());
}

}  // namespace
}  // namespace nde
