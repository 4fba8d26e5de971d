#include <cmath>
#include <limits>
#include <memory>

#include <gtest/gtest.h>

#include "cleaning/imputation.h"
#include "common/rng.h"
#include "data/table.h"

namespace nde {
namespace {

std::vector<Value> DoubleColumn(std::vector<double> values,
                                std::vector<size_t> nulls = {}) {
  std::vector<Value> out;
  out.reserve(values.size());
  for (double v : values) out.emplace_back(v);
  for (size_t i : nulls) out[i] = Value::Null();
  return out;
}

TEST(MeanImputerTest, FillsWithObservedMean) {
  MeanImputer imputer;
  ASSERT_TRUE(imputer.Fit(DoubleColumn({1.0, 3.0, 5.0}, {1})).ok());
  // Mean of {1, 5} = 3.
  EXPECT_EQ(imputer.FillValue().as_double(), 3.0);
}

TEST(MeanImputerTest, IntColumnsStayInt) {
  MeanImputer imputer;
  std::vector<Value> column = {Value(1), Value(2), Value::Null()};
  ASSERT_TRUE(imputer.Fit(column).ok());
  EXPECT_TRUE(imputer.FillValue().is_int64());
  EXPECT_EQ(imputer.FillValue().as_int64(), 2);  // round(1.5)
}

TEST(MeanImputerTest, RejectsStringsAndAllNull) {
  MeanImputer imputer;
  EXPECT_FALSE(imputer.Fit({Value("x")}).ok());
  EXPECT_FALSE(imputer.Fit({Value::Null()}).ok());
}

TEST(MedianImputerTest, OddAndEvenCounts) {
  MedianImputer odd;
  ASSERT_TRUE(odd.Fit(DoubleColumn({5.0, 1.0, 100.0})).ok());
  EXPECT_EQ(odd.FillValue().as_double(), 5.0);

  MedianImputer even;
  ASSERT_TRUE(even.Fit(DoubleColumn({1.0, 2.0, 3.0, 100.0})).ok());
  EXPECT_EQ(even.FillValue().as_double(), 2.5);
}

TEST(MedianImputerTest, RobustToOutliers) {
  MeanImputer mean;
  MedianImputer median;
  std::vector<Value> column = DoubleColumn({1.0, 1.0, 1.0, 1.0, 1000.0});
  ASSERT_TRUE(mean.Fit(column).ok());
  ASSERT_TRUE(median.Fit(column).ok());
  EXPECT_GT(mean.FillValue().as_double(), 100.0);
  EXPECT_EQ(median.FillValue().as_double(), 1.0);
}

TEST(MostFrequentImputerTest, PicksModeWithDeterministicTies) {
  MostFrequentImputer imputer;
  std::vector<Value> column = {Value("b"), Value("a"), Value("b"),
                               Value::Null(), Value("a")};
  ASSERT_TRUE(imputer.Fit(column).ok());
  EXPECT_EQ(imputer.FillValue().as_string(), "a");  // Tie: smaller value.
}

TEST(MostFrequentImputerTest, WorksOnIntColumns) {
  MostFrequentImputer imputer;
  ASSERT_TRUE(imputer.Fit({Value(7), Value(7), Value(9)}).ok());
  EXPECT_EQ(imputer.FillValue().as_int64(), 7);
}

TEST(ImputeColumnTest, RepairsAllNullsAndReportsRows) {
  Table t = TableBuilder()
                .AddValueColumn("v", DataType::kDouble,
                                DoubleColumn({1.0, 2.0, 3.0, 4.0}, {1, 3}))
                .Build();
  MeanImputer imputer;
  std::vector<size_t> repaired = ImputeColumn(&t, "v", &imputer).value();
  EXPECT_EQ(repaired, (std::vector<size_t>{1, 3}));
  EXPECT_EQ(t.CountNulls(0), 0u);
  EXPECT_EQ(t.At(1, 0).as_double(), 2.0);  // Mean of {1, 3}.
}

TEST(ImputeColumnTest, UnknownColumnFails) {
  Table t = TableBuilder().AddDoubleColumn("v", {1.0}).Build();
  MeanImputer imputer;
  EXPECT_FALSE(ImputeColumn(&t, "nope", &imputer).ok());
}

TEST(KnnImputeTest, UsesNearestNeighborsValues) {
  // Two clusters: feature f near 0 -> target ~10; f near 100 -> target ~20.
  Table t = TableBuilder()
                .AddDoubleColumn("f", {0.0, 1.0, 2.0, 100.0, 101.0, 0.5, 99.0})
                .AddValueColumn("target", DataType::kDouble,
                                DoubleColumn({10.0, 10.5, 9.5, 20.0, 20.5,
                                              0.0, 0.0},
                                             {5, 6}))
                .Build();
  std::vector<size_t> repaired =
      KnnImputeColumn(&t, "target", {"f"}, 2).value();
  EXPECT_EQ(repaired, (std::vector<size_t>{5, 6}));
  // Row 5 (f=0.5) should take values from the low cluster.
  EXPECT_NEAR(t.At(5, 1).as_double(), 10.0, 1.0);
  // Row 6 (f=99) from the high cluster.
  EXPECT_NEAR(t.At(6, 1).as_double(), 20.0, 1.0);
}

TEST(KnnImputeTest, BeatsMeanImputationOnStructuredData) {
  // Ground truth: target = f; MCAR holes; KNN recovers locally, mean cannot.
  Rng rng(7);
  std::vector<double> f(200);
  std::vector<Value> target(200);
  for (size_t i = 0; i < 200; ++i) {
    f[i] = rng.NextUniform(0, 100);
    target[i] = Value(f[i]);
  }
  std::vector<size_t> holes = rng.SampleWithoutReplacement(200, 40);
  for (size_t i : holes) target[i] = Value::Null();

  Table knn_table = TableBuilder()
                        .AddDoubleColumn("f", f)
                        .AddValueColumn("target", DataType::kDouble, target)
                        .Build();
  Table mean_table = knn_table;
  ASSERT_TRUE(KnnImputeColumn(&knn_table, "target", {"f"}, 3).ok());
  MeanImputer mean;
  ASSERT_TRUE(ImputeColumn(&mean_table, "target", &mean).ok());

  double knn_error = 0.0;
  double mean_error = 0.0;
  for (size_t i : holes) {
    knn_error += std::fabs(knn_table.At(i, 1).as_double() - f[i]);
    mean_error += std::fabs(mean_table.At(i, 1).as_double() - f[i]);
  }
  EXPECT_LT(knn_error, mean_error / 5.0);
}

TEST(KnnImputeTest, NanDistancesRankAfterEveryNumber) {
  // `nan` cells parse as NaN, so rows 0 and 4 are at NaN distance from row 6:
  // the two nearest donors are rows 2 and 3 (distances 1 and 4).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Table t = TableBuilder()
                .AddDoubleColumn("f", {nan, 5.0, 1.0, 2.0, nan, 3.0, 0.0})
                .AddValueColumn("target", DataType::kDouble,
                                DoubleColumn({100.0, 5.0, 1.0, 2.0, 100.0, 3.0,
                                              0.0},
                                             {6}))
                .Build();
  ASSERT_TRUE(KnnImputeColumn(&t, "target", {"f"}, 2).ok());
  EXPECT_EQ(t.At(6, 1).as_double(), 1.5);
}

TEST(KnnImputeTest, InfinityMinusInfinityRanksLast) {
  // Row 5's feature is inf: inf - inf is NaN for rows 0 and 3, and every
  // other donor is at distance +inf, so ties by row pick rows 1 and 2.
  const double inf = std::numeric_limits<double>::infinity();
  Table t = TableBuilder()
                .AddDoubleColumn("f", {inf, 5.0, 1.0, inf, 2.0, inf})
                .AddValueColumn("target", DataType::kDouble,
                                DoubleColumn({7.0, 5.0, 1.0, 9.0, 2.0, 0.0},
                                             {5}))
                .Build();
  ASSERT_TRUE(KnnImputeColumn(&t, "target", {"f"}, 2).ok());
  EXPECT_EQ(t.At(5, 1).as_double(), 3.0);
}

TEST(KnnImputeTest, Validation) {
  Table t = TableBuilder()
                .AddStringColumn("s", {"a"})
                .AddDoubleColumn("v", {1.0})
                .Build();
  EXPECT_FALSE(KnnImputeColumn(&t, "s", {"v"}, 3).ok());   // String target.
  EXPECT_FALSE(KnnImputeColumn(&t, "v", {"s"}, 3).ok());   // String feature.
  EXPECT_FALSE(KnnImputeColumn(&t, "v", {}, 3).ok());      // No features.
  EXPECT_FALSE(KnnImputeColumn(&t, "v", {"v"}, 0).ok());   // k == 0.
  EXPECT_FALSE(KnnImputeColumn(nullptr, "v", {"v"}, 1).ok());
}

TEST(KnnImputeTest, NoDonorsFails) {
  Table t = TableBuilder()
                .AddDoubleColumn("f", {1.0, 2.0})
                .AddValueColumn("target", DataType::kDouble,
                                {Value::Null(), Value::Null()})
                .Build();
  EXPECT_EQ(KnnImputeColumn(&t, "target", {"f"}, 1).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace nde
