// Cross-cutting property tests: parameterized sweeps of the library's
// load-bearing invariants, complementing the per-module suites.

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/trace_context.h"
#include "data/csv.h"
#include "datagen/synthetic.h"
#include "datascope/datascope.h"
#include "importance/game_values.h"
#include "importance/knn_shapley.h"
#include "ml/decision_tree.h"
#include "ml/knn.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "ml/svm.h"
#include "pipeline/encoders.h"
#include "pipeline/pipeline.h"

namespace nde {
namespace {

// --- KNN-Shapley closed form == exact enumeration, across k and seeds --------

class KnnShapleySweepTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint64_t>> {};

TEST_P(KnnShapleySweepTest, ClosedFormMatchesEnumeration) {
  auto [k, seed] = GetParam();
  BlobsOptions options;
  options.num_examples = 8;
  options.num_features = 3;
  options.num_classes = 3;
  options.seed = seed;
  MlDataset train = MakeBlobs(options);
  BlobsOptions val_options = options;
  val_options.num_examples = 5;
  val_options.seed = seed + 1000;
  MlDataset validation = MakeBlobs(val_options);

  SoftKnnUtility game(train, validation, k);
  std::vector<double> exact = ExactShapleyValues(game).value();
  std::vector<double> closed =
      KnnShapleyValues(train, validation, k).value().values;
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(closed[i], exact[i], 1e-9) << "k=" << k << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KnnShapleySweepTest,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{2}, size_t{4}),
                       ::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3})));

// --- Shapley axioms on random games vs exact enumeration ----------------------

class RandomGameUtility : public UtilityFunction {
 public:
  /// A random monotone-ish game over n players: v(S) = f(sum of random
  /// per-player weights in S), f concave. Player n-1 is forced to be a null
  /// player (weight 0 and excluded from f's argument).
  RandomGameUtility(size_t n, uint64_t seed) : weights_(n) {
    Rng rng(seed);
    for (size_t i = 0; i + 1 < n; ++i) {
      weights_[i] = rng.NextUniform(0.1, 2.0);
    }
    weights_[n - 1] = 0.0;
  }
  double Evaluate(const std::vector<size_t>& subset) const override {
    double total = 0.0;
    for (size_t i : subset) total += weights_[i];
    return std::sqrt(total);
  }
  size_t num_units() const override { return weights_.size(); }

 private:
  std::vector<double> weights_;
};

class ShapleyAxiomsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShapleyAxiomsTest, EfficiencyNullPlayerAndEstimatorAgreement) {
  RandomGameUtility game(7, GetParam());
  std::vector<double> exact = ExactShapleyValues(game).value();

  // Efficiency.
  double total = std::accumulate(exact.begin(), exact.end(), 0.0);
  EXPECT_NEAR(total, game.FullUtility() - game.EmptyUtility(), 1e-9);
  // Null player.
  EXPECT_NEAR(exact[6], 0.0, 1e-12);
  // Monotone game -> non-negative values.
  for (double v : exact) EXPECT_GE(v, -1e-12);

  // Unbiased TMC estimator converges to the exact values.
  TmcShapleyOptions options;
  options.num_permutations = 3000;
  options.truncation_tolerance = 0.0;
  options.seed = GetParam() * 31 + 1;
  ImportanceEstimate estimate = TmcShapleyValues(game, options).value();
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(estimate.values[i], exact[i], 0.02);
  }
  // Banzhaf null player too.
  std::vector<double> banzhaf = ExactBanzhafValues(game).value();
  EXPECT_NEAR(banzhaf[6], 0.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapleyAxiomsTest,
                         ::testing::Values(11u, 12u, 13u, 14u));

// --- CSV round trips on randomized tables --------------------------------------

class CsvFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CsvFuzzTest, RandomTableSurvivesRoundTrip) {
  Rng rng(GetParam());
  size_t rows = 1 + rng.NextBounded(40);
  const char* alphabet = "abz,\"\n x'|;";
  std::vector<Value> doubles;
  std::vector<Value> ints;
  std::vector<Value> strings;
  for (size_t r = 0; r < rows; ++r) {
    // if/else instead of ternaries: gcc-12 emits a spurious
    // maybe-uninitialized warning for variant temporaries in ?:.
    if (rng.NextBernoulli(0.15)) {
      doubles.push_back(Value::Null());
    } else {
      doubles.push_back(Value(rng.NextUniform(-1e6, 1e6)));
    }
    if (rng.NextBernoulli(0.15)) {
      ints.push_back(Value::Null());
    } else {
      ints.push_back(Value(rng.NextInt(-1000000, 1000000)));
    }
    if (rng.NextBernoulli(0.15)) {
      strings.push_back(Value::Null());
    } else {
      // Random nasty strings: delimiters, quotes and embedded newlines are
      // all quoted by the writer and parsed back by the quote-aware record
      // scanner (records may span physical lines).
      std::string s;
      size_t length = 1 + rng.NextBounded(12);
      for (size_t c = 0; c < length; ++c) {
        s.push_back(alphabet[rng.NextBounded(10)]);
      }
      // Leading/trailing spaces are trimmed by the reader; normalize.
      std::string trimmed(StripWhitespace(s));
      if (trimmed.empty()) trimmed = "x";
      strings.push_back(Value(trimmed));
    }
  }
  Table original = TableBuilder()
                       .AddValueColumn("d", DataType::kDouble, doubles)
                       .AddValueColumn("i", DataType::kInt64, ints)
                       .AddValueColumn("s", DataType::kString, strings)
                       .Build();
  Result<Table> parsed = ReadCsvString(WriteCsvString(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->num_rows(), original.num_rows());
  for (size_t r = 0; r < rows; ++r) {
    // Nulls survive.
    EXPECT_EQ(parsed->At(r, 0).is_null(), original.At(r, 0).is_null());
    EXPECT_EQ(parsed->At(r, 1).is_null(), original.At(r, 1).is_null());
    if (!original.At(r, 1).is_null() && parsed->At(r, 1).is_int64()) {
      EXPECT_EQ(parsed->At(r, 1).as_int64(), original.At(r, 1).as_int64());
    }
    if (!original.At(r, 0).is_null() && parsed->At(r, 0).is_double()) {
      EXPECT_NEAR(parsed->At(r, 0).as_double(), original.At(r, 0).as_double(),
                  std::fabs(original.At(r, 0).as_double()) * 1e-5 + 1e-5);
    }
    if (!original.At(r, 2).is_null()) {
      // Strings that happen to look numeric may be re-typed; compare text.
      EXPECT_EQ(parsed->At(r, 2).ToString(), original.At(r, 2).as_string());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsvFuzzTest,
                         ::testing::Range(uint64_t{100}, uint64_t{112}));

// --- Model determinism across refits -------------------------------------------

class ModelDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(ModelDeterminismTest, RefittingGivesIdenticalPredictions) {
  MlDataset data = MakeBlobs({});
  auto make = [&]() -> std::unique_ptr<Classifier> {
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
  };
  std::unique_ptr<Classifier> a = make();
  std::unique_ptr<Classifier> b = make();
  ASSERT_TRUE(a->Fit(data).ok());
  ASSERT_TRUE(b->Fit(data).ok());
  EXPECT_EQ(a->Predict(data.features), b->Predict(data.features));
  EXPECT_EQ(a->PredictProba(data.features)
                .MaxAbsDiff(b->PredictProba(data.features)),
            0.0);
}

INSTANTIATE_TEST_SUITE_P(Models, ModelDeterminismTest, ::testing::Range(0, 5));

// --- Pipeline removal invariants across random removal sets ----------------------

class PipelineRemovalTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelineRemovalTest, FastPathInvariants) {
  Rng rng(GetParam());
  size_t n = 60;
  std::vector<double> f(n);
  std::vector<int64_t> y(n);
  for (size_t i = 0; i < n; ++i) {
    f[i] = rng.NextGaussian();
    y[i] = rng.NextBernoulli(0.5) ? 1 : 0;
  }
  Table train = TableBuilder()
                    .AddDoubleColumn("f", f)
                    .AddInt64Column("y", y)
                    .Build();
  ColumnTransformer transformer;
  transformer.Add("f", std::make_unique<NumericEncoder>(false));
  MlPipeline pipeline(
      {{"train", train}},
      [](const std::vector<PlanNodePtr>& s) { return s[0]; },
      std::move(transformer), "y");
  PipelineOutput full = pipeline.Run().value();

  size_t remove_count = 1 + rng.NextBounded(20);
  std::vector<SourceRef> removed;
  for (size_t i : rng.SampleWithoutReplacement(n, remove_count)) {
    removed.push_back(SourceRef{0, static_cast<uint32_t>(i)});
  }
  PipelineOutput fast = MlPipeline::RemoveByProvenance(full, removed);
  PipelineOutput slow = pipeline.RunWithout(removed).value();
  // Row-count arithmetic.
  EXPECT_EQ(fast.size(), full.size() - remove_count);
  EXPECT_EQ(fast.size(), slow.size());
  // Identical content on a row-local pipeline.
  EXPECT_EQ(fast.labels, slow.labels);
  EXPECT_LT(fast.features.MaxAbsDiff(slow.features), 1e-12);
  // Removing nothing is the identity.
  PipelineOutput unchanged = MlPipeline::RemoveByProvenance(full, {});
  EXPECT_EQ(unchanged.size(), full.size());
  EXPECT_EQ(unchanged.features.MaxAbsDiff(full.features), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineRemovalTest,
                         ::testing::Values(21u, 22u, 23u, 24u, 25u));

// --- W3C traceparent parser: round-trip, rejection, no-crash fuzz ------------

class TraceparentFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TraceparentFuzzTest, MintedContextsRoundTripExactly) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    TraceContext context;
    context.trace_id_hi = rng.NextUint64();
    context.trace_id_lo = rng.NextUint64();
    context.span_id = rng.NextUint64();
    if (!context.has_trace() || context.span_id == 0) continue;
    std::string wire = FormatTraceparent(context);
    ASSERT_EQ(wire.size(), 55u) << wire;
    TraceContext parsed;
    ASSERT_TRUE(ParseTraceparent(wire, &parsed)) << wire;
    EXPECT_EQ(parsed.trace_id_hi, context.trace_id_hi);
    EXPECT_EQ(parsed.trace_id_lo, context.trace_id_lo);
    EXPECT_EQ(parsed.span_id, context.span_id);
    // Identity on the wire form too: parse(format(x)) formats back to x.
    EXPECT_EQ(FormatTraceparent(parsed), wire);
  }
}

TEST_P(TraceparentFuzzTest, SingleByteCorruptionNeverRoundTrips) {
  Rng rng(GetParam());
  TraceContext context = MintTraceContext();
  std::string wire = FormatTraceparent(context);
  for (int i = 0; i < 300; ++i) {
    std::string corrupt = wire;
    size_t pos = static_cast<size_t>(rng.NextBounded(corrupt.size()));
    char replacement = static_cast<char>(rng.NextBounded(256));
    if (corrupt[pos] == replacement) continue;
    corrupt[pos] = replacement;
    // Layout: version(0-1) '-' trace-id(3-34) '-' span-id(36-51) '-'
    // flags(53-54). Only the id fields carry id bits.
    bool in_ids = (pos >= 3 && pos <= 34) || (pos >= 36 && pos <= 51);
    TraceContext parsed;
    if (ParseTraceparent(corrupt, &parsed)) {
      if (in_ids) {
        // A hex digit changed to a different hex digit must decode to
        // *different* ids — never silently alias the original trace.
        EXPECT_NE(FormatTraceparent(parsed), wire);
      } else {
        // A parseable version/flags corruption (any hex but version "ff")
        // must preserve the ids exactly.
        EXPECT_EQ(parsed.trace_id_hi, context.trace_id_hi);
        EXPECT_EQ(parsed.trace_id_lo, context.trace_id_lo);
        EXPECT_EQ(parsed.span_id, context.span_id);
      }
    }
  }
}

TEST_P(TraceparentFuzzTest, ArbitraryBytesNeverCrashOrFalselyParse) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    size_t length = static_cast<size_t>(rng.NextBounded(80));
    std::string junk(length, '\0');
    for (char& c : junk) c = static_cast<char>(rng.NextBounded(256));
    TraceContext parsed;
    parsed.trace_id_hi = 0xdead;
    bool ok = ParseTraceparent(junk, &parsed);
    if (!ok) {
      // Contract: a failed parse leaves the output untouched.
      EXPECT_EQ(parsed.trace_id_hi, 0xdeadu);
    } else {
      EXPECT_EQ(junk.size(), 55u);
      EXPECT_TRUE(parsed.has_trace());
      EXPECT_NE(parsed.span_id, 0u);
    }
  }
}

TEST(TraceparentTest, RejectsMalformedAndAllZeroInputs) {
  TraceContext parsed;
  // Wrong sizes, casing, separators, and forbidden values.
  EXPECT_FALSE(ParseTraceparent("", &parsed));
  EXPECT_FALSE(ParseTraceparent("00", &parsed));
  EXPECT_FALSE(ParseTraceparent(
      "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x", &parsed));
  EXPECT_FALSE(ParseTraceparent(
      "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01", &parsed));
  EXPECT_FALSE(ParseTraceparent(
      "00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", &parsed));
  // All-zero trace id and all-zero span id are invalid per W3C.
  EXPECT_FALSE(ParseTraceparent(
      "00-00000000000000000000000000000000-00f067aa0ba902b7-01", &parsed));
  EXPECT_FALSE(ParseTraceparent(
      "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", &parsed));
  // Version ff is reserved and must be rejected.
  EXPECT_FALSE(ParseTraceparent(
      "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", &parsed));
  // The canonical example parses.
  EXPECT_TRUE(ParseTraceparent(
      "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", &parsed));
  EXPECT_EQ(TraceIdHex(parsed), "4bf92f3577b34da6a3ce929d0e0e4736");
  EXPECT_EQ(SpanIdHex(parsed.span_id), "00f067aa0ba902b7");
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceparentFuzzTest,
                         ::testing::Values(uint64_t{101}, uint64_t{102},
                                           uint64_t{103}, uint64_t{104}));

}  // namespace
}  // namespace nde
