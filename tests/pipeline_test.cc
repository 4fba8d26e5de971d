#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/status.h"
#include "common/string_util.h"
#include "datagen/synthetic.h"
#include "pipeline/encoders.h"
#include "pipeline/inspection.h"
#include "pipeline/pipeline.h"
#include "pipeline/plan.h"
#include "pipeline/provenance.h"

namespace nde {
namespace {

// --- Provenance -------------------------------------------------------------

TEST(ProvenanceTest, SourceRefOrderingAndKeys) {
  SourceRef a{0, 1};
  SourceRef b{0, 2};
  SourceRef c{1, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_NE(a.Key(), b.Key());
  EXPECT_EQ(a.ToString(), "t0/r1");
}

TEST(ProvenanceTest, AddKeepsSortedUnique) {
  RowProvenance prov;
  prov.Add({1, 5});
  prov.Add({0, 3});
  prov.Add({1, 5});  // Duplicate ignored.
  ASSERT_EQ(prov.size(), 2u);
  EXPECT_EQ(prov.refs()[0], (SourceRef{0, 3}));
  EXPECT_EQ(prov.refs()[1], (SourceRef{1, 5}));
}

TEST(ProvenanceTest, MergeIsSetUnion) {
  RowProvenance a({0, 1});
  a.Add({1, 2});
  RowProvenance b({1, 2});
  b.Add({2, 0});
  RowProvenance merged = RowProvenance::Merge(a, b);
  EXPECT_EQ(merged.size(), 3u);
  EXPECT_TRUE(merged.DependsOnTable(0));
  EXPECT_TRUE(merged.DependsOnTable(2));
  EXPECT_FALSE(merged.DependsOnTable(5));
}

TEST(ProvenanceTest, FindTableRefAndIntersect) {
  RowProvenance prov({0, 7});
  prov.Add({1, 9});
  const SourceRef* ref = prov.FindTableRef(1);
  ASSERT_NE(ref, nullptr);
  EXPECT_EQ(ref->row_id, 9u);
  EXPECT_EQ(prov.FindTableRef(4), nullptr);

  auto keys = MakeKeySet({{1, 9}});
  EXPECT_TRUE(prov.IntersectsKeys(keys));
  auto other_keys = MakeKeySet({{1, 8}, {0, 6}});
  EXPECT_FALSE(prov.IntersectsKeys(other_keys));
}

// --- Plan operators -----------------------------------------------------------

Table People() {
  return TableBuilder()
      .AddInt64Column("id", {0, 1, 2, 3})
      .AddStringColumn("name", {"ann", "bob", "cat", "dan"})
      .AddInt64Column("dept", {10, 20, 10, 30})
      .Build();
}

Table Departments() {
  return TableBuilder()
      .AddInt64Column("dept_id", {10, 20})
      .AddStringColumn("dept_name", {"radiology", "surgery"})
      .Build();
}

TEST(PlanTest, SourceAnnotatesIdentityProvenance) {
  PlanNodePtr source = MakeSource(3, "people", People());
  AnnotatedTable out = source->Execute().value();
  ASSERT_EQ(out.table.num_rows(), 4u);
  ASSERT_TRUE(out.Validate().ok());
  EXPECT_EQ(out.provenance[2].refs()[0], (SourceRef{3, 2}));
}

TEST(PlanTest, FilterKeepsMatchingRowsWithProvenance) {
  PlanNodePtr plan = MakeFilterEquals(MakeSource(0, "people", People()),
                                      "dept", Value(int64_t{10}));
  AnnotatedTable out = plan->Execute().value();
  ASSERT_EQ(out.table.num_rows(), 2u);
  EXPECT_EQ(out.table.At(0, 1).as_string(), "ann");
  EXPECT_EQ(out.table.At(1, 1).as_string(), "cat");
  EXPECT_EQ(out.provenance[1].refs()[0].row_id, 2u);
}

TEST(PlanTest, FilterWithCustomPredicate) {
  PlanNodePtr plan = MakeFilter(
      MakeSource(0, "people", People()), "name starts with a-c",
      [](const RowView& row) {
        return row.GetOrDie("name").as_string() < std::string("d");
      });
  AnnotatedTable out = plan->Execute().value();
  EXPECT_EQ(out.table.num_rows(), 3u);
}

TEST(PlanTest, ProjectSelectsAndComputes) {
  std::vector<ComputedColumn> computed;
  computed.push_back(ComputedColumn{
      Field{"name_len", DataType::kInt64}, [](const RowView& row) {
        return Value(static_cast<int64_t>(
            row.GetOrDie("name").as_string().size()));
      }});
  PlanNodePtr plan = MakeProject(MakeSource(0, "people", People()),
                                 {"id", "name"}, std::move(computed));
  AnnotatedTable out = plan->Execute().value();
  EXPECT_EQ(out.table.num_columns(), 3u);
  EXPECT_EQ(out.table.At(0, 2).as_int64(), 3);
  EXPECT_EQ(out.provenance.size(), 4u);
}

TEST(PlanTest, SourceFilterProjectOutputsTheSourcesOwnBuffers) {
  Table people = People();
  PlanNodePtr plan = MakeProject(
      MakeFilter(MakeSource(0, "people", people), "id is not null",
                 [](const RowView& row) {
                   return !row.GetOrDie("id").is_null();
                 }),
      {"id", "name", "dept"});
  AnnotatedTable out = plan->Execute().value();
  ASSERT_EQ(out.table.num_columns(), people.num_columns());
  for (size_t c = 0; c < people.num_columns(); ++c) {
    EXPECT_EQ(&out.table.column(c), &people.column(c)) << "column " << c;
  }
  ASSERT_EQ(out.provenance.size(), 4u);
  for (uint32_t r = 0; r < 4; ++r) {
    EXPECT_EQ(out.provenance[r], RowProvenance(SourceRef{0, r}));
  }

  // The pipeline's output table holds its source's buffers too.
  MlPipeline pipeline({{"people", people}},
                      [](const std::vector<PlanNodePtr>& sources) {
                        return MakeProject(sources[0], {"id", "name", "dept"});
                      },
                      MakeAutoTransformer(people, {"dept"}).value(), "dept");
  PipelineOutput output = pipeline.Run().value();
  for (size_t c = 0; c < people.num_columns(); ++c) {
    EXPECT_EQ(&output.processed.column(c), &people.column(c)) << "column " << c;
  }
}

TEST(PlanTest, FilterThatDropsRowsGathersCellsAndProvenance) {
  PlanNodePtr source = MakeSource(2, "people", People());
  PlanNodePtr not_surgery =
      MakeFilter(source, "dept != 20", [](const RowView& row) {
        return row.GetOrDie("dept").as_int64() != 20;
      });
  PlanNodePtr plan = MakeFilter(not_surgery, "id > 0", [](const RowView& row) {
    return row.GetOrDie("id").as_int64() > 0;
  });
  AnnotatedTable in = source->Execute().value();
  AnnotatedTable out = plan->Execute().value();
  ASSERT_TRUE(out.Validate().ok());
  const std::vector<uint32_t> expected_rows = {2, 3};
  ASSERT_EQ(out.table.num_rows(), expected_rows.size());
  for (size_t i = 0; i < expected_rows.size(); ++i) {
    EXPECT_EQ(out.table.Row(i), in.table.Row(expected_rows[i]));
    EXPECT_EQ(out.provenance[i], RowProvenance(SourceRef{2, expected_rows[i]}));
  }
  for (size_t c = 0; c < in.table.num_columns(); ++c) {
    EXPECT_NE(&out.table.column(c), &in.table.column(c));
  }
}

TEST(PlanTest, ProjectUnknownColumnFails) {
  PlanNodePtr plan = MakeProject(MakeSource(0, "people", People()), {"nope"});
  EXPECT_FALSE(plan->Execute().ok());
}

TEST(PlanTest, HashJoinMatchesAndMergesProvenance) {
  PlanNodePtr plan = MakeHashJoin(MakeSource(0, "people", People()),
                                  MakeSource(1, "departments", Departments()),
                                  "dept", "dept_id");
  AnnotatedTable out = plan->Execute().value();
  // dept 30 (dan) has no match; dept 10 matches twice (ann, cat).
  ASSERT_EQ(out.table.num_rows(), 3u);
  EXPECT_TRUE(out.table.schema().HasField("dept_name"));
  EXPECT_FALSE(out.table.schema().HasField("dept_id"));
  for (size_t r = 0; r < out.table.num_rows(); ++r) {
    ASSERT_EQ(out.provenance[r].size(), 2u);
    EXPECT_TRUE(out.provenance[r].DependsOnTable(0));
    EXPECT_TRUE(out.provenance[r].DependsOnTable(1));
  }
}

TEST(PlanTest, HashJoinIgnoresNullKeys) {
  Table left = TableBuilder()
                   .AddValueColumn("k", DataType::kInt64,
                                   {Value(1), Value::Null()})
                   .Build();
  Table right = TableBuilder().AddInt64Column("k2", {1}).Build();
  PlanNodePtr plan = MakeHashJoin(MakeSource(0, "l", left),
                                  MakeSource(1, "r", right), "k", "k2");
  AnnotatedTable out = plan->Execute().value();
  EXPECT_EQ(out.table.num_rows(), 1u);
}

TEST(PlanTest, HashJoinRenamesCollidingColumns) {
  Table left = TableBuilder()
                   .AddInt64Column("k", {1})
                   .AddStringColumn("x", {"left"})
                   .Build();
  Table right = TableBuilder()
                    .AddInt64Column("k", {1})
                    .AddStringColumn("x", {"right"})
                    .Build();
  PlanNodePtr plan = MakeHashJoin(MakeSource(0, "l", left),
                                  MakeSource(1, "r", right), "k", "k");
  AnnotatedTable out = plan->Execute().value();
  ASSERT_TRUE(out.table.schema().HasField("x_r"));
  EXPECT_EQ(out.table.At(0, out.table.schema().FieldIndex("x_r").value())
                .as_string(),
            "right");
}

TEST(PlanTest, FuzzyJoinMatchesWithinEditDistance) {
  Table left = TableBuilder()
                   .AddStringColumn("city", {"berlin", "munich", "hamburg"})
                   .Build();
  Table right = TableBuilder()
                    .AddStringColumn("city_name", {"Berlin", "berln", "muenich"})
                    .AddInt64Column("population", {3600, 3600, 1500})
                    .Build();
  PlanNodePtr plan =
      MakeFuzzyJoin(MakeSource(0, "l", left), MakeSource(1, "r", right),
                    "city", "city_name", 1);
  AnnotatedTable out = plan->Execute().value();
  // "berlin" ~ "Berlin"(1 sub), "berlin" ~ "berln"(1 del), "munich" ~
  // "muenich"(1 ins); "hamburg" matches nothing.
  EXPECT_EQ(out.table.num_rows(), 3u);
}

TEST(PlanTest, FuzzyJoinRequiresStringKeys) {
  Table left = TableBuilder().AddInt64Column("k", {1}).Build();
  Table right = TableBuilder().AddInt64Column("k2", {1}).Build();
  PlanNodePtr plan = MakeFuzzyJoin(MakeSource(0, "l", left),
                                   MakeSource(1, "r", right), "k", "k2", 1);
  EXPECT_FALSE(plan->Execute().ok());
}

TEST(PlanTest, PlanToStringShowsOperators) {
  PlanNodePtr plan = MakeFilterEquals(
      MakeHashJoin(MakeSource(0, "people", People()),
                   MakeSource(1, "departments", Departments()), "dept",
                   "dept_id"),
      "dept_name", Value("radiology"));
  std::string text = PlanToString(*plan);
  EXPECT_NE(text.find("Filter(dept_name == radiology)"), std::string::npos);
  EXPECT_NE(text.find("Join(dept = dept_id)"), std::string::npos);
  EXPECT_NE(text.find("Source(people"), std::string::npos);
}

TEST(PlanTest, PlanToDotIsWellFormed) {
  PlanNodePtr plan = MakeHashJoin(MakeSource(0, "people", People()),
                                  MakeSource(1, "departments", Departments()),
                                  "dept", "dept_id");
  std::string dot = PlanToDot(*plan);
  EXPECT_NE(dot.find("digraph pipeline"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'), 1);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '}'), 1);
}

// --- Encoders -------------------------------------------------------------------

TEST(NumericEncoderTest, StandardizesAndImputesMean) {
  NumericEncoder encoder;
  std::vector<Value> column = {Value(1.0), Value(3.0), Value::Null()};
  ASSERT_TRUE(encoder.Fit(column).ok());
  double out = 0.0;
  encoder.Transform(Value(2.0), &out);
  EXPECT_NEAR(out, 0.0, 1e-12);  // 2.0 is the mean of {1, 3}.
  encoder.Transform(Value::Null(), &out);
  EXPECT_NEAR(out, 0.0, 1e-12);  // Null imputed with the mean.
  encoder.Transform(Value(3.0), &out);
  EXPECT_NEAR(out, 1.0, 1e-12);  // One stddev above.
}

TEST(NumericEncoderTest, RejectsStringCells) {
  NumericEncoder encoder;
  EXPECT_FALSE(encoder.Fit({Value("oops")}).ok());
}

TEST(OneHotEncoderTest, EncodesCategoriesAndImputes) {
  OneHotEncoder encoder;
  std::vector<Value> column = {Value("a"), Value("b"), Value("a"),
                               Value::Null()};
  ASSERT_TRUE(encoder.Fit(column).ok());
  ASSERT_EQ(encoder.num_features(), 2u);
  double out[2];
  encoder.Transform(Value("b"), out);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 1.0);
  encoder.Transform(Value::Null(), out);  // Most frequent = "a".
  EXPECT_EQ(out[0], 1.0);
  encoder.Transform(Value("unknown"), out);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 0.0);
}

TEST(OneHotEncoderTest, NoImputeMapsNullToZeros) {
  OneHotEncoder encoder(/*impute_most_frequent=*/false);
  ASSERT_TRUE(encoder.Fit({Value("x"), Value("y")}).ok());
  double out[2];
  encoder.Transform(Value::Null(), out);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 0.0);
}

TEST(OneHotEncoderTest, AllNullColumnFailsFit) {
  OneHotEncoder encoder;
  EXPECT_FALSE(encoder.Fit({Value::Null(), Value::Null()}).ok());
}

TEST(HashingVectorizerTest, DeterministicAndNormalized) {
  HashingVectorizer encoder(16);
  ASSERT_TRUE(encoder.Fit({}).ok());
  std::vector<double> a(16), b(16);
  encoder.Transform(Value("great work great"), a.data());
  encoder.Transform(Value("great work great"), b.data());
  EXPECT_EQ(a, b);
  double norm = 0.0;
  for (double v : a) norm += v * v;
  EXPECT_NEAR(norm, 1.0, 1e-9);
  EXPECT_TRUE(encoder.is_row_local());
}

TEST(HashingVectorizerTest, DifferentTextsDiffer) {
  HashingVectorizer encoder(32);
  std::vector<double> a(32), b(32);
  encoder.Transform(Value("outstanding dedication"), a.data());
  encoder.Transform(Value("careless and sloppy"), b.data());
  EXPECT_NE(a, b);
}

TEST(HashingVectorizerTest, NullAndEmptyGiveZeroVector) {
  HashingVectorizer encoder(8);
  std::vector<double> out(8, 1.0);
  encoder.Transform(Value::Null(), out.data());
  for (double v : out) EXPECT_EQ(v, 0.0);
  encoder.Transform(Value(""), out.data());
  for (double v : out) EXPECT_EQ(v, 0.0);
}

TEST(NotNullIndicatorTest, Binary) {
  NotNullIndicatorEncoder encoder;
  ASSERT_TRUE(encoder.Fit({}).ok());
  double out = -1.0;
  encoder.Transform(Value("@handle"), &out);
  EXPECT_EQ(out, 1.0);
  encoder.Transform(Value::Null(), &out);
  EXPECT_EQ(out, 0.0);
}

TEST(ColumnTransformerTest, ConcatenatesBlocks) {
  Table t = TableBuilder()
                .AddDoubleColumn("age", {20, 40})
                .AddStringColumn("degree", {"bs", "ms"})
                .Build();
  ColumnTransformer transformer;
  transformer.Add("age", std::make_unique<NumericEncoder>());
  transformer.Add("degree", std::make_unique<OneHotEncoder>());
  Matrix x = transformer.FitTransform(t).value();
  EXPECT_EQ(x.rows(), 2u);
  EXPECT_EQ(x.cols(), 3u);  // 1 numeric + 2 one-hot.
  EXPECT_FALSE(transformer.is_row_local());
}

TEST(ColumnTransformerTest, CopyIsDeep) {
  Table t = TableBuilder().AddDoubleColumn("v", {1, 2, 3}).Build();
  ColumnTransformer a;
  a.Add("v", std::make_unique<NumericEncoder>());
  ASSERT_TRUE(a.Fit(t).ok());
  ColumnTransformer b = a;
  EXPECT_TRUE(b.fitted());
  Matrix x = b.Transform(t).value();
  EXPECT_EQ(x.rows(), 3u);
}

TEST(ColumnTransformerTest, MissingColumnFails) {
  Table t = TableBuilder().AddDoubleColumn("v", {1}).Build();
  ColumnTransformer transformer;
  transformer.Add("nope", std::make_unique<NumericEncoder>());
  EXPECT_FALSE(transformer.Fit(t).ok());
}

TEST(ColumnTransformerTest, TransformBeforeFitFails) {
  Table t = TableBuilder().AddDoubleColumn("v", {1}).Build();
  ColumnTransformer transformer;
  transformer.Add("v", std::make_unique<NumericEncoder>());
  EXPECT_EQ(transformer.Transform(t).status().code(),
            StatusCode::kFailedPrecondition);
}

/// A table of three kRowBlock blocks and a ragged fourth, with nulls in
/// every column, for the transformer's row-block fan-out.
Table BlockSpanningTable() {
  size_t rows = 3 * kRowBlock + 123;
  std::vector<Value> numbers, counts, sectors, texts, handles;
  for (size_t r = 0; r < rows; ++r) {
    numbers.push_back(r % 11 == 0 ? Value::Null()
                                  : Value(0.25 * static_cast<double>(r % 97)));
    counts.push_back(r % 13 == 0 ? Value::Null()
                                 : Value(static_cast<int64_t>(r % 7)));
    sectors.push_back(r % 17 == 0 ? Value::Null()
                                  : Value(std::string(1, 'a' + r % 5)));
    texts.push_back(r % 19 == 0
                        ? Value::Null()
                        : Value(StrFormat("letter %zu  for row %zu ", r % 31,
                                          r % 9)));
    handles.push_back(r % 3 == 0 ? Value::Null() : Value("@h"));
  }
  return TableBuilder()
      .AddValueColumn("number", DataType::kDouble, numbers)
      .AddValueColumn("count", DataType::kInt64, counts)
      .AddValueColumn("sector", DataType::kString, sectors)
      .AddValueColumn("text", DataType::kString, texts)
      .AddValueColumn("handle", DataType::kString, handles)
      .Build();
}

/// Transform fans out over blocks of rows, one task running every encoder
/// over its block; the matrix must equal a row-at-a-time pass over the same
/// fitted encoders, bit for bit, at any thread count.
TEST(ColumnTransformerTest, BlockFanOutMatchesRowAtATimeReference) {
  Table table = BlockSpanningTable();
  struct Column {
    std::string name;
    std::function<std::unique_ptr<FeatureEncoder>()> make;
    double weight;
  };
  const std::vector<Column> columns = {
      {"number", [] { return std::make_unique<NumericEncoder>(); }, 1.0},
      {"count", [] { return std::make_unique<NumericEncoder>(false); }, 2.0},
      {"sector", [] { return std::make_unique<OneHotEncoder>(); }, 1.0},
      {"sector", [] { return std::make_unique<OneHotEncoder>(false); }, 1.0},
      {"text", [] { return std::make_unique<HashingVectorizer>(16); }, 0.3},
      {"handle",
       [] { return std::make_unique<NotNullIndicatorEncoder>(); }, 1.0},
  };
  ColumnTransformer transformer;
  std::vector<std::unique_ptr<FeatureEncoder>> reference_encoders;
  for (const Column& column : columns) {
    transformer.Add(column.name, column.make(), column.weight);
    reference_encoders.push_back(column.make());
    ASSERT_TRUE(reference_encoders.back()
                    ->Fit(*table.ColumnByName(column.name).value())
                    .ok());
  }
  ASSERT_TRUE(transformer.Fit(table).ok());

  Matrix reference(table.num_rows(), transformer.num_features());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    size_t offset = 0;
    for (size_t c = 0; c < columns.size(); ++c) {
      const FeatureEncoder& encoder = *reference_encoders[c];
      double* cells = reference.RowPtr(r) + offset;
      encoder.Transform((*table.ColumnByName(columns[c].name).value())[r],
                        cells);
      for (size_t j = 0; j < encoder.num_features(); ++j) {
        if (columns[c].weight != 1.0) cells[j] *= columns[c].weight;
      }
      offset += encoder.num_features();
    }
  }

  for (size_t threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    SetDefaultNumThreads(threads);
    Result<Matrix> out = transformer.Transform(table);
    SetDefaultNumThreads(0);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_EQ(out->rows(), reference.rows());
    ASSERT_EQ(out->cols(), reference.cols());
    EXPECT_EQ(std::memcmp(out->data().data(), reference.data().data(),
                          reference.size() * sizeof(double)),
              0);
  }
}

TEST(AutoTransformerTest, PicksEncodersBySchemaAndCardinality) {
  std::vector<std::string> texts;
  std::vector<std::string> categories;
  std::vector<double> numbers;
  for (int i = 0; i < 40; ++i) {
    // High-cardinality text column (40 distinct values > onehot cap).
    texts.push_back("long free text number " + std::to_string(i));
    categories.push_back(i % 3 == 0 ? "a" : "b");
    numbers.push_back(static_cast<double>(i));
  }
  Table t = TableBuilder()
                .AddStringColumn("text", texts)
                .AddStringColumn("category", categories)
                .AddDoubleColumn("value", numbers)
                .AddInt64Column("label", std::vector<int64_t>(40, 1))
                .Build();
  ColumnTransformer transformer =
      MakeAutoTransformer(t, {"label"}, /*max_onehot_cardinality=*/16,
                          /*text_hash_buckets=*/8)
          .value();
  ASSERT_TRUE(transformer.fitted());
  // text -> 8 hash buckets, category -> 2 one-hot, value -> 1 numeric.
  EXPECT_EQ(transformer.num_features(), 11u);
  std::string description = transformer.DebugString();
  EXPECT_NE(description.find("text -> hashing_vectorizer"), std::string::npos);
  EXPECT_NE(description.find("category -> onehot"), std::string::npos);
  EXPECT_NE(description.find("value -> numeric"), std::string::npos);
  EXPECT_EQ(description.find("label"), std::string::npos);
  Matrix encoded = transformer.Transform(t).value();
  EXPECT_EQ(encoded.rows(), 40u);
}

TEST(AutoTransformerTest, FailsWhenNothingEncodable) {
  Table t = TableBuilder().AddInt64Column("label", {1, 0}).Build();
  EXPECT_FALSE(MakeAutoTransformer(t, {"label"}).ok());
}

TEST(AutoTransformerTest, SkipsAllNullColumns) {
  Table t = TableBuilder()
                .AddValueColumn("empty", DataType::kDouble,
                                {Value::Null(), Value::Null()})
                .AddDoubleColumn("ok", {1.0, 2.0})
                .Build();
  ColumnTransformer transformer = MakeAutoTransformer(t, {}).value();
  EXPECT_EQ(transformer.num_features(), 1u);
}

// --- End-to-end pipeline ------------------------------------------------------------

/// The Figure 3 pipeline in miniature over the hiring scenario.
MlPipeline MakeHiringPipeline(const HiringScenario& scenario,
                              bool row_local_encoders) {
  std::vector<NamedTable> sources;
  sources.push_back({"train", scenario.train});
  sources.push_back({"jobdetail", scenario.jobdetail});
  sources.push_back({"social", scenario.social});

  PlanBuilder builder = [](const std::vector<PlanNodePtr>& s) -> PlanNodePtr {
    PlanNodePtr joined = MakeHashJoin(s[0], s[1], "job_id", "job_id");
    joined = MakeHashJoin(joined, s[2], "person_id", "person_id");
    joined = MakeFilterEquals(joined, "sector", Value("healthcare"));
    std::vector<ComputedColumn> computed;
    computed.push_back(ComputedColumn{
        Field{"has_twitter", DataType::kInt64}, [](const RowView& row) {
          return Value(int64_t{row.GetOrDie("twitter").is_null() ? 0 : 1});
        }});
    return MakeProject(joined,
                       {"person_id", "letter_text", "degree", "age",
                        "employer_rating", "twitter", "sentiment"},
                       std::move(computed));
  };

  ColumnTransformer transformer;
  transformer.Add("letter_text", std::make_unique<HashingVectorizer>(32));
  if (row_local_encoders) {
    transformer.Add("twitter", std::make_unique<NotNullIndicatorEncoder>());
  } else {
    transformer.Add("degree", std::make_unique<OneHotEncoder>());
    transformer.Add("age", std::make_unique<NumericEncoder>());
    transformer.Add("employer_rating", std::make_unique<NumericEncoder>());
  }
  return MlPipeline(std::move(sources), std::move(builder),
                    std::move(transformer), "sentiment");
}

TEST(MlPipelineTest, RunProducesAlignedOutputs) {
  HiringScenario scenario = MakeHiringScenario({});
  MlPipeline pipeline = MakeHiringPipeline(scenario, false);
  PipelineOutput output = pipeline.Run().value();
  EXPECT_GT(output.size(), 50u);
  EXPECT_EQ(output.features.rows(), output.labels.size());
  EXPECT_EQ(output.provenance.size(), output.labels.size());
  EXPECT_EQ(output.processed.num_rows(), output.labels.size());
  // Every output row depends on all three source tables (two joins).
  for (const RowProvenance& prov : output.provenance) {
    EXPECT_EQ(prov.size(), 3u);
  }
}

TEST(MlPipelineTest, FilterLimitsToHealthcareSector) {
  HiringScenario scenario = MakeHiringScenario({});
  MlPipeline pipeline = MakeHiringPipeline(scenario, false);
  PipelineOutput output = pipeline.Run().value();
  // Healthcare jobs only: every output row's jobdetail ref points to a
  // healthcare row.
  size_t sector_col =
      scenario.jobdetail.schema().FieldIndex("sector").value();
  for (const RowProvenance& prov : output.provenance) {
    const SourceRef* job_ref = prov.FindTableRef(1);
    ASSERT_NE(job_ref, nullptr);
    EXPECT_EQ(scenario.jobdetail.At(job_ref->row_id, sector_col).as_string(),
              "healthcare");
  }
}

TEST(MlPipelineTest, RunWithoutKeepsOriginalRowIds) {
  HiringScenario scenario = MakeHiringScenario({});
  MlPipeline pipeline = MakeHiringPipeline(scenario, false);
  PipelineOutput full = pipeline.Run().value();
  // Remove the train rows feeding the first two outputs.
  std::vector<SourceRef> removed;
  removed.push_back(*full.provenance[0].FindTableRef(0));
  removed.push_back(*full.provenance[1].FindTableRef(0));
  PipelineOutput reduced = pipeline.RunWithout(removed).value();
  EXPECT_EQ(reduced.size(), full.size() - 2);
  auto keys = MakeKeySet(removed);
  for (const RowProvenance& prov : reduced.provenance) {
    EXPECT_FALSE(prov.IntersectsKeys(keys));
  }
}

TEST(MlPipelineTest, FastRemovalEquivalentToRerunWithRowLocalEncoders) {
  HiringScenario scenario = MakeHiringScenario({});
  MlPipeline pipeline = MakeHiringPipeline(scenario, /*row_local=*/true);
  PipelineOutput full = pipeline.Run().value();
  ASSERT_TRUE(full.encoders.is_row_local());

  std::vector<SourceRef> removed;
  for (size_t i = 0; i < 20 && i < full.size(); i += 2) {
    removed.push_back(*full.provenance[i].FindTableRef(0));
  }
  PipelineOutput fast = MlPipeline::RemoveByProvenance(full, removed);
  PipelineOutput slow = pipeline.RunWithout(removed).value();
  ASSERT_EQ(fast.size(), slow.size());
  EXPECT_EQ(fast.labels, slow.labels);
  EXPECT_LT(fast.features.MaxAbsDiff(slow.features), 1e-12);
}

TEST(MlPipelineTest, FastRemovalApproximatesRerunWithStatefulEncoders) {
  HiringScenario scenario = MakeHiringScenario({});
  MlPipeline pipeline = MakeHiringPipeline(scenario, /*row_local=*/false);
  PipelineOutput full = pipeline.Run().value();
  ASSERT_FALSE(full.encoders.is_row_local());
  std::vector<SourceRef> removed = {*full.provenance[0].FindTableRef(0)};
  PipelineOutput fast = MlPipeline::RemoveByProvenance(full, removed);
  PipelineOutput slow = pipeline.RunWithout(removed).value();
  // Same rows survive; features differ only through refit statistics, so the
  // mean per-cell deviation must be small even though a flipped imputation
  // category can move a single cell by 1.
  ASSERT_EQ(fast.labels, slow.labels);
  double total_diff = 0.0;
  for (size_t r = 0; r < fast.features.rows(); ++r) {
    for (size_t c = 0; c < fast.features.cols(); ++c) {
      total_diff += std::fabs(fast.features(r, c) - slow.features(r, c));
    }
  }
  double mean_diff = total_diff / static_cast<double>(fast.features.size());
  EXPECT_LT(mean_diff, 0.05);
}

TEST(MlPipelineTest, MissingLabelColumnFails) {
  HiringScenario scenario = MakeHiringScenario({});
  std::vector<NamedTable> sources = {{"train", scenario.train}};
  ColumnTransformer transformer;
  transformer.Add("age", std::make_unique<NumericEncoder>());
  MlPipeline pipeline(
      std::move(sources),
      [](const std::vector<PlanNodePtr>& s) { return s[0]; },
      std::move(transformer), "no_such_label");
  EXPECT_FALSE(pipeline.Run().ok());
}

// --- Inspection -----------------------------------------------------------------

TEST(InspectionTest, DistributionChangeFlagsShrunkGroup) {
  // A filter that drops almost all of sex=f.
  Table t = TableBuilder()
                .AddStringColumn("sex", {"f", "f", "f", "f", "m", "m", "m", "m"})
                .AddInt64Column("age", {20, 30, 40, 50, 20, 30, 40, 50})
                .Build();
  PlanNodePtr plan = MakeFilter(
      MakeSource(0, "t", t), "age>=50 or sex==m", [](const RowView& row) {
        return row.GetOrDie("age").as_int64() >= 50 ||
               row.GetOrDie("sex").as_string() == "m";
      });
  std::vector<PipelineIssue> issues =
      CheckDistributionChange(*plan, {"sex"}, 0.5).value();
  ASSERT_FALSE(issues.empty());
  EXPECT_EQ(issues[0].check, "distribution_change");
  EXPECT_NE(issues[0].message.find("sex=f"), std::string::npos);
}

TEST(InspectionTest, BalancedFilterPassesDistributionCheck) {
  Table t = TableBuilder()
                .AddStringColumn("sex", {"f", "f", "m", "m"})
                .AddInt64Column("age", {20, 50, 20, 50})
                .Build();
  PlanNodePtr plan = MakeFilter(
      MakeSource(0, "t", t), "age>=50", [](const RowView& row) {
        return row.GetOrDie("age").as_int64() >= 50;
      });
  EXPECT_TRUE(CheckDistributionChange(*plan, {"sex"}, 0.5).value().empty());
}

TEST(InspectionTest, LeakageDetectedOnSharedSourceRows) {
  std::vector<RowProvenance> train = {RowProvenance({0, 1}),
                                      RowProvenance({0, 2})};
  std::vector<RowProvenance> test = {RowProvenance({0, 2}),
                                     RowProvenance({0, 3})};
  std::vector<PipelineIssue> issues = CheckDataLeakage(train, test);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues[0].severity, IssueSeverity::kError);

  std::vector<RowProvenance> disjoint = {RowProvenance({0, 9})};
  EXPECT_TRUE(CheckDataLeakage(train, disjoint).empty());
}

TEST(InspectionTest, LabelErrorScreenFiresOnDirtyData) {
  DatasetSplits splits = LoadRecommendationLetters(300, 67);
  MlDataset dirty = splits.train;
  Rng rng(71);
  InjectLabelErrors(&dirty, 0.3, &rng);
  std::vector<size_t> suspects;
  std::vector<PipelineIssue> issues =
      CheckLabelErrors(dirty, 5, 0.15, &suspects);
  EXPECT_FALSE(issues.empty());
  EXPECT_FALSE(suspects.empty());
  // Clean data has only Bayes-error-level disagreement: far fewer suspects.
  std::vector<size_t> clean_suspects;
  CheckLabelErrors(splits.train, 5, 1.0, &clean_suspects);
  EXPECT_LT(clean_suspects.size(), suspects.size() / 2);
}

TEST(InspectionTest, NullFractionScreen) {
  Table t = TableBuilder()
                .AddValueColumn("mostly_null", DataType::kDouble,
                                {Value::Null(), Value::Null(), Value(1.0)})
                .AddDoubleColumn("full", {1, 2, 3})
                .Build();
  std::vector<PipelineIssue> issues = CheckNullFractions(t, 0.5);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues[0].message.find("mostly_null"), std::string::npos);
}

TEST(InspectionTest, ClassBalanceScreen) {
  std::vector<int> imbalanced(100, 0);
  imbalanced[0] = 1;
  EXPECT_FALSE(CheckClassBalance(imbalanced, 0.1).empty());
  std::vector<int> balanced = {0, 1, 0, 1};
  EXPECT_TRUE(CheckClassBalance(balanced, 0.1).empty());
  EXPECT_FALSE(CheckClassBalance({}, 0.1).empty());
}

TEST(InspectionTest, ScreenPipelineAggregatesChecks) {
  HiringScenario scenario = MakeHiringScenario({});
  // Corrupt the source labels so the label screen fires.
  Rng rng(73);
  ASSERT_TRUE(
      InjectLabelErrorsTable(&scenario.train, "sentiment", 0.35, &rng).ok());
  MlPipeline pipeline = MakeHiringPipeline(scenario, false);
  PipelineOutput output = pipeline.Run().value();
  ScreeningOptions options;
  options.sensitive_columns = {"sex"};
  std::vector<PipelineIssue> issues =
      ScreenPipeline(pipeline, output, options).value();
  bool label_issue = false;
  for (const PipelineIssue& issue : issues) {
    if (issue.check == "label_errors") label_issue = true;
    EXPECT_FALSE(issue.ToString().empty());
  }
  EXPECT_TRUE(label_issue);
}

// --- Negative paths and fault injection -------------------------------------

TEST(NumericEncoderTest, AllNullColumnFailsFit) {
  NumericEncoder encoder;
  Status status = encoder.Fit({Value::Null(), Value::Null()});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("all-null"), std::string::npos);
}

TEST(PlanTest, ExecuteFailpointSurfacesFromAnyOperator) {
  failpoint::DisarmAll();
  ASSERT_TRUE(failpoint::Arm("pipeline.execute=error(internal:op died)").ok());
  // The failpoint lives in the PlanNode::Execute gateway, so every operator —
  // source, filter, join — degrades the same way.
  Result<AnnotatedTable> out =
      MakeFilterEquals(MakeSource(0, "people", People()), "dept",
                       Value(int64_t{10}))
          ->Execute();
  failpoint::DisarmAll();
  failpoint::ResetStats();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInternal);
  EXPECT_EQ(out.status().message(), "op died");
}

TEST(ColumnTransformerTest, FitFailpointSurfacesTypedError) {
  failpoint::DisarmAll();
  ColumnTransformer transformer;
  transformer.Add("id", std::make_unique<NumericEncoder>());
  ASSERT_TRUE(failpoint::Arm("encoder.fit=error(unavailable:fit lost)").ok());
  Status status = transformer.Fit(People());
  failpoint::DisarmAll();
  failpoint::ResetStats();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(status.message(), "fit lost");
  EXPECT_FALSE(transformer.fitted());
}

TEST(ColumnTransformerTest, TransformFailpointSurfacesTypedError) {
  failpoint::DisarmAll();
  ColumnTransformer transformer;
  transformer.Add("id", std::make_unique<NumericEncoder>());
  ASSERT_TRUE(transformer.Fit(People()).ok());
  ASSERT_TRUE(
      failpoint::Arm("encoder.transform=error(internal:encode died)").ok());
  Result<Matrix> encoded = transformer.Transform(People());
  failpoint::DisarmAll();
  failpoint::ResetStats();
  ASSERT_FALSE(encoded.ok());
  EXPECT_EQ(encoded.status().code(), StatusCode::kInternal);
  EXPECT_EQ(encoded.status().message(), "encode died");
  // The transformer itself is unharmed: disarmed, the same call encodes.
  EXPECT_TRUE(transformer.Transform(People()).ok());
}

}  // namespace
}  // namespace nde
