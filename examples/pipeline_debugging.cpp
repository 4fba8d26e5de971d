// Pipeline debugging: trace data errors to the *source* tables of a real
// preprocessing pipeline via fine-grained provenance (the paper's Figure 3).
//
// The pipeline joins the recommendation letters with job details and social
// media side tables, filters to the healthcare sector, derives a has_twitter
// column with a UDF, and encodes text + categorical + numeric features —
// then data importance is computed for the rows of the *source* train table,
// not the already-encoded feature matrix.
//
// Build & run:  ./build/examples/pipeline_debugging

#include <cstdio>
#include <memory>

#include "nde/nde.h"

int main() {
  using namespace nde;

  // --- Source tables (three heterogeneous inputs) --------------------------
  HiringScenarioOptions options;
  options.num_applicants = 500;
  HiringScenario scenario = MakeHiringScenario(options);

  // Corrupt the SOURCE data: flip 10% of the sentiment labels in train_df.
  Rng rng(7);
  std::vector<size_t> corrupted =
      InjectLabelErrorsTable(&scenario.train, "sentiment", 0.1, &rng).value();
  std::printf("injected %zu label errors into the source train table\n\n",
              corrupted.size());

  // --- def pipeline(train_df, jobdetail_df, social_df): --------------------
  std::vector<NamedTable> sources = {{"train_df", scenario.train},
                                     {"jobdetail_df", scenario.jobdetail},
                                     {"social_df", scenario.social}};
  PlanBuilder builder = [](const std::vector<PlanNodePtr>& s) -> PlanNodePtr {
    PlanNodePtr plan = MakeHashJoin(s[0], s[1], "job_id", "job_id");
    plan = MakeHashJoin(plan, s[2], "person_id", "person_id");
    plan = MakeFilterEquals(plan, "sector", Value("healthcare"));
    std::vector<ComputedColumn> computed;
    computed.push_back(ComputedColumn{
        Field{"has_twitter", DataType::kInt64}, [](const RowView& row) {
          return Value(int64_t{row.GetOrDie("twitter").is_null() ? 0 : 1});
        }});
    return MakeProject(
        plan, {"letter_text", "degree", "age", "employer_rating", "sentiment"},
        std::move(computed));
  };

  ColumnTransformer feature_encoder;
  feature_encoder.Add("letter_text", std::make_unique<HashingVectorizer>(48),
                      /*weight=*/6.0);
  feature_encoder.Add("degree", std::make_unique<OneHotEncoder>());
  feature_encoder.Add("age", std::make_unique<NumericEncoder>());
  feature_encoder.Add("employer_rating", std::make_unique<NumericEncoder>());

  MlPipeline pipeline(sources, builder, feature_encoder, "sentiment");

  // nde.show_query_plan(pipeline)
  std::printf("pipeline query plan:\n%s\n",
              PlanToString(*pipeline.BuildPlan()).c_str());

  // X_train, prov = nde.with_provenance(pipeline(...))
  PipelineOutput output = pipeline.Run().value();
  std::printf("pipeline output: %zu rows x %zu features\n", output.size(),
              output.features.cols());
  std::printf("row 0 provenance: %s\n\n",
              output.provenance[0].ToString().c_str());

  // A clean validation run of the same pipeline over held-out applicants.
  HiringScenarioOptions val_options = options;
  val_options.num_applicants = 200;
  val_options.seed = 43;
  HiringScenario val_scenario = MakeHiringScenario(val_options);
  val_scenario.jobdetail = scenario.jobdetail;
  MlPipeline val_pipeline({{"train_df", val_scenario.train},
                           {"jobdetail_df", val_scenario.jobdetail},
                           {"social_df", val_scenario.social}},
                          builder, feature_encoder, "sentiment");
  Table val_processed = val_pipeline.Run().value().processed;
  MlDataset validation =
      EncodeValidation(output, val_processed, "sentiment").value();

  // importances = nde.datascope(for=train_df, provenance=prov, ...)
  std::vector<double> importances =
      KnnShapleyOverPipeline(output, validation, /*target_table_id=*/0,
                             scenario.train.num_rows(), /*k=*/5)
          .value()
          .values;
  std::vector<size_t> lowest = AscendingOrder(importances);
  lowest.resize(25);
  std::printf("precision@25 of source-tuple ranking vs injected errors: %.2f\n",
              PrecisionAtK(lowest, corrupted, 25));

  // X_train_clean = nde.remove(X_train, lowest, prov)
  std::vector<SourceRef> removals;
  for (size_t row : lowest) {
    removals.push_back(SourceRef{0, static_cast<uint32_t>(row)});
  }
  RemovalImpact impact =
      EvaluateSourceRemoval(
          pipeline, output,
          []() { return std::make_unique<KnnClassifier>(5); }, validation,
          removals)
          .value();
  std::printf("Removal changed accuracy by %+.4f.\n", impact.accuracy_change);
  return 0;
}
