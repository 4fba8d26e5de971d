// Experiment E2 (Figure 3): incorporating preprocessing pipelines into data
// debugging.
//
// Builds the paper's hiring pipeline (train JOIN jobdetail JOIN social,
// sector filter, has_twitter UDF, imputing/one-hot/text feature encoders),
// prints the query plan, runs it with fine-grained provenance, identifies the
// injected source-data label errors with Datascope-style pipeline-aware
// KNN-Shapley importance, removes the 25 lowest-importance *source* tuples,
// and reports the accuracy change of the retrained model (the paper's
// `nde.evaluate_change` prints +0.027). Also compares the provenance-backed
// fast what-if path against full pipeline re-execution.

#include <cstdio>
#include <memory>
#include <unordered_set>

#include "bench/bench_util.h"
#include "cleaning/strategies.h"
#include "datagen/synthetic.h"
#include "datascope/datascope.h"
#include "datascope/whatif.h"
#include "ml/knn.h"
#include "ml/metrics.h"
#include "pipeline/encoders.h"
#include "pipeline/pipeline.h"

namespace nde {
namespace {

MlPipeline BuildHiringPipeline(const HiringScenario& scenario) {
  std::vector<NamedTable> sources;
  sources.push_back({"train_df", scenario.train});
  sources.push_back({"jobdetail_df", scenario.jobdetail});
  sources.push_back({"social_df", scenario.social});

  PlanBuilder builder = [](const std::vector<PlanNodePtr>& s) -> PlanNodePtr {
    PlanNodePtr plan = MakeHashJoin(s[0], s[1], "job_id", "job_id");
    plan = MakeHashJoin(plan, s[2], "person_id", "person_id");
    plan = MakeFilterEquals(plan, "sector", Value("healthcare"));
    std::vector<ComputedColumn> computed;
    computed.push_back(ComputedColumn{
        Field{"has_twitter", DataType::kInt64}, [](const RowView& row) {
          return Value(int64_t{row.GetOrDie("twitter").is_null() ? 0 : 1});
        }});
    return MakeProject(plan,
                       {"person_id", "letter_text", "degree", "age",
                        "employer_rating", "followers", "sentiment"},
                       std::move(computed));
  };

  ColumnTransformer transformer;
  // The text embedding carries the label signal; weight it like the wide
  // SentenceBERT block it stands in for (transformer_weights in sklearn).
  transformer.Add("letter_text", std::make_unique<HashingVectorizer>(48), 6.0);
  transformer.Add("degree", std::make_unique<OneHotEncoder>());
  transformer.Add("age", std::make_unique<NumericEncoder>());
  transformer.Add("employer_rating", std::make_unique<NumericEncoder>());
  transformer.Add("followers", std::make_unique<NumericEncoder>());
  return MlPipeline(std::move(sources), std::move(builder),
                    std::move(transformer), "sentiment");
}

void Run() {
  bench::Banner("E2 / Figure 3: data debugging over the ML pipeline");

  HiringScenarioOptions options;
  options.num_applicants = 800;
  options.seed = 42;
  HiringScenario scenario = MakeHiringScenario(options);

  // Separate applicants for the validation side of the pipeline.
  HiringScenarioOptions val_options = options;
  val_options.num_applicants = 300;
  val_options.seed = 43;
  HiringScenario val_scenario = MakeHiringScenario(val_options);
  val_scenario.jobdetail = scenario.jobdetail;  // Shared dimension table.

  // Inject label errors into the SOURCE train table (before the pipeline).
  Rng rng(7);
  std::vector<size_t> corrupted =
      InjectLabelErrorsTable(&scenario.train, "sentiment", 0.1, &rng).value();
  std::printf("injected %zu label flips into train_df source rows\n",
              corrupted.size());

  MlPipeline pipeline = BuildHiringPipeline(scenario);

  // nde.show_query_plan(pipeline)
  bench::Banner("pipeline query plan");
  std::printf("%s", PlanToString(*pipeline.BuildPlan()).c_str());

  // X_train, prov = nde.with_provenance(pipeline(...))
  bench::Stopwatch run_watch;
  PipelineOutput output = pipeline.Run().value();
  std::printf("pipeline output: %zu rows x %zu features (%.0f ms)\n",
              output.size(), output.features.cols(), run_watch.ElapsedMs());

  // Validation set through the same relational plan + fitted encoders.
  MlPipeline val_pipeline = BuildHiringPipeline(val_scenario);
  PipelineOutput val_output = val_pipeline.Run().value();
  MlDataset validation =
      EncodeValidation(output, val_output.processed, "sentiment").value();
  std::printf("validation set: %zu rows\n", validation.size());

  // importances = nde.datascope(for=train_df_err, provenance=prov, ...)
  bench::Banner("Datascope: source-tuple importance via provenance");
  bench::Stopwatch importance_watch;
  std::vector<double> importances =
      KnnShapleyOverPipeline(output, validation, /*table=*/0,
                             scenario.train.num_rows(), /*k=*/5)
          .value()
          .values;
  std::printf("computed %zu source-tuple importances in %.0f ms\n",
              importances.size(), importance_watch.ElapsedMs());
  std::vector<size_t> ranking = AscendingOrder(importances);
  std::printf("precision@25 against injected errors: %.3f\n",
              PrecisionAtK(ranking, corrupted, 25));
  std::printf(
      "(note: the sector filter drops some corrupted rows from the output,\n"
      " so perfect precision is impossible by construction)\n");

  // lowest = argsort(importances)[:25]; removal what-if.
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  std::vector<SourceRef> lowest;
  for (size_t i = 0; i < 25; ++i) {
    lowest.push_back(SourceRef{0, static_cast<uint32_t>(ranking[i])});
  }
  RemovalImpact informed =
      EvaluateSourceRemoval(pipeline, output, factory, validation, lowest,
                            /*fast_path=*/true)
          .value();
  std::printf("\nRemoval changed accuracy by %+.4f (%.4f -> %.4f).\n",
              informed.accuracy_change, informed.baseline_accuracy,
              informed.new_accuracy);
  std::printf("(paper figure: removal changed accuracy by +0.027)\n");

  Rng random_rng(11);
  std::vector<SourceRef> random_removal;
  for (size_t i :
       random_rng.SampleWithoutReplacement(scenario.train.num_rows(), 25)) {
    random_removal.push_back(SourceRef{0, static_cast<uint32_t>(i)});
  }
  RemovalImpact random =
      EvaluateSourceRemoval(pipeline, output, factory, validation,
                            random_removal)
          .value();
  std::printf("random 25-tuple removal changed accuracy by %+.4f\n",
              random.accuracy_change);

  // Fast what-if vs full re-execution (the IVM connection of Section 2.2).
  bench::Banner("what-if removal: provenance fast path vs full re-run");
  bench::Stopwatch fast_watch;
  RemovalImpact fast = EvaluateSourceRemoval(pipeline, output, factory,
                                             validation, lowest, true)
                           .value();
  double fast_ms = fast_watch.ElapsedMs();
  bench::Stopwatch slow_watch;
  RemovalImpact slow = EvaluateSourceRemoval(pipeline, output, factory,
                                             validation, lowest, false)
                           .value();
  double slow_ms = slow_watch.ElapsedMs();
  std::printf("%-22s %12s %14s\n", "path", "time (ms)", "new accuracy");
  std::printf("%-22s %12.1f %14.4f\n", "provenance fast path", fast_ms,
              fast.new_accuracy);
  std::printf("%-22s %12.1f %14.4f\n", "full re-execution", slow_ms,
              slow.new_accuracy);
  std::printf("expected shape: fast path cheaper, near-identical accuracy.\n");

  // Data-centric what-if catalog (the mlwhatif connection, also Section 2.2):
  // evaluate a set of source-level repair interventions in one sweep.
  bench::Banner("what-if catalog: source interventions vs downstream quality");
  std::vector<WhatIfIntervention> interventions;
  interventions.push_back(WhatIfIntervention{
      "drop null-degree applicants", 0, DropNullRowsIntervention("degree")});
  interventions.push_back(WhatIfIntervention{
      "drop shortest letters", 0,
      FilterRowsIntervention([](const Table& t, size_t r) {
        size_t col = t.schema().FieldIndex("letter_text").value();
        return t.At(r, col).as_string().size() > 180;
      })});
  interventions.push_back(WhatIfIntervention{
      "drop low-rated employers", 1,
      FilterRowsIntervention([](const Table& t, size_t r) {
        size_t col = t.schema().FieldIndex("employer_rating").value();
        return t.At(r, col).as_double() > 1.5;
      })});
  Result<std::vector<WhatIfOutcome>> outcomes =
      RunWhatIfAnalysis(pipeline, factory, validation, interventions);
  if (outcomes.ok()) {
    for (const WhatIfOutcome& outcome : *outcomes) {
      std::printf("%s\n", outcome.ToString().c_str());
    }
  } else {
    std::printf("what-if analysis failed: %s\n",
                outcomes.status().ToString().c_str());
  }
}

}  // namespace
}  // namespace nde

int main() {
  nde::Run();
  return 0;
}
