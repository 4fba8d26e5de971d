#include "nde/engine.h"

#include <utility>

#include "cleaning/strategies.h"
#include "pipeline/encoders.h"
#include "pipeline/pipeline.h"
#include "pipeline/plan.h"
#include "telemetry/telemetry.h"

namespace nde {

Result<TableRunResult> RunAlgorithmOnTable(const AlgorithmInstance& algorithm,
                                           Table table,
                                           const std::string& label,
                                           std::string* annotated_plan) {
  NDE_RETURN_IF_ERROR(table.schema().FieldIndex(label).status());
  NDE_ASSIGN_OR_RETURN(ColumnTransformer transformer,
                       MakeAutoTransformer(table, {label}));

  std::vector<std::string> columns;
  for (size_t c = 0; c < table.schema().num_fields(); ++c) {
    columns.push_back(table.schema().field(c).name);
  }
  PlanBuilder builder = [label, columns](
                            const std::vector<PlanNodePtr>& sources) {
    PlanNodePtr node = MakeFilter(
        sources[0], label + " is not null", [label](const RowView& row) {
          Result<Value> cell = row.Get(label);
          return cell.ok() && !cell.value().is_null();
        });
    return MakeProject(std::move(node), columns);
  };
  // Moved into the sources: an initializer list would copy it twice.
  size_t num_source_rows = table.num_rows();
  std::vector<NamedTable> sources;
  sources.push_back({"train", std::move(table)});
  MlPipeline pipeline(std::move(sources), builder, std::move(transformer),
                      label);

  PlanNodePtr plan = pipeline.BuildPlan();
  PlanProfiler profiler;
  NDE_ASSIGN_OR_RETURN(PipelineOutput output, pipeline.Execute(plan));

  TableRunResult result;
  result.annotated_plan = profiler.AnnotatedPlan(*plan);
  // Surface the plan before the (possibly failing) estimator runs.
  if (annotated_plan != nullptr) *annotated_plan = result.annotated_plan;

  // Internal split: every 5th output row validates, the rest train. Each
  // side is gathered straight from the output's features.
  std::vector<size_t> train_rows, valid_rows;
  MlDataset train, valid;
  {
    NDE_TRACE_SPAN("ToDataset", "engine");
    for (size_t r = 0; r < output.size(); ++r) {
      (r % 5 == 4 ? valid_rows : train_rows).push_back(r);
    }
    if (train_rows.empty() || valid_rows.empty()) {
      return Status::InvalidArgument(
          "not enough rows for an importance split");
    }
    auto gather = [&output](const std::vector<size_t>& rows) {
      MlDataset part;
      part.features = output.features.SelectRows(rows);
      part.labels.reserve(rows.size());
      for (size_t r : rows) part.labels.push_back(output.labels[r]);
      return part;
    };
    train = gather(train_rows);
    valid = gather(valid_rows);
  }
  result.train_rows = train_rows.size();
  result.valid_rows = valid_rows.size();

  RunInput input;
  input.train = &train;
  input.validation = &valid;
  input.pipeline_output = &output;
  input.source_table_id = 0;
  input.num_source_rows = num_source_rows;
  NDE_ASSIGN_OR_RETURN(result.estimate, algorithm.Run(input));

  // Most suspect first = lowest value. Train-split algorithms score the
  // training rows, so map each back to its source row through provenance;
  // source-row algorithms (datascope) already index the source table.
  NDE_TRACE_SPAN("rank", "engine");
  std::vector<size_t> ranking = AscendingOrder(result.estimate.values);
  result.ranked_rows.reserve(ranking.size());
  for (size_t index : ranking) {
    if (algorithm.values_are_source_rows()) {
      result.ranked_rows.push_back(static_cast<uint32_t>(index));
      continue;
    }
    size_t output_row = train_rows[index];
    const std::vector<SourceRef>& refs = output.provenance[output_row].refs();
    result.ranked_rows.push_back(
        refs.empty() ? static_cast<uint32_t>(output_row) : refs[0].row_id);
  }
  return result;
}

}  // namespace nde
