#include "pipeline/pipeline.h"

#include <utility>

#include "common/log.h"
#include "common/string_util.h"
#include "telemetry/telemetry.h"

namespace nde {

namespace {

/// Plan node dropping rows whose provenance intersects a removed-key set.
/// Implemented at the plan layer (not as a Filter) because predicates see
/// only cell values, not provenance.
class ProvenanceFilterNode : public PlanNode {
 public:
  ProvenanceFilterNode(PlanNodePtr input,
                       std::unordered_set<uint64_t> removed_keys)
      : input_(std::move(input)), removed_keys_(std::move(removed_keys)) {}

  Result<AnnotatedTable> ExecuteImpl() const override {
    NDE_ASSIGN_OR_RETURN(AnnotatedTable in, input_->Execute());
    std::vector<size_t> kept;
    kept.reserve(in.table.num_rows());
    for (size_t r = 0; r < in.table.num_rows(); ++r) {
      if (!in.provenance[r].IntersectsKeys(removed_keys_)) kept.push_back(r);
    }
    return KeepRows(std::move(in), kept);
  }

  std::string label() const override {
    return StrFormat("ProvenanceFilter(-%zu source rows)",
                     removed_keys_.size());
  }

  std::vector<const PlanNode*> children() const override {
    return {input_.get()};
  }

 private:
  PlanNodePtr input_;
  std::unordered_set<uint64_t> removed_keys_;
};

}  // namespace

PlanNodePtr MakeProvenanceFilter(PlanNodePtr input,
                                 std::unordered_set<uint64_t> removed_keys) {
  NDE_CHECK(input != nullptr);
  return std::make_shared<ProvenanceFilterNode>(std::move(input),
                                                std::move(removed_keys));
}

MlDataset PipelineOutput::ToDataset() const {
  MlDataset data;
  data.features = features;
  data.labels = labels;
  return data;
}

MlPipeline::MlPipeline(std::vector<NamedTable> sources, PlanBuilder builder,
                       ColumnTransformer transformer, std::string label_column)
    : sources_(std::move(sources)),
      builder_(std::move(builder)),
      transformer_(std::move(transformer)),
      label_column_(std::move(label_column)) {
  NDE_CHECK(!sources_.empty()) << "pipeline needs at least one source";
  NDE_CHECK(builder_ != nullptr);
}

PlanNodePtr MlPipeline::BuildPlan() const {
  std::vector<PlanNodePtr> source_nodes;
  source_nodes.reserve(sources_.size());
  for (size_t i = 0; i < sources_.size(); ++i) {
    source_nodes.push_back(MakeSource(static_cast<int32_t>(i),
                                      sources_[i].name, sources_[i].table));
  }
  return builder_(source_nodes);
}

Result<PipelineOutput> MlPipeline::Execute(const PlanNodePtr& plan) const {
  if (plan == nullptr) {
    return Status::InvalidArgument("plan builder returned null");
  }
  NDE_TRACE_SPAN_VAR(span, "MlPipeline::Execute", "pipeline");
  NDE_ASSIGN_OR_RETURN(AnnotatedTable annotated, plan->Execute());
  NDE_RETURN_IF_ERROR(annotated.Validate());

  // Labels.
  NDE_ASSIGN_OR_RETURN(size_t label_col,
                       annotated.table.schema().FieldIndex(label_column_));
  if (annotated.table.schema().field(label_col).type != DataType::kInt64) {
    return Status::InvalidArgument(
        StrFormat("label column '%s' must be int64", label_column_.c_str()));
  }
  PipelineOutput out;
  out.labels.reserve(annotated.table.num_rows());
  for (size_t r = 0; r < annotated.table.num_rows(); ++r) {
    const Value& v = annotated.table.At(r, label_col);
    if (v.is_null()) {
      return Status::InvalidArgument(
          StrFormat("null label in row %zu of pipeline output", r));
    }
    if (v.as_int64() < 0) {
      return Status::InvalidArgument("labels must be non-negative");
    }
    out.labels.push_back(static_cast<int>(v.as_int64()));
  }

  // Feature encoding (fit on the pipeline output, as in fit_transform).
  ColumnTransformer encoders = transformer_;  // Deep copy of configuration.
  NDE_ASSIGN_OR_RETURN(out.features, encoders.FitTransform(annotated.table));
  out.encoders = std::move(encoders);
  out.processed = std::move(annotated.table);
  out.provenance = std::move(annotated.provenance);
  NDE_SPAN_ARG(span, "output_rows", static_cast<int64_t>(out.size()));
  NDE_METRIC_COUNT("pipeline.executions", 1);
  NDE_METRIC_COUNT("pipeline.output_rows", out.size());
  // Estimators execute the pipeline once per coalition; sample the stream
  // instead of logging every execution.
  NDE_LOG_EVERY_N(DEBUG, 100) << "pipeline executed: " << out.size()
                              << " output rows";
  return out;
}

Result<PipelineOutput> MlPipeline::Run() const { return Execute(BuildPlan()); }

Result<PipelineOutput> MlPipeline::RunWithout(
    const std::vector<SourceRef>& removed) const {
  std::unordered_set<uint64_t> removed_keys = MakeKeySet(removed);
  std::vector<PlanNodePtr> source_nodes;
  source_nodes.reserve(sources_.size());
  for (size_t i = 0; i < sources_.size(); ++i) {
    PlanNodePtr source = MakeSource(static_cast<int32_t>(i), sources_[i].name,
                                    sources_[i].table);
    // Wrapping each source keeps original row ids in provenance while
    // excluding the removed rows from every downstream operator.
    source_nodes.push_back(MakeProvenanceFilter(std::move(source), removed_keys));
  }
  return Execute(builder_(source_nodes));
}

PipelineOutput MlPipeline::RemoveByProvenance(
    const PipelineOutput& output, const std::vector<SourceRef>& removed) {
  NDE_TRACE_SPAN_VAR(span, "MlPipeline::RemoveByProvenance", "pipeline");
  NDE_METRIC_COUNT("pipeline.provenance_shortcut_removals", 1);
  std::unordered_set<uint64_t> removed_keys = MakeKeySet(removed);
  std::vector<size_t> kept;
  kept.reserve(output.size());
  for (size_t r = 0; r < output.size(); ++r) {
    if (!output.provenance[r].IntersectsKeys(removed_keys)) kept.push_back(r);
  }
  PipelineOutput out;
  out.features = output.features.SelectRows(kept);
  out.labels.reserve(kept.size());
  out.provenance.reserve(kept.size());
  for (size_t r : kept) {
    out.labels.push_back(output.labels[r]);
    out.provenance.push_back(output.provenance[r]);
  }
  out.processed = output.processed.SelectRows(kept);
  out.encoders = output.encoders;  // Fitted state carried over unchanged.
  return out;
}

}  // namespace nde
