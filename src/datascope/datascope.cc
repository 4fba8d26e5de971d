#include "datascope/datascope.h"

#include <algorithm>
#include <map>

#include "common/log.h"
#include "common/string_util.h"
#include "importance/knn_shapley.h"
#include "ml/metrics.h"
#include "telemetry/telemetry.h"

namespace nde {

Result<MlDataset> EncodeValidation(const PipelineOutput& output,
                                   const Table& validation_table,
                                   const std::string& label_column) {
  if (!output.encoders.fitted()) {
    return Status::FailedPrecondition("pipeline output has unfitted encoders");
  }
  MlDataset validation;
  NDE_ASSIGN_OR_RETURN(validation.features,
                       output.encoders.Transform(validation_table));
  NDE_ASSIGN_OR_RETURN(size_t label_col,
                       validation_table.schema().FieldIndex(label_column));
  validation.labels.reserve(validation_table.num_rows());
  for (size_t r = 0; r < validation_table.num_rows(); ++r) {
    const Value& v = validation_table.At(r, label_col);
    if (v.is_null() || !v.is_int64() || v.as_int64() < 0) {
      return Status::InvalidArgument(
          StrFormat("validation row %zu has an invalid label", r));
    }
    validation.labels.push_back(static_cast<int>(v.as_int64()));
  }
  return validation;
}

Result<ImportanceEstimate> KnnShapleyOverPipeline(
    const PipelineOutput& output, const MlDataset& validation,
    int32_t target_table_id, size_t num_source_rows, size_t k,
    const EstimatorOptions& options) {
  if (output.size() == 0) {
    return Status::InvalidArgument("pipeline output is empty");
  }
  if (validation.size() == 0) {
    return Status::InvalidArgument("validation set is empty");
  }
  NDE_TRACE_SPAN_VAR(span, "KnnShapleyOverPipeline", "datascope");
  NDE_SPAN_ARG(span, "output_rows", static_cast<int64_t>(output.size()));
  NDE_METRIC_COUNT("datascope.knn_shapley_runs", 1);
  NDE_LOG(INFO) << "knn_shapley over pipeline: " << output.size()
                << " output rows, " << validation.size()
                << " validation points, k=" << k;
  MlDataset train = output.ToDataset();
  NDE_ASSIGN_OR_RETURN(ImportanceEstimate estimate,
                       KnnShapleyValues(train, validation, k, options));

  std::vector<double> source_values(num_source_rows, 0.0);
  for (size_t r = 0; r < output.size(); ++r) {
    for (const SourceRef& ref : output.provenance[r].refs()) {
      if (ref.table_id != target_table_id) continue;
      if (ref.row_id >= num_source_rows) {
        return Status::InvalidArgument(
            StrFormat("provenance row %u exceeds source table size %zu",
                      ref.row_id, num_source_rows));
      }
      source_values[ref.row_id] += estimate.values[r];
    }
  }
  estimate.values = std::move(source_values);
  return estimate;
}

PipelineSourceUtility::PipelineSourceUtility(const MlPipeline* pipeline,
                                             int32_t target_table_id,
                                             ClassifierFactory factory,
                                             MlDataset validation)
    : pipeline_(pipeline),
      target_table_id_(target_table_id),
      factory_(std::move(factory)),
      validation_(std::move(validation)) {
  NDE_CHECK(pipeline_ != nullptr);
  NDE_CHECK(factory_ != nullptr);
  NDE_CHECK_GE(target_table_id, 0);
  NDE_CHECK_LT(static_cast<size_t>(target_table_id),
               pipeline_->sources().size());
  num_units_ =
      pipeline_->sources()[static_cast<size_t>(target_table_id)].table.num_rows();
  num_classes_ = std::max(validation_.NumClasses(), 2);
}

double PipelineSourceUtility::Evaluate(const std::vector<size_t>& subset) const {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  NDE_METRIC_COUNT("datascope.pipeline_utility_evaluations", 1);
  // Remove the complement of the coalition from the target table.
  std::vector<bool> keep(num_units_, false);
  for (size_t i : subset) {
    NDE_CHECK_LT(i, num_units_);
    keep[i] = true;
  }
  std::vector<SourceRef> removed;
  removed.reserve(num_units_ - subset.size());
  for (size_t i = 0; i < num_units_; ++i) {
    if (!keep[i]) {
      removed.push_back(
          SourceRef{target_table_id_, static_cast<uint32_t>(i)});
    }
  }
  Result<PipelineOutput> output = pipeline_->RunWithout(removed);
  if (!output.ok() || output->size() == 0) {
    // No trainable output: random-guess utility. Estimators probe thousands
    // of coalitions, so this is expected for small ones — log a sample, not
    // a flood.
    NDE_LOG_EVERY_N(DEBUG, 256)
        << "coalition of " << subset.size()
        << " units produced no trainable output; using random-guess utility";
    return 1.0 / static_cast<double>(num_classes_);
  }
  std::unique_ptr<Classifier> model = factory_();
  Status fit = model->FitWithClasses(output->ToDataset(), num_classes_);
  if (!fit.ok()) {
    NDE_LOG_FIRST_N(WARNING, 4)
        << "classifier fit failed for a coalition of " << subset.size()
        << " units (" << fit.message() << "); using random-guess utility";
    return 1.0 / static_cast<double>(num_classes_);
  }
  std::vector<int> predicted = model->Predict(validation_.features);
  return Accuracy(validation_.labels, predicted);
}

Result<RemovalImpact> EvaluateSourceRemoval(
    const MlPipeline& pipeline, const PipelineOutput& baseline_output,
    const ClassifierFactory& factory, const MlDataset& validation,
    const std::vector<SourceRef>& removed, bool fast_path) {
  if (baseline_output.size() == 0) {
    return Status::InvalidArgument("baseline pipeline output is empty");
  }
  int num_classes = std::max(validation.NumClasses(), 2);

  auto score = [&](const MlDataset& train) -> Result<double> {
    std::unique_ptr<Classifier> model = factory();
    NDE_RETURN_IF_ERROR(model->FitWithClasses(train, num_classes));
    std::vector<int> predicted = model->Predict(validation.features);
    return Accuracy(validation.labels, predicted);
  };

  RemovalImpact impact;
  NDE_ASSIGN_OR_RETURN(impact.baseline_accuracy,
                       score(baseline_output.ToDataset()));

  // The fast path reuses the already-computed output via provenance; the
  // hit/miss counters expose how often what-ifs avoid a full re-execution.
  PipelineOutput reduced;
  if (fast_path) {
    NDE_METRIC_COUNT("datascope.whatif_fastpath_hits", 1);
    reduced = MlPipeline::RemoveByProvenance(baseline_output, removed);
  } else {
    NDE_METRIC_COUNT("datascope.whatif_full_reruns", 1);
    NDE_ASSIGN_OR_RETURN(reduced, pipeline.RunWithout(removed));
  }
  if (reduced.size() == 0) {
    return Status::InvalidArgument("removal left no training rows");
  }
  impact.output_rows_removed = baseline_output.size() - reduced.size();
  NDE_ASSIGN_OR_RETURN(impact.new_accuracy, score(reduced.ToDataset()));
  impact.accuracy_change = impact.new_accuracy - impact.baseline_accuracy;
  return impact;
}

}  // namespace nde
