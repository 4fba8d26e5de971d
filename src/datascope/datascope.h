#ifndef NDE_DATASCOPE_DATASCOPE_H_
#define NDE_DATASCOPE_DATASCOPE_H_

#include <atomic>
#include <vector>

#include "importance/estimator_options.h"
#include "importance/game_values.h"
#include "importance/utility.h"
#include "ml/dataset.h"
#include "ml/model.h"
#include "pipeline/pipeline.h"

namespace nde {

/// Datascope-style data debugging over ML pipelines (Karlaš et al., ICLR
/// 2023): importance is computed for *source* tuples — the rows of one
/// registered input table — rather than for the already-preprocessed feature
/// rows, by combining a KNN proxy game over the pipeline output with the
/// fine-grained provenance mapping output rows back to source tuples.

/// Encodes a validation table (same relational schema as the pipeline's
/// processed output) with the pipeline's *fitted* encoders and extracts its
/// labels. The standard way to obtain a validation set living in the same
/// feature space as the pipeline output.
Result<MlDataset> EncodeValidation(const PipelineOutput& output,
                                   const Table& validation_table,
                                   const std::string& label_column);

/// Fast pipeline-aware importance: exact KNN-Shapley values of the encoded
/// output rows, attributed to the rows of source table `target_table_id` by
/// summing each output row's value into every source tuple in its provenance
/// from that table (the additive fork/join attribution of Datascope).
///
/// Returns one value per row of the target source table (rows that reach no
/// output get 0). `num_source_rows` is the target table's row count.
/// `options.num_threads` fans the underlying KnnShapleyValues over validation
/// points; results are bit-identical for any thread count, and the estimate
/// reports the threads that run used.
Result<ImportanceEstimate> KnnShapleyOverPipeline(
    const PipelineOutput& output, const MlDataset& validation,
    int32_t target_table_id, size_t num_source_rows, size_t k,
    const EstimatorOptions& options = {});

/// Ground-truth coalition game over source tuples: v(S) re-executes the
/// whole pipeline with only the source rows S of the target table present
/// (encoders refit), trains `factory`'s model, and scores validation
/// accuracy. Plug into TmcShapleyValues / LeaveOneOutValues / etc. for exact
/// or Monte-Carlo source importance. O(pipeline + training) per evaluation —
/// the cost that motivates the KNN fast path above.
class PipelineSourceUtility : public UtilityFunction {
 public:
  /// `pipeline` must outlive this object.
  PipelineSourceUtility(const MlPipeline* pipeline, int32_t target_table_id,
                        ClassifierFactory factory, MlDataset validation);

  double Evaluate(const std::vector<size_t>& subset) const override;
  size_t num_units() const override { return num_units_; }

  size_t num_evaluations() const {
    return evaluations_.load(std::memory_order_relaxed);
  }

 private:
  const MlPipeline* pipeline_;
  int32_t target_table_id_;
  ClassifierFactory factory_;
  MlDataset validation_;
  size_t num_units_;
  int num_classes_;
  /// Atomic: Evaluate runs concurrently under the parallel estimators.
  mutable std::atomic<size_t> evaluations_{0};
};

/// Result of a removal what-if (Figure 3's `nde.remove` +
/// `nde.evaluate_change`).
struct RemovalImpact {
  double baseline_accuracy = 0.0;
  double new_accuracy = 0.0;
  double accuracy_change = 0.0;   ///< new - baseline
  size_t output_rows_removed = 0;
};

/// Measures the validation-accuracy impact of deleting `removed` source rows.
/// `fast_path` uses provenance filtering on the already-computed output
/// (fitted encoders kept); otherwise the pipeline is fully re-executed.
Result<RemovalImpact> EvaluateSourceRemoval(
    const MlPipeline& pipeline, const PipelineOutput& baseline_output,
    const ClassifierFactory& factory, const MlDataset& validation,
    const std::vector<SourceRef>& removed, bool fast_path = true);

}  // namespace nde

#endif  // NDE_DATASCOPE_DATASCOPE_H_
