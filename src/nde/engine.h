#ifndef NDE_NDE_ENGINE_H_
#define NDE_NDE_ENGINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/table.h"
#include "importance/game_values.h"
#include "nde/registry.h"

namespace nde {

/// The shared single-table importance run: CSV table -> MlPipeline (filter
/// null labels -> project -> auto-encode, under a PlanProfiler) -> internal
/// train/validation split -> configured algorithm -> cleaning ranking. Both
/// `nde_cli importance <table.csv>` and the HTTP job API call exactly this,
/// which is what makes their results bit-identical (determinism_test pins
/// it).

/// Everything a caller may want out of one run.
struct TableRunResult {
  ImportanceEstimate estimate;
  /// Source-table row ids ranked most suspect first (ascending value,
  /// ties by index), provenance-mapped for train-split algorithms and taken
  /// directly for source-row algorithms (datascope).
  std::vector<uint32_t> ranked_rows;
  /// The per-operator-annotated plan (PlanProfiler::AnnotatedPlan).
  std::string annotated_plan;
  size_t train_rows = 0;
  size_t valid_rows = 0;
};

/// Runs `algorithm` (already configured) over `table` with labels in column
/// `label`. Split: every 5th pipeline-output row validates, the rest train.
/// The table becomes the pipeline's source, so callers done with it move it
/// in rather than copy it.
///
/// `annotated_plan` (optional) is filled as soon as the pipeline has
/// executed — before the estimator runs — so callers can surface the plan
/// even when the estimator subsequently fails (the CLI prints it either
/// way). On success the same text is also in TableRunResult.
///
/// An estimate with aborted_early set is returned as a success; the caller
/// decides how to surface the partial result (the CLI warns and exits 3, the
/// job API marks the job failed/cancelled).
Result<TableRunResult> RunAlgorithmOnTable(
    const AlgorithmInstance& algorithm, Table table,
    const std::string& label, std::string* annotated_plan = nullptr);

}  // namespace nde

#endif  // NDE_NDE_ENGINE_H_
