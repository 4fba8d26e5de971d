#ifndef NDE_IMPORTANCE_ESTIMATOR_OPTIONS_H_
#define NDE_IMPORTANCE_ESTIMATOR_OPTIONS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/progress.h"

namespace nde {

/// Knobs shared by the importance estimators. Method-specific option structs
/// (TmcShapleyOptions, BanzhafOptions, BetaShapleyOptions) embed this by
/// inheritance, so `options.seed = ...` keeps working at every call site and
/// any estimator can be handed a plain EstimatorOptions. Not every estimator
/// reads every field: LOO draws no randomness and has no convergence test, so
/// it ignores seed and convergence_tolerance; the closed-form KNN-Shapley
/// also evaluates no utility, so of the tunable fields it reads only
/// num_threads. The algorithm registry lists for each estimator only the
/// fields it reads.
struct EstimatorOptions {
  /// Base seed for the estimator's SeedSequence. Fixing the seed fixes the
  /// result bit-for-bit regardless of num_threads (see DESIGN.md §8).
  uint64_t seed = 42;

  /// Worker threads for the utility-evaluation fan-out; 0 means the
  /// process-wide default (DefaultNumThreads(), i.e. hardware concurrency
  /// unless overridden by the CLI's --threads flag).
  size_t num_threads = 0;

  /// Early-stopping tolerance for Monte-Carlo estimators: sampling stops once
  /// every unit's standard error falls to or below this value (checked at
  /// fixed wave boundaries, so stopping is thread-count invariant). 0 disables
  /// early stopping and runs the full sampling budget.
  double convergence_tolerance = 0.0;

  /// Observational progress hook, invoked on the coordinating thread at fixed
  /// wave boundaries (see common/progress.h). Powers live progress/ETA lines
  /// and RunReport convergence curves; installing one never changes results
  /// (DESIGN.md §10). Leave empty to skip all progress bookkeeping.
  ProgressCallback progress;

  /// Cooperative cancellation: when non-null, every estimator polls this
  /// flag at its fixed wave boundaries and stops with
  /// StatusCode::kCancelled. The Monte-Carlo estimators keep their completed
  /// waves, so a cancelled run's partial estimate is bit-identical to a clean
  /// smaller-budget run (the same contract fault aborts follow, DESIGN.md
  /// §11); LOO and KNN-Shapley return the status. A cancel does not mark the
  /// process degraded. The serving layer's DELETE /jobs/<id> raises it. The
  /// flag must outlive the estimator call.
  const std::atomic<bool>* cancel = nullptr;
};

}  // namespace nde

#endif  // NDE_IMPORTANCE_ESTIMATOR_OPTIONS_H_
