#ifndef NDE_IMPORTANCE_WAVES_H_
#define NDE_IMPORTANCE_WAVES_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "importance/estimator_options.h"
#include "importance/utility.h"

namespace nde {

/// Internal to the importance estimators: the one wave loop behind LOO,
/// TMC-Shapley, Banzhaf, Beta-Shapley and KNN-Shapley, the prelude the game
/// estimators run before it, and the checked evaluation their utility calls
/// share. DESIGN.md §8 (determinism) and §11 (abort and cancel) describe the
/// contracts this loop enforces.

/// The scorer-context prelude: builds the utility's shared state
/// (UtilityFunction::Prepare) on `options.num_threads` under a
/// `scorer_context` span and allocation phase. LOO, TMC-Shapley, Banzhaf and
/// Beta-Shapley call it once, before their first evaluation, so a KNN
/// utility scores every coalition from its context rather than a cold fit. A
/// failed build (such as a lost pool task) is recorded like a zero-wave
/// abort of `phase` — `estimator.aborted`, degraded health, a warning — and
/// returned; the state stays unbuilt, so a later call builds it.
Status PrepareUtility(const UtilityFunction& utility,
                      const EstimatorOptions& options, const char* phase);

/// What a fold reports after reducing one wave: the progress fields, plus
/// whether the estimator's convergence test passed at this boundary.
struct WaveTally {
  size_t completed = 0;  ///< Budget units done (permutations, samples, ...).
  size_t total = 0;      ///< The full budget in the same unit.
  size_t utility_evaluations = 0;
  double max_std_error = 0.0;
  bool converged = false;
};

/// How a RunWaves call ended.
struct WaveOutcome {
  /// Largest worker count any wave fanned out over (1 when none ran).
  size_t threads_used = 1;
  /// OK when every wave ran or the fold converged; otherwise the cancel, the
  /// lost pool task, or the first failed task (in index order) that stopped
  /// the run. Waves folded before it are kept.
  Status abort_cause;
};

/// Runs tasks [0, num_tasks) in fixed waves of `wave_size`. For each wave, on
/// the coordinating thread: poll `options.cancel` (a raised flag stops with
/// Status::Cancelled("<phase> cancelled")); fan the wave out through
/// TryParallelFor under an AllocationScope and an `estimator.wave_ms` sample,
/// both named `label`; discard the wave whole when the pool lost a task or
/// any task returned an error (the first in index order is the cause);
/// otherwise call `fold(begin, end)`, hand its tally to `options.progress` as
/// `phase`, and stop when it reports convergence.
///
/// A task writes only its own slot, conventionally `i % wave_size` of
/// storage the caller allocated up front on this thread, and the fold reduces
/// the wave in index order: together with per-index Rng streams this makes
/// results bit-identical for any num_threads.
///
/// On abort, counts `estimator.aborted` and logs the cause; health turns
/// degraded unless the cause is a cancel, which is not a fault.
WaveOutcome RunWaves(const EstimatorOptions& options, const char* phase,
                     const char* label, size_t num_tasks, size_t wave_size,
                     const std::function<Status(size_t)>& task,
                     const std::function<WaveTally(size_t, size_t)>& fold);

/// One utility evaluation, checked: TryEvaluate, then the finiteness check
/// (a non-finite value is Status::Internal; averaging it would poison the
/// estimate). A failure marks health degraded and comes back as the Status.
/// The degrade matters for evaluations outside any wave (TMC's v(empty) and
/// v(N), LOO's v(N)), which RunWaves' abort record never sees.
Result<double> EvaluateChecked(const UtilityFunction& utility,
                               const std::vector<size_t>& subset);

/// Per-job labeled twin of NDE_METRIC_COUNT: under a job's TraceContext the
/// count lands in both the base metric and the job-labeled series, so
/// /metrics breaks the value out per job; outside a job (CLI, tests) only
/// the base metric moves. Called at wave boundaries, truncations and run ends,
/// never per utility evaluation, so the registry lookup is irrelevant.
void CountForJob(const char* name, uint64_t delta);

}  // namespace nde

#endif  // NDE_IMPORTANCE_WAVES_H_
