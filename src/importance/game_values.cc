#include "importance/game_values.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <thread>

#include "common/failpoint.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "telemetry/health.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry.h"

namespace nde {

namespace {

/// Sorted copy helper: utilities accept any order, but we normalize anyway
/// so memoizing utilities can key on the subset directly.
std::vector<size_t> Sorted(std::vector<size_t> subset) {
  std::sort(subset.begin(), subset.end());
  return subset;
}

double LogBeta(double a, double b) {
  return std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
}

double LogChoose(size_t n, size_t k) {
  return std::lgamma(static_cast<double>(n) + 1.0) -
         std::lgamma(static_cast<double>(k) + 1.0) -
         std::lgamma(static_cast<double>(n - k) + 1.0);
}

/// Standard error of the mean of `m` samples with the given sum and sum of
/// squares (0 when m < 2).
double MeanStdError(double sum, double sum_sq, double m) {
  if (m < 2.0) return 0.0;
  double mean = sum / m;
  double variance = (sum_sq / m - mean * mean) * m / (m - 1.0);
  return std::sqrt(std::max(variance, 0.0) / m);
}

/// True when the caller raised the cooperative-cancellation flag. Checked on
/// the coordinating thread at wave boundaries only, so cancellation composes
/// with the determinism contract exactly like a fault abort: completed waves
/// are kept, the cancelled run equals a clean smaller-budget run.
bool CancelRequested(const EstimatorOptions& options) {
  return options.cancel != nullptr &&
         options.cancel->load(std::memory_order_relaxed);
}

/// Per-job labeled twins of NDE_METRIC_COUNT / NDE_METRIC_RECORD: under a
/// job's TraceContext the sample lands in both the base metric and the
/// job-labeled series, so /metrics breaks the value out per job; outside a
/// job (CLI, tests) only the base metric moves and output is unchanged.
/// Called at wave boundaries, retry slow paths, and run ends — never per
/// utility evaluation — so the per-call registry lookup is irrelevant.
void CountForJob(const char* name, uint64_t delta) {
  if (!telemetry::Enabled()) return;
  telemetry::MetricsRegistry::Global()
      .GetCounterWithLabels(name, telemetry::CurrentJobLabels())
      .Increment(delta);
}

void RecordMsForJob(const char* name, double ms) {
  if (!telemetry::Enabled()) return;
  telemetry::MetricsRegistry::Global()
      .GetHistogramWithLabels(name, telemetry::CurrentJobLabels())
      .Record(ms);
}

/// One utility evaluation with bounded retry. Retries only *retryable*
/// failures (unavailable / resource_exhausted — a transient backend), with
/// capped exponential backoff: retry_backoff_ms, doubled per attempt, capped
/// at 10x the base. Non-finite values are data corruption and fail
/// immediately — the utility is deterministic, so retrying would return the
/// same poison. Passing the attempt number as the TryEvaluate salt re-rolls
/// an injected probabilistic fault deterministically, so a flaky-backend
/// simulation can succeed on retry and replay bit-identically.
Result<double> EvaluateWithRetry(const UtilityFunction& utility,
                                 const std::vector<size_t>& subset,
                                 const EstimatorOptions& options) {
  Status last;
  for (size_t attempt = 0; attempt <= options.max_retries; ++attempt) {
    if (attempt > 0) {
      CountForJob("estimator.retries", 1);
      uint64_t delay_ms = static_cast<uint64_t>(options.retry_backoff_ms)
                          << (attempt - 1);
      delay_ms = std::min<uint64_t>(
          delay_ms, uint64_t{10} * options.retry_backoff_ms);
      if (delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      }
    }
    Result<double> value = utility.TryEvaluate(subset, attempt);
    if (value.ok()) {
      if (!std::isfinite(*value)) {
        Status poisoned =
            Status::Internal("utility produced a non-finite value");
        telemetry::SetDegraded(poisoned.ToString());
        return poisoned;
      }
      if (attempt > 0) telemetry::SetHealthy();  // Recovered on retry.
      return value;
    }
    last = value.status();
    telemetry::SetDegraded(last.ToString());
    if (!IsRetryable(last.code())) break;
  }
  return last;
}

/// Evaluates v over every subset of {0..n-1}; 2^n evaluations.
std::vector<double> EnumerateAllSubsets(const UtilityFunction& utility) {
  size_t n = utility.num_units();
  std::vector<double> values(size_t{1} << n);
  for (size_t mask = 0; mask < values.size(); ++mask) {
    std::vector<size_t> subset;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (size_t{1} << i)) subset.push_back(i);
    }
    values[mask] = utility.Evaluate(subset);
  }
  return values;
}

}  // namespace

Result<std::vector<double>> LeaveOneOutValues(const UtilityFunction& utility,
                                              const EstimatorOptions& options) {
  size_t n = utility.num_units();
  if (n == 0) {
    return Status::InvalidArgument("leave-one-out requires at least one unit");
  }
  NDE_TRACE_SPAN_VAR(span, "LeaveOneOutValues", "importance");
  NDE_SPAN_ARG(span, "units", static_cast<int64_t>(n));
  std::vector<size_t> all(n);
  std::iota(all.begin(), all.end(), size_t{0});
  NDE_ASSIGN_OR_RETURN(double full, EvaluateWithRetry(utility, all, options));
  std::vector<double> values(n);
  // LOO has no sampling budget to shrink, so a failed unit has no meaningful
  // partial result: the first evaluation error (in unit order) is returned as
  // the call's Status.
  std::vector<Status> errors(n);
  // One task per unit, writing into its own slot: no randomness and no shared
  // accumulator, so results are identical for any thread count. Units run in
  // fixed 64-unit waves purely so progress can be reported at deterministic
  // boundaries; the per-unit work is unchanged.
  constexpr size_t kWaveUnits = 64;
  NDE_LOG(DEBUG) << "leave_one_out: " << n << " units";
  for (size_t wave_begin = 0; wave_begin < n; wave_begin += kWaveUnits) {
    // LOO has no partial-result notion (see the error comment above), so a
    // cancelled run surfaces as a plain Status rather than a partial vector.
    if (CancelRequested(options)) {
      return Status::Cancelled("leave_one_out cancelled");
    }
    size_t wave_end = std::min(wave_begin + kWaveUnits, n);
    // Wave-phase observability: latency into the shared estimator histogram,
    // allocations attributed to this phase (coordinator side; workers tag
    // their own scopes inside the task). Purely observational.
    telemetry::AllocationScope wave_alloc("loo_wave");
    [[maybe_unused]] int64_t wave_start_us =
        telemetry::Enabled() ? telemetry::NowMicros() : 0;
    NDE_ASSIGN_OR_RETURN(
        size_t used,
        TryParallelFor(
            wave_begin, wave_end,
            [&](size_t i) {
              telemetry::AllocationScope unit_alloc("loo_unit");
              std::vector<size_t> subset;
              subset.reserve(n - 1);
              for (size_t j = 0; j < n; ++j) {
                if (j != i) subset.push_back(j);
              }
              Result<double> without = EvaluateWithRetry(utility, subset,
                                                         options);
              if (!without.ok()) {
                errors[i] = without.status();
                return;
              }
              values[i] = full - *without;
            },
            options.num_threads, "leave_one_out"));
    (void)used;
    RecordMsForJob(
        "estimator.wave_ms",
        static_cast<double>(telemetry::NowMicros() - wave_start_us) / 1000.0);
    for (size_t i = wave_begin; i < wave_end; ++i) {
      if (!errors[i].ok()) {
        NDE_LOG(WARNING) << "leave_one_out aborted at unit " << i << ": "
                         << errors[i].ToString();
        return errors[i];
      }
    }
    if (options.progress) {
      ProgressUpdate update;
      update.phase = "leave_one_out";
      update.completed = wave_end;
      update.total = n;
      update.utility_evaluations = wave_end + 1;  // + the full-set baseline
      options.progress(update);
    }
  }
  return values;
}

Result<ImportanceEstimate> TmcShapleyValues(const UtilityFunction& utility,
                                            const TmcShapleyOptions& options) {
  size_t n = utility.num_units();
  if (n == 0) {
    return Status::InvalidArgument("TMC-Shapley requires at least one unit");
  }
  if (options.num_permutations == 0) {
    return Status::InvalidArgument(
        "TMC-Shapley requires at least one permutation");
  }
  NDE_TRACE_SPAN_VAR(span, "TmcShapleyValues", "importance");
  if (options.use_prefix_scan) {
    // The prelude: build the utility's shared scan state (KNN: the
    // train-to-eval distance matrix) on this estimator's threads, instead of
    // lazily inside the first permutation while the other workers wait. v(N)
    // below is then scored from it instead of retrained.
    NDE_TRACE_SPAN("scorer_context", "importance");
    telemetry::AllocationScope context_alloc("scorer_context");
    Status prepared = utility.PreparePrefixScan(options.num_threads);
    if (!prepared.ok()) {
      // No wave ran, so there is no partial estimate: the cause is the
      // run's Status (DESIGN.md §11).
      NDE_METRIC_COUNT("estimator.aborted", 1);
      telemetry::SetDegraded(prepared.ToString());
      NDE_LOG(WARNING) << "tmc_shapley aborted before its first wave: "
                       << prepared.ToString();
      return prepared;
    }
  }
  NDE_ASSIGN_OR_RETURN(double empty_utility,
                       EvaluateWithRetry(utility, {}, options));
  std::vector<size_t> all_units(n);
  std::iota(all_units.begin(), all_units.end(), size_t{0});
  NDE_ASSIGN_OR_RETURN(double full_utility,
                       EvaluateWithRetry(utility, all_units, options));

  // Permutation t always draws from stream SeedFor(t) and waves always span
  // the same permutation indices, so both the sampled marginals and the
  // convergence decision are independent of the thread count.
  SeedSequence seeds(options.seed);
  constexpr size_t kWavePermutations = 32;

  struct PermutationPartial {
    std::vector<double> marginals;
    size_t evaluations = 0;
    Status error;  ///< First evaluation failure inside this permutation.
  };

  std::vector<double> sum(n, 0.0);
  std::vector<double> sum_sq(n, 0.0);
  size_t evaluations = 2;  // empty + full, evaluated above on this thread
  size_t executed = 0;
  size_t threads_used = 1;
  bool aborted = false;
  Status abort_cause;
  std::vector<PermutationPartial> wave(
      std::min(kWavePermutations, options.num_permutations));

  while (executed < options.num_permutations) {
    if (CancelRequested(options)) {
      aborted = true;
      abort_cause = Status::Cancelled("tmc_shapley cancelled");
      break;
    }
    size_t wave_begin = executed;
    size_t wave_end =
        std::min(wave_begin + kWavePermutations, options.num_permutations);
    telemetry::AllocationScope wave_alloc("tmc_wave");
    [[maybe_unused]] int64_t wave_start_us =
        telemetry::Enabled() ? telemetry::NowMicros() : 0;
    for (auto& partial : wave) {
      partial.marginals.assign(n, 0.0);
      partial.evaluations = 0;
      partial.error = Status::OK();
    }
    Result<size_t> used = TryParallelFor(
        wave_begin, wave_end,
        [&](size_t t) {
          // One complete-event per permutation: the trace shows where sampling
          // time goes and how hard truncation is biting, task by task.
          NDE_TRACE_SPAN_VAR(perm_span, "tmc_permutation", "importance");
          telemetry::AllocationScope perm_alloc("tmc_permutation");
          PermutationPartial& out = wave[t - wave_begin];
          Rng rng = seeds.RngFor(t);
          std::vector<size_t> perm = rng.Permutation(n);
          // A prefix scan is an incremental state machine, so a failed Push
          // cannot be retried in place. A transient fault at position P
          // instead re-runs the permutation against a fresh scan, replaying
          // the already-succeeded prefix silently (exact scans make the
          // replay idempotent, and settled fault decisions are not re-taken)
          // and re-rolling only position P's decision — keyed by permutation
          // x position x attempt, schedule-invariant for replay. Each
          // evaluation gets the same bounded budget and counted, capped
          // backoff as EvaluateWithRetry, which handles the non-scan path.
          Status failure;
          size_t resume_pos = 0;     // First position still owed a decision.
          size_t fail_attempts = 0;  // Failed attempts at resume_pos so far.
          for (;;) {
            if (fail_attempts > 0) {
              NDE_METRIC_COUNT("estimator.retries", 1);
              uint64_t delay_ms =
                  static_cast<uint64_t>(options.retry_backoff_ms)
                  << (fail_attempts - 1);
              delay_ms = std::min<uint64_t>(
                  delay_ms, uint64_t{10} * options.retry_backoff_ms);
              if (delay_ms > 0) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(delay_ms));
              }
            }
            // Prefix-scan fast path: the permutation grows one coalition a
            // unit at a time, so a utility offering an incremental scan
            // evaluates each prefix without retraining from scratch. Exact
            // scans are bit-identical to Evaluate; approximate warm-started
            // scans are only handed out when options.warm_start opted in.
            std::unique_ptr<UtilityFunction::PrefixScan> scan =
                options.use_prefix_scan
                    ? utility.NewPrefixScan(options.warm_start)
                    : nullptr;
            failure = Status::OK();
            size_t failed_at = 0;
            std::vector<size_t> prefix;
            // Only the slow per-prefix Evaluate path grows this vector; the
            // scan path stays allocation-free, so reserve lazily.
            if (scan == nullptr) prefix.reserve(n);
            double previous = empty_utility;
            bool truncated = false;
            for (size_t pos = 0; pos < n && failure.ok(); ++pos) {
              size_t unit = perm[pos];
              double marginal = 0.0;
              if (!truncated) {
                if (options.truncation_tolerance > 0.0 &&
                    std::fabs(full_utility - previous) <
                        options.truncation_tolerance) {
                  truncated = true;  // Remaining marginals are zero.
                  CountForJob("shapley.truncation_hits", 1);
                  NDE_SPAN_ARG(perm_span, "truncated_at",
                               static_cast<int64_t>(pos));
                } else {
                  double current;
                  if (scan != nullptr) {
                    if (failpoint::AnyArmed() && pos >= resume_pos) {
                      size_t attempt = pos == resume_pos ? fail_attempts : 0;
                      failpoint::Outcome fp = failpoint::Fire(
                          "utility.evaluate",
                          failpoint::MixKey(failpoint::MixKey(t, pos),
                                            attempt));
                      if (fp.kind == failpoint::Outcome::kNanPoison) {
                        failure = Status::Internal(
                            "utility produced a non-finite value");
                        failed_at = pos;
                        break;
                      }
                      if (fp.fired()) {
                        failure = fp.status;
                        failed_at = pos;
                        break;
                      }
                    }
                    current = scan->Push(unit);
                    if (!std::isfinite(current)) {
                      failure = Status::Internal(
                          "utility produced a non-finite value");
                      failed_at = pos;
                      break;
                    }
                  } else {
                    prefix.push_back(unit);
                    Result<double> value =
                        EvaluateWithRetry(utility, Sorted(prefix), options);
                    if (!value.ok()) {
                      failure = value.status();
                      break;
                    }
                    current = *value;
                  }
                  ++out.evaluations;
                  marginal = current - previous;
                  previous = current;
                }
              }
              out.marginals[unit] = marginal;
            }
            if (failure.ok()) {
              if (fail_attempts > 0) telemetry::SetHealthy();
              break;
            }
            telemetry::SetDegraded(failure.ToString());
            if (scan == nullptr || !IsRetryable(failure.code())) break;
            if (failed_at != resume_pos) {
              resume_pos = failed_at;  // Fresh evaluation, fresh budget.
              fail_attempts = 0;
            }
            if (fail_attempts >= options.max_retries) break;
            ++fail_attempts;
          }
          out.error = failure;
          NDE_SPAN_ARG(perm_span, "permutation", static_cast<int64_t>(t));
          NDE_SPAN_ARG(perm_span, "evaluations",
                       static_cast<int64_t>(out.evaluations));
        },
        options.num_threads, "tmc_wave");
    if (!used.ok()) {
      aborted = true;
      abort_cause = used.status();
      break;
    }
    threads_used = std::max(threads_used, *used);
    RecordMsForJob(
        "estimator.wave_ms",
        static_cast<double>(telemetry::NowMicros() - wave_start_us) / 1000.0);

    // A failed wave is discarded whole (in index order, so the abort cause is
    // schedule-invariant): the estimate then covers exactly the permutations
    // a clean run with a smaller budget would have used.
    for (size_t t = wave_begin; t < wave_end && !aborted; ++t) {
      if (!wave[t - wave_begin].error.ok()) {
        aborted = true;
        abort_cause = wave[t - wave_begin].error;
      }
    }
    if (aborted) break;

    // Deterministic reduction: fold permutation partials in index order.
    for (size_t t = wave_begin; t < wave_end; ++t) {
      const PermutationPartial& partial = wave[t - wave_begin];
      for (size_t i = 0; i < n; ++i) {
        double marginal = partial.marginals[i];
        sum[i] += marginal;
        sum_sq[i] += marginal * marginal;
      }
      evaluations += partial.evaluations;
    }
    executed = wave_end;

    // One max-std-error per wave serves both the convergence decision
    // (max <= tol is equivalent to "every unit's error <= tol") and the
    // progress callback, so installing a callback cannot change when the
    // estimator stops.
    double max_std_error = 0.0;
    bool want_error = options.convergence_tolerance > 0.0 ||
                      static_cast<bool>(options.progress);
    if (want_error && executed > 1) {
      double m = static_cast<double>(executed);
      for (size_t i = 0; i < n; ++i) {
        max_std_error =
            std::max(max_std_error, MeanStdError(sum[i], sum_sq[i], m));
      }
    }
    if (options.progress) {
      ProgressUpdate update;
      update.phase = "tmc_shapley";
      update.completed = executed;
      update.total = options.num_permutations;
      update.utility_evaluations = evaluations;
      update.max_std_error = max_std_error;
      options.progress(update);
    }
    if (options.convergence_tolerance > 0.0 && executed > 1 &&
        max_std_error <= options.convergence_tolerance) {
      NDE_LOG(INFO) << "tmc_shapley converged after " << executed << "/"
                    << options.num_permutations
                    << " permutations (max std error " << max_std_error
                    << " <= " << options.convergence_tolerance << ")";
      break;
    }
  }
  CountForJob("shapley.permutations", executed);
  CountForJob("shapley.utility_evaluations", evaluations);
  NDE_SPAN_ARG(span, "units", static_cast<int64_t>(n));
  NDE_SPAN_ARG(span, "permutations", static_cast<int64_t>(executed));
  NDE_SPAN_ARG(span, "evaluations", static_cast<int64_t>(evaluations));
  NDE_SPAN_ARG(span, "threads", static_cast<int64_t>(threads_used));
  if (aborted) {
    NDE_METRIC_COUNT("estimator.aborted", 1);
    telemetry::SetDegraded(abort_cause.ToString());
    NDE_LOG(WARNING) << "tmc_shapley aborted after " << executed << "/"
                     << options.num_permutations
                     << " permutations: " << abort_cause.ToString();
    if (executed == 0) return abort_cause;  // Nothing usable to report.
  }

  ImportanceEstimate estimate;
  estimate.values.resize(n);
  estimate.std_errors.resize(n);
  double m = static_cast<double>(executed);
  for (size_t i = 0; i < n; ++i) {
    estimate.values[i] = sum[i] / m;
    estimate.std_errors[i] = MeanStdError(sum[i], sum_sq[i], m);
  }
  estimate.utility_evaluations = evaluations;
  estimate.num_threads_used = threads_used;
  estimate.aborted_early = aborted;
  estimate.abort_cause = abort_cause;
  NDE_METRIC_GAUGE_SET(
      "shapley.max_std_error",
      estimate.std_errors.empty()
          ? 0.0
          : *std::max_element(estimate.std_errors.begin(),
                              estimate.std_errors.end()));
  return estimate;
}

Result<std::vector<double>> ExactShapleyValues(const UtilityFunction& utility,
                                               size_t max_units) {
  size_t n = utility.num_units();
  if (n > max_units || n > 24) {
    return Status::InvalidArgument(
        StrFormat("exact Shapley is exponential; n=%zu exceeds cap %zu", n,
                  std::min(max_units, size_t{24})));
  }
  std::vector<double> subset_values = EnumerateAllSubsets(utility);
  // Precompute |S|!(n-|S|-1)!/n! per cardinality.
  std::vector<double> weight(n);
  for (size_t s = 0; s < n; ++s) {
    weight[s] = std::exp(std::lgamma(static_cast<double>(s) + 1.0) +
                         std::lgamma(static_cast<double>(n - s)) -
                         std::lgamma(static_cast<double>(n) + 1.0));
  }
  std::vector<double> values(n, 0.0);
  size_t full = size_t{1} << n;
  for (size_t mask = 0; mask < full; ++mask) {
    size_t cardinality = static_cast<size_t>(__builtin_popcountll(mask));
    for (size_t i = 0; i < n; ++i) {
      if (mask & (size_t{1} << i)) continue;
      double marginal =
          subset_values[mask | (size_t{1} << i)] - subset_values[mask];
      values[i] += weight[cardinality] * marginal;
    }
  }
  return values;
}

Result<ImportanceEstimate> BanzhafValues(const UtilityFunction& utility,
                                         const BanzhafOptions& options) {
  size_t n = utility.num_units();
  if (n == 0) {
    return Status::InvalidArgument("Banzhaf MSR requires at least one unit");
  }
  if (options.num_samples == 0) {
    return Status::InvalidArgument("Banzhaf MSR requires at least one sample");
  }
  NDE_TRACE_SPAN_VAR(span, "BanzhafValues", "importance");

  // MSR: every sample updates every unit's in-mean or out-mean. Samples run
  // as fixed 16-sample chunks; sample t always draws from stream SeedFor(t)
  // and the convergence check sits at fixed 8-chunk wave boundaries, so both
  // are thread-count invariant.
  SeedSequence seeds(options.seed);
  constexpr size_t kChunkSamples = 16;
  constexpr size_t kWaveChunks = 8;

  struct ChunkPartial {
    std::vector<double> in_sum, in_sq, out_sum, out_sq;
    std::vector<size_t> in_count, out_count;
    Status error;  ///< First evaluation failure inside this chunk.
  };

  std::vector<double> in_sum(n, 0.0), in_sq(n, 0.0);
  std::vector<double> out_sum(n, 0.0), out_sq(n, 0.0);
  std::vector<size_t> in_count(n, 0), out_count(n, 0);

  size_t num_chunks = (options.num_samples + kChunkSamples - 1) / kChunkSamples;
  size_t chunk_cursor = 0;
  size_t executed_samples = 0;
  size_t threads_used = 1;
  bool aborted = false;
  Status abort_cause;
  std::vector<ChunkPartial> wave(std::min(kWaveChunks, num_chunks));

  while (chunk_cursor < num_chunks) {
    if (CancelRequested(options)) {
      aborted = true;
      abort_cause = Status::Cancelled("banzhaf cancelled");
      break;
    }
    size_t wave_begin = chunk_cursor;
    size_t wave_end = std::min(wave_begin + kWaveChunks, num_chunks);
    telemetry::AllocationScope wave_alloc("banzhaf_wave");
    [[maybe_unused]] int64_t wave_start_us =
        telemetry::Enabled() ? telemetry::NowMicros() : 0;
    for (auto& partial : wave) {
      partial.in_sum.assign(n, 0.0);
      partial.in_sq.assign(n, 0.0);
      partial.out_sum.assign(n, 0.0);
      partial.out_sq.assign(n, 0.0);
      partial.in_count.assign(n, 0);
      partial.out_count.assign(n, 0);
      partial.error = Status::OK();
    }
    Result<size_t> used = TryParallelFor(
        wave_begin, wave_end,
        [&](size_t c) {
          telemetry::AllocationScope chunk_alloc("banzhaf_chunk");
          ChunkPartial& out = wave[c - wave_begin];
          size_t sample_begin = c * kChunkSamples;
          size_t sample_end =
              std::min(sample_begin + kChunkSamples, options.num_samples);
          // Chunks are traced (not samples) so a large num_samples does not
          // flood the bounded trace buffer with per-sample events.
          NDE_TRACE_SPAN_VAR(batch_span, "banzhaf_sample_batch", "importance");
          NDE_SPAN_ARG(batch_span, "samples",
                       static_cast<int64_t>(sample_end - sample_begin));
          std::vector<size_t> subset;
          std::vector<bool> member(n);
          for (size_t t = sample_begin; t < sample_end; ++t) {
            Rng rng = seeds.RngFor(t);
            subset.clear();
            for (size_t i = 0; i < n; ++i) {
              member[i] = rng.NextBernoulli(0.5);
              if (member[i]) subset.push_back(i);
            }
            Result<double> evaluated =
                EvaluateWithRetry(utility, subset, options);
            if (!evaluated.ok()) {
              out.error = evaluated.status();
              return;  // The whole chunk is discarded with its wave.
            }
            double value = *evaluated;
            for (size_t i = 0; i < n; ++i) {
              if (member[i]) {
                out.in_sum[i] += value;
                out.in_sq[i] += value * value;
                ++out.in_count[i];
              } else {
                out.out_sum[i] += value;
                out.out_sq[i] += value * value;
                ++out.out_count[i];
              }
            }
          }
        },
        options.num_threads, "banzhaf_wave");
    if (!used.ok()) {
      aborted = true;
      abort_cause = used.status();
      break;
    }
    threads_used = std::max(threads_used, *used);
    RecordMsForJob(
        "estimator.wave_ms",
        static_cast<double>(telemetry::NowMicros() - wave_start_us) / 1000.0);

    // Discard a failed wave whole (first error in chunk-index order wins) so
    // the partial estimate matches a clean smaller-budget run exactly.
    for (size_t c = wave_begin; c < wave_end && !aborted; ++c) {
      if (!wave[c - wave_begin].error.ok()) {
        aborted = true;
        abort_cause = wave[c - wave_begin].error;
      }
    }
    if (aborted) break;

    // Deterministic reduction: fold chunk partials in index order.
    for (size_t c = wave_begin; c < wave_end; ++c) {
      const ChunkPartial& partial = wave[c - wave_begin];
      for (size_t i = 0; i < n; ++i) {
        in_sum[i] += partial.in_sum[i];
        in_sq[i] += partial.in_sq[i];
        out_sum[i] += partial.out_sum[i];
        out_sq[i] += partial.out_sq[i];
        in_count[i] += partial.in_count[i];
        out_count[i] += partial.out_count[i];
      }
      executed_samples +=
          std::min((c + 1) * kChunkSamples, options.num_samples) -
          c * kChunkSamples;
    }
    chunk_cursor = wave_end;

    // Shared once-per-wave error scan (see the TMC loop): the estimate is
    // estimable only when every unit has >= 2 in- and out-samples, and the
    // stopping decision "estimable && max <= tol" is exactly the old
    // per-unit early-exit check.
    double max_std_error = 0.0;
    bool estimable = true;
    bool want_error = options.convergence_tolerance > 0.0 ||
                      static_cast<bool>(options.progress);
    if (want_error) {
      for (size_t i = 0; i < n; ++i) {
        if (in_count[i] < 2 || out_count[i] < 2) {
          estimable = false;
          max_std_error = 0.0;
          break;
        }
        double in_err = MeanStdError(in_sum[i], in_sq[i],
                                     static_cast<double>(in_count[i]));
        double out_err = MeanStdError(out_sum[i], out_sq[i],
                                      static_cast<double>(out_count[i]));
        max_std_error = std::max(
            max_std_error, std::sqrt(in_err * in_err + out_err * out_err));
      }
    }
    if (options.progress) {
      ProgressUpdate update;
      update.phase = "banzhaf";
      update.completed = executed_samples;
      update.total = options.num_samples;
      update.utility_evaluations = executed_samples;
      update.max_std_error = estimable ? max_std_error : 0.0;
      options.progress(update);
    }
    if (options.convergence_tolerance > 0.0 && estimable &&
        max_std_error <= options.convergence_tolerance) {
      NDE_LOG(INFO) << "banzhaf converged after " << executed_samples << "/"
                    << options.num_samples << " samples (max std error "
                    << max_std_error << " <= "
                    << options.convergence_tolerance << ")";
      break;
    }
  }
  CountForJob("banzhaf.samples", executed_samples);
  NDE_SPAN_ARG(span, "units", static_cast<int64_t>(n));
  NDE_SPAN_ARG(span, "samples", static_cast<int64_t>(executed_samples));
  NDE_SPAN_ARG(span, "threads", static_cast<int64_t>(threads_used));
  if (aborted) {
    NDE_METRIC_COUNT("estimator.aborted", 1);
    telemetry::SetDegraded(abort_cause.ToString());
    NDE_LOG(WARNING) << "banzhaf aborted after " << executed_samples << "/"
                     << options.num_samples
                     << " samples: " << abort_cause.ToString();
    if (executed_samples == 0) return abort_cause;
  }

  ImportanceEstimate estimate;
  estimate.values.resize(n, 0.0);
  estimate.std_errors.resize(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (in_count[i] == 0 || out_count[i] == 0) continue;
    double in_mean = in_sum[i] / static_cast<double>(in_count[i]);
    double out_mean = out_sum[i] / static_cast<double>(out_count[i]);
    estimate.values[i] = in_mean - out_mean;
    double in_err =
        MeanStdError(in_sum[i], in_sq[i], static_cast<double>(in_count[i]));
    double out_err =
        MeanStdError(out_sum[i], out_sq[i], static_cast<double>(out_count[i]));
    estimate.std_errors[i] = std::sqrt(in_err * in_err + out_err * out_err);
  }
  estimate.utility_evaluations = executed_samples;
  estimate.num_threads_used = threads_used;
  estimate.aborted_early = aborted;
  estimate.abort_cause = abort_cause;
  return estimate;
}

Result<std::vector<double>> ExactBanzhafValues(const UtilityFunction& utility,
                                               size_t max_units) {
  size_t n = utility.num_units();
  if (n > max_units || n > 24) {
    return Status::InvalidArgument(
        StrFormat("exact Banzhaf is exponential; n=%zu exceeds cap %zu", n,
                  std::min(max_units, size_t{24})));
  }
  std::vector<double> subset_values = EnumerateAllSubsets(utility);
  std::vector<double> values(n, 0.0);
  size_t full = size_t{1} << n;
  double scale = 1.0 / static_cast<double>(size_t{1} << (n - 1));
  for (size_t mask = 0; mask < full; ++mask) {
    for (size_t i = 0; i < n; ++i) {
      if (mask & (size_t{1} << i)) continue;
      values[i] +=
          (subset_values[mask | (size_t{1} << i)] - subset_values[mask]) *
          scale;
    }
  }
  return values;
}

std::vector<double> BetaShapleyCardinalityWeights(size_t n, double alpha,
                                                  double beta) {
  NDE_CHECK_GT(n, 0u);
  NDE_CHECK_GT(alpha, 0.0);
  NDE_CHECK_GT(beta, 0.0);
  // P(|S| = j) proportional to C(n-1, j) * B(j + beta, n - 1 - j + alpha),
  // which for (alpha, beta) = (1, 1) is the uniform Shapley distribution.
  std::vector<double> log_weights(n);
  double max_log = -1e300;
  for (size_t j = 0; j < n; ++j) {
    log_weights[j] =
        LogChoose(n - 1, j) + LogBeta(static_cast<double>(j) + beta,
                                      static_cast<double>(n - 1 - j) + alpha);
    max_log = std::max(max_log, log_weights[j]);
  }
  std::vector<double> weights(n);
  double total = 0.0;
  for (size_t j = 0; j < n; ++j) {
    weights[j] = std::exp(log_weights[j] - max_log);
    total += weights[j];
  }
  for (double& w : weights) w /= total;
  return weights;
}

Result<ImportanceEstimate> BetaShapleyValues(
    const UtilityFunction& utility, const BetaShapleyOptions& options) {
  size_t n = utility.num_units();
  if (n == 0) {
    return Status::InvalidArgument("Beta-Shapley requires at least one unit");
  }
  if (options.samples_per_unit == 0) {
    return Status::InvalidArgument(
        "Beta-Shapley requires at least one sample per unit");
  }
  NDE_TRACE_SPAN_VAR(span, "BetaShapleyValues", "importance");
  std::vector<double> cardinality_weights =
      BetaShapleyCardinalityWeights(n, options.alpha, options.beta);

  // One task per unit with its own Rng stream; each unit converges on its own
  // samples only, so per-unit results never depend on the thread count.
  SeedSequence seeds(options.seed);
  constexpr size_t kMinSamplesForConvergence = 8;

  struct UnitPartial {
    double mean = 0.0;
    double std_error = 0.0;
    size_t evaluations = 0;
    Status error;  ///< First evaluation failure while sampling this unit.
  };
  std::vector<UnitPartial> units(n);

  // Units run in fixed 16-unit waves so progress can be reported at
  // deterministic boundaries. Each unit's Rng stream is keyed by its index
  // and each unit converges on its own samples only, so the wave grouping
  // changes scheduling, never results.
  constexpr size_t kWaveUnits = 16;
  size_t threads_used = 1;
  size_t evaluations_so_far = 0;
  double max_std_error = 0.0;
  bool aborted = false;
  Status abort_cause;
  size_t completed_units = 0;
  for (size_t wave_begin = 0; wave_begin < n; wave_begin += kWaveUnits) {
    if (CancelRequested(options)) {
      aborted = true;
      abort_cause = Status::Cancelled("beta_shapley cancelled");
      break;
    }
    size_t wave_end = std::min(wave_begin + kWaveUnits, n);
    telemetry::AllocationScope wave_alloc("beta_shapley_wave");
    [[maybe_unused]] int64_t wave_start_us =
        telemetry::Enabled() ? telemetry::NowMicros() : 0;
    Result<size_t> used = TryParallelFor(
        wave_begin, wave_end,
        [&](size_t i) {
          NDE_TRACE_SPAN_VAR(unit_span, "beta_shapley_unit", "importance");
          telemetry::AllocationScope unit_alloc("beta_shapley_unit");
          NDE_SPAN_ARG(unit_span, "unit", static_cast<int64_t>(i));
          Rng rng = seeds.RngFor(i);
          std::vector<size_t> others;
          others.reserve(n - 1);
          for (size_t j = 0; j < n; ++j) {
            if (j != i) others.push_back(j);
          }
          double sum = 0.0;
          double sum_sq = 0.0;
          size_t samples = 0;
          for (size_t s = 0; s < options.samples_per_unit; ++s) {
            size_t cardinality = rng.NextCategorical(cardinality_weights);
            std::vector<size_t> picks =
                rng.SampleWithoutReplacement(others.size(), cardinality);
            std::vector<size_t> subset;
            subset.reserve(cardinality + 1);
            for (size_t p : picks) subset.push_back(others[p]);
            Result<double> without =
                EvaluateWithRetry(utility, Sorted(subset), options);
            if (!without.ok()) {
              units[i].error = without.status();
              return;  // The unit's wave is discarded whole below.
            }
            subset.push_back(i);
            Result<double> with =
                EvaluateWithRetry(utility, Sorted(subset), options);
            if (!with.ok()) {
              units[i].error = with.status();
              return;
            }
            double marginal = *with - *without;
            sum += marginal;
            sum_sq += marginal * marginal;
            ++samples;
            if (options.convergence_tolerance > 0.0 &&
                samples >= kMinSamplesForConvergence &&
                MeanStdError(sum, sum_sq, static_cast<double>(samples)) <=
                    options.convergence_tolerance) {
              break;
            }
          }
          double m = static_cast<double>(samples);
          UnitPartial& out = units[i];
          out.mean = sum / m;
          out.std_error = MeanStdError(sum, sum_sq, m);
          out.evaluations = 2 * samples;
          NDE_SPAN_ARG(unit_span, "std_error", out.std_error);
        },
        options.num_threads, "beta_shapley_units");
    if (!used.ok()) {
      aborted = true;
      abort_cause = used.status();
      break;
    }
    threads_used = std::max(threads_used, *used);
    RecordMsForJob(
        "estimator.wave_ms",
        static_cast<double>(telemetry::NowMicros() - wave_start_us) / 1000.0);
    // Discard a failed wave whole (first error in unit-index order wins): the
    // discarded units report value 0 / std error 0, exactly like units a
    // clean smaller run never reached.
    for (size_t i = wave_begin; i < wave_end && !aborted; ++i) {
      if (!units[i].error.ok()) {
        aborted = true;
        abort_cause = units[i].error;
      }
    }
    if (aborted) {
      for (size_t i = wave_begin; i < wave_end; ++i) units[i] = UnitPartial{};
      break;
    }
    completed_units = wave_end;
    // Index-order fold of the wave's partials (deterministic, and cheap
    // enough to do even with no callback installed).
    for (size_t i = wave_begin; i < wave_end; ++i) {
      evaluations_so_far += units[i].evaluations;
      max_std_error = std::max(max_std_error, units[i].std_error);
    }
    if (options.progress) {
      ProgressUpdate update;
      update.phase = "beta_shapley";
      update.completed = wave_end;
      update.total = n;
      update.utility_evaluations = evaluations_so_far;
      update.max_std_error = max_std_error;
      options.progress(update);
    }
  }

  if (aborted) {
    NDE_METRIC_COUNT("estimator.aborted", 1);
    telemetry::SetDegraded(abort_cause.ToString());
    NDE_LOG(WARNING) << "beta_shapley aborted after " << completed_units << "/"
                     << n << " units: " << abort_cause.ToString();
    if (completed_units == 0) return abort_cause;
  }

  ImportanceEstimate estimate;
  estimate.values.resize(n, 0.0);
  estimate.std_errors.resize(n, 0.0);
  size_t evaluations = 0;
  for (size_t i = 0; i < n; ++i) {
    estimate.values[i] = units[i].mean;
    estimate.std_errors[i] = units[i].std_error;
    evaluations += units[i].evaluations;
  }
  estimate.utility_evaluations = evaluations;
  estimate.num_threads_used = threads_used;
  estimate.aborted_early = aborted;
  estimate.abort_cause = abort_cause;
  CountForJob("beta_shapley.utility_evaluations", evaluations);
  NDE_SPAN_ARG(span, "threads", static_cast<int64_t>(threads_used));
  return estimate;
}

}  // namespace nde
