#include "importance/game_values.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/failpoint.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "importance/waves.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry.h"

namespace nde {

namespace {

/// Sorted copy: UtilityFunction takes subsets as sorted indices, and a cold
/// fit relies on it (Gaussian NB's moments sum the subset's rows in order,
/// so another order would change bits).
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

Result<ImportanceEstimate> LeaveOneOutValues(const UtilityFunction& utility,
                                             const EstimatorOptions& options) {
  size_t n = utility.num_units();
  if (n == 0) {
    return Status::InvalidArgument("leave-one-out requires at least one unit");
  }
  NDE_TRACE_SPAN_VAR(span, "LeaveOneOutValues", "importance");
  NDE_SPAN_ARG(span, "units", static_cast<int64_t>(n));
  NDE_RETURN_IF_ERROR(PrepareUtility(utility, options, "leave_one_out"));
  std::vector<size_t> all(n);
  std::iota(all.begin(), all.end(), size_t{0});
  NDE_ASSIGN_OR_RETURN(double full, EvaluateChecked(utility, all));
  // One task per unit, writing into its own slot: no randomness and no shared
  // accumulator, so results are identical for any thread count. Units run in
  // fixed 64-unit waves so progress and cancellation land on deterministic
  // boundaries; the per-unit work is unchanged.
  constexpr size_t kWaveUnits = 64;
  NDE_LOG(DEBUG) << "leave_one_out: " << n << " units";
  std::vector<double> values(n);
  WaveOutcome run = RunWaves(
      options, "leave_one_out", "loo_wave", n, kWaveUnits,
      [&](size_t i) -> Status {
        telemetry::AllocationScope unit_alloc("loo_unit");
        std::vector<size_t> subset;
        subset.reserve(n - 1);
        for (size_t j = 0; j < n; ++j) {
          if (j != i) subset.push_back(j);
        }
        NDE_ASSIGN_OR_RETURN(double without, EvaluateChecked(utility, subset));
        values[i] = full - without;
        return Status::OK();
      },
      [&](size_t, size_t end) {
        // + 1 for the full-set baseline.
        return WaveTally{end, n, end + 1};
      });
  // LOO has no sampling budget to shrink, so a failed or cancelled run has no
  // meaningful partial result: the cause is the call's Status.
  if (!run.abort_cause.ok()) return run.abort_cause;
  ImportanceEstimate estimate;
  estimate.values = std::move(values);
  estimate.utility_evaluations = n + 1;
  estimate.num_threads_used = run.threads_used;
  return estimate;
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
  // Built here on this estimator's threads, not lazily inside the first
  // permutation while the other workers wait.
  NDE_RETURN_IF_ERROR(PrepareUtility(utility, options, "tmc_shapley"));
  NDE_ASSIGN_OR_RETURN(double empty_utility, EvaluateChecked(utility, {}));
  std::vector<size_t> all_units(n);
  std::iota(all_units.begin(), all_units.end(), size_t{0});
  NDE_ASSIGN_OR_RETURN(double full_utility,
                       EvaluateChecked(utility, all_units));

  // Permutation t always draws from stream SeedFor(t) and waves always span
  // the same permutation indices, so both the sampled marginals and the
  // convergence decision are independent of the thread count.
  SeedSequence seeds(options.seed);
  constexpr size_t kWavePermutations = 32;

  struct PermutationPartial {
    std::vector<double> marginals;
    size_t evaluations = 0;
  };
  // Allocated here, on the coordinating thread, so the marginals do not land
  // in per-worker malloc arenas. A completed permutation overwrites every
  // marginal, so a slot needs no reset between waves.
  std::vector<PermutationPartial> wave(
      std::min(kWavePermutations, options.num_permutations),
      PermutationPartial{std::vector<double>(n, 0.0)});

  std::vector<double> sum(n, 0.0);
  std::vector<double> sum_sq(n, 0.0);
  size_t evaluations = 2;  // empty + full, evaluated above on this thread
  size_t executed = 0;
  bool want_error = options.convergence_tolerance > 0.0 ||
                    static_cast<bool>(options.progress);

  auto run_permutation = [&](size_t t) -> Status {
    // One complete-event per permutation: the trace shows where sampling
    // time goes and how hard truncation is biting, task by task.
    NDE_TRACE_SPAN_VAR(perm_span, "tmc_permutation", "importance");
    telemetry::AllocationScope perm_alloc("tmc_permutation");
    PermutationPartial& out = wave[t % kWavePermutations];
    Rng rng = seeds.RngFor(t);
    std::vector<size_t> perm = rng.Permutation(n);
    // Prefix-scan fast path: the permutation grows one coalition a unit at a
    // time, so a utility offering an incremental scan evaluates each prefix
    // without retraining from scratch. Exact scans are bit-identical to
    // Evaluate; approximate warm-started scans are only handed out when
    // options.warm_start opted in. A utility without a scan gets one checked
    // Evaluate per prefix.
    std::unique_ptr<UtilityFunction::PrefixScan> scan =
        utility.NewPrefixScan(options.warm_start);
    std::vector<size_t> prefix;
    // Only the slow per-prefix Evaluate path grows this vector; the scan
    // path stays allocation-free, so reserve lazily.
    if (scan == nullptr) prefix.reserve(n);
    Status failure;
    // Counted in a local and stored once: slots of neighbouring workers
    // share cache lines.
    size_t permutation_evaluations = 0;
    double previous = empty_utility;
    bool truncated = false;
    for (size_t pos = 0; pos < n; ++pos) {
      size_t unit = perm[pos];
      double marginal = 0.0;
      if (!truncated) {
        if (options.truncation_tolerance > 0.0 &&
            std::fabs(full_utility - previous) <
                options.truncation_tolerance) {
          truncated = true;  // Remaining marginals are zero.
          CountForJob("shapley.truncation_hits", 1);
          NDE_SPAN_ARG(perm_span, "truncated_at", static_cast<int64_t>(pos));
        } else {
          double current;
          if (scan != nullptr) {
            // TryEvaluate's failpoint and finiteness check, for a Push. The
            // key is permutation x position (a scan grows one coalition, so
            // that names the evaluation); the 0 keeps the key every existing
            // `@prob/seed` spec was chosen against.
            bool poisoned = false;
            if (failpoint::AnyArmed()) {
              failpoint::Outcome fp = failpoint::Fire(
                  "utility.evaluate",
                  failpoint::MixKey(failpoint::MixKey(t, pos), 0));
              if (fp.kind == failpoint::Outcome::kError) {
                failure = fp.status;
                break;
              }
              poisoned = fp.kind == failpoint::Outcome::kNanPoison;
            }
            current = poisoned ? std::numeric_limits<double>::quiet_NaN()
                               : scan->Push(unit);
            if (!std::isfinite(current)) {
              failure = Status::Internal("utility produced a non-finite value");
              break;
            }
          } else {
            prefix.push_back(unit);
            Result<double> value = EvaluateChecked(utility, Sorted(prefix));
            if (!value.ok()) {
              failure = value.status();
              break;
            }
            current = *value;
          }
          ++permutation_evaluations;
          marginal = current - previous;
          previous = current;
        }
      }
      out.marginals[unit] = marginal;
    }
    out.evaluations = permutation_evaluations;
    NDE_SPAN_ARG(perm_span, "permutation", static_cast<int64_t>(t));
    NDE_SPAN_ARG(perm_span, "evaluations",
                 static_cast<int64_t>(permutation_evaluations));
    return failure;
  };

  // Deterministic reduction: fold permutation partials in index order. One
  // max-std-error per wave serves both the convergence decision (max <= tol
  // is equivalent to "every unit's error <= tol") and the progress callback,
  // so installing a callback cannot change when the estimator stops.
  auto fold = [&](size_t begin, size_t end) {
    for (size_t t = begin; t < end; ++t) {
      const PermutationPartial& partial = wave[t % kWavePermutations];
      for (size_t i = 0; i < n; ++i) {
        double marginal = partial.marginals[i];
        sum[i] += marginal;
        sum_sq[i] += marginal * marginal;
      }
      evaluations += partial.evaluations;
    }
    executed = end;
    WaveTally tally{executed, options.num_permutations, evaluations};
    if (want_error && executed > 1) {
      double m = static_cast<double>(executed);
      for (size_t i = 0; i < n; ++i) {
        tally.max_std_error = std::max(tally.max_std_error,
                                       MeanStdError(sum[i], sum_sq[i], m));
      }
    }
    tally.converged = options.convergence_tolerance > 0.0 && executed > 1 &&
                      tally.max_std_error <= options.convergence_tolerance;
    return tally;
  };

  WaveOutcome run =
      RunWaves(options, "tmc_shapley", "tmc_wave", options.num_permutations,
               kWavePermutations, run_permutation, fold);
  CountForJob("shapley.permutations", executed);
  CountForJob("shapley.utility_evaluations", evaluations);
  NDE_SPAN_ARG(span, "units", static_cast<int64_t>(n));
  NDE_SPAN_ARG(span, "permutations", static_cast<int64_t>(executed));
  NDE_SPAN_ARG(span, "evaluations", static_cast<int64_t>(evaluations));
  NDE_SPAN_ARG(span, "threads", static_cast<int64_t>(run.threads_used));
  if (executed == 0) return run.abort_cause;  // Nothing usable to report.

  ImportanceEstimate estimate;
  estimate.values.resize(n);
  estimate.std_errors.resize(n);
  double m = static_cast<double>(executed);
  for (size_t i = 0; i < n; ++i) {
    estimate.values[i] = sum[i] / m;
    estimate.std_errors[i] = MeanStdError(sum[i], sum_sq[i], m);
  }
  estimate.utility_evaluations = evaluations;
  estimate.num_threads_used = run.threads_used;
  estimate.aborted_early = !run.abort_cause.ok();
  estimate.abort_cause = run.abort_cause;
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
  NDE_RETURN_IF_ERROR(PrepareUtility(utility, options, "banzhaf"));

  // MSR: every sample updates every unit's in-mean or out-mean. Samples run
  // as fixed 16-sample chunks; sample t always draws from stream SeedFor(t)
  // and the convergence check sits at fixed 8-chunk wave boundaries, so both
  // are thread-count invariant.
  SeedSequence seeds(options.seed);
  constexpr size_t kChunkSamples = 16;
  constexpr size_t kWaveChunks = 8;

  // Sums over the sampled subsets that contain (in) or miss (out) a unit.
  struct Moments {
    double in_sum = 0.0, in_sq = 0.0, out_sum = 0.0, out_sq = 0.0;
    size_t in_count = 0, out_count = 0;
  };
  auto std_error = [](const Moments& m) {
    double in_err = MeanStdError(m.in_sum, m.in_sq,
                                 static_cast<double>(m.in_count));
    double out_err = MeanStdError(m.out_sum, m.out_sq,
                                  static_cast<double>(m.out_count));
    return std::sqrt(in_err * in_err + out_err * out_err);
  };
  std::vector<Moments> total(n);
  size_t num_chunks = (options.num_samples + kChunkSamples - 1) / kChunkSamples;
  // Per-chunk moments, allocated here on the coordinating thread (see TMC).
  std::vector<std::vector<Moments>> wave(std::min(kWaveChunks, num_chunks),
                                         total);
  size_t executed_samples = 0;
  bool want_error = options.convergence_tolerance > 0.0 ||
                    static_cast<bool>(options.progress);

  auto run_chunk = [&](size_t c) -> Status {
    telemetry::AllocationScope chunk_alloc("banzhaf_chunk");
    std::vector<Moments>& out = wave[c % kWaveChunks];
    out.assign(n, Moments{});
    size_t sample_begin = c * kChunkSamples;
    size_t sample_end =
        std::min(sample_begin + kChunkSamples, options.num_samples);
    // Chunks are traced (not samples) so a large num_samples does not flood
    // the bounded trace buffer with per-sample events.
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
      NDE_ASSIGN_OR_RETURN(double value, EvaluateChecked(utility, subset));
      for (size_t i = 0; i < n; ++i) {
        Moments& m = out[i];
        if (member[i]) {
          m.in_sum += value;
          m.in_sq += value * value;
          ++m.in_count;
        } else {
          m.out_sum += value;
          m.out_sq += value * value;
          ++m.out_count;
        }
      }
    }
    return Status::OK();
  };

  // Deterministic reduction: fold chunk partials in index order. The
  // estimate is estimable only when every unit has >= 2 in- and
  // out-samples, and the stopping decision is "estimable && max <= tol".
  auto fold = [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      const std::vector<Moments>& partial = wave[c % kWaveChunks];
      for (size_t i = 0; i < n; ++i) {
        total[i].in_sum += partial[i].in_sum;
        total[i].in_sq += partial[i].in_sq;
        total[i].out_sum += partial[i].out_sum;
        total[i].out_sq += partial[i].out_sq;
        total[i].in_count += partial[i].in_count;
        total[i].out_count += partial[i].out_count;
      }
      executed_samples +=
          std::min((c + 1) * kChunkSamples, options.num_samples) -
          c * kChunkSamples;
    }
    WaveTally tally{executed_samples, options.num_samples, executed_samples};
    bool estimable = true;
    if (want_error) {
      for (const Moments& m : total) {
        if (m.in_count < 2 || m.out_count < 2) {
          estimable = false;
          tally.max_std_error = 0.0;
          break;
        }
        tally.max_std_error = std::max(tally.max_std_error, std_error(m));
      }
    }
    tally.converged = options.convergence_tolerance > 0.0 && estimable &&
                      tally.max_std_error <= options.convergence_tolerance;
    return tally;
  };

  WaveOutcome run = RunWaves(options, "banzhaf", "banzhaf_wave", num_chunks,
                             kWaveChunks, run_chunk, fold);
  CountForJob("banzhaf.samples", executed_samples);
  NDE_SPAN_ARG(span, "units", static_cast<int64_t>(n));
  NDE_SPAN_ARG(span, "samples", static_cast<int64_t>(executed_samples));
  NDE_SPAN_ARG(span, "threads", static_cast<int64_t>(run.threads_used));
  if (executed_samples == 0) return run.abort_cause;

  ImportanceEstimate estimate;
  estimate.values.resize(n, 0.0);
  estimate.std_errors.resize(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const Moments& m = total[i];
    if (m.in_count == 0 || m.out_count == 0) continue;
    double in_mean = m.in_sum / static_cast<double>(m.in_count);
    double out_mean = m.out_sum / static_cast<double>(m.out_count);
    estimate.values[i] = in_mean - out_mean;
    estimate.std_errors[i] = std_error(m);
  }
  estimate.utility_evaluations = executed_samples;
  estimate.num_threads_used = run.threads_used;
  estimate.aborted_early = !run.abort_cause.ok();
  estimate.abort_cause = run.abort_cause;
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
  NDE_RETURN_IF_ERROR(PrepareUtility(utility, options, "beta_shapley"));
  std::vector<double> cardinality_weights =
      BetaShapleyCardinalityWeights(n, options.alpha, options.beta);

  // One task per unit with its own Rng stream; each unit converges on its own
  // samples only, so per-unit results never depend on the thread count.
  // Units run in fixed 16-unit waves so progress can be reported at
  // deterministic boundaries; the grouping changes scheduling, never results.
  SeedSequence seeds(options.seed);
  constexpr size_t kMinSamplesForConvergence = 8;
  constexpr size_t kWaveUnits = 16;

  struct UnitPartial {
    double mean = 0.0;
    double std_error = 0.0;
    size_t evaluations = 0;
  };
  std::vector<UnitPartial> wave(std::min(kWaveUnits, n));

  auto run_unit = [&](size_t i) -> Status {
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
      NDE_ASSIGN_OR_RETURN(double without,
                           EvaluateChecked(utility, Sorted(subset)));
      subset.push_back(i);
      NDE_ASSIGN_OR_RETURN(double with,
                           EvaluateChecked(utility, Sorted(subset)));
      double marginal = with - without;
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
    UnitPartial& out = wave[i % kWaveUnits];
    out.mean = sum / m;
    out.std_error = MeanStdError(sum, sum_sq, m);
    out.evaluations = 2 * samples;
    NDE_SPAN_ARG(unit_span, "std_error", out.std_error);
    return Status::OK();
  };

  // Units of a discarded wave never reach the estimate, so they report value
  // 0 / std error 0, exactly like units a clean smaller run never reached.
  ImportanceEstimate estimate;
  estimate.values.resize(n, 0.0);
  estimate.std_errors.resize(n, 0.0);
  size_t completed_units = 0;
  double max_std_error = 0.0;
  auto fold = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const UnitPartial& partial = wave[i % kWaveUnits];
      estimate.values[i] = partial.mean;
      estimate.std_errors[i] = partial.std_error;
      estimate.utility_evaluations += partial.evaluations;
      max_std_error = std::max(max_std_error, partial.std_error);
    }
    completed_units = end;
    return WaveTally{end, n, estimate.utility_evaluations, max_std_error};
  };

  WaveOutcome run = RunWaves(options, "beta_shapley", "beta_shapley_wave", n,
                             kWaveUnits, run_unit, fold);
  if (completed_units == 0) return run.abort_cause;
  estimate.num_threads_used = run.threads_used;
  estimate.aborted_early = !run.abort_cause.ok();
  estimate.abort_cause = run.abort_cause;
  CountForJob("beta_shapley.utility_evaluations",
              estimate.utility_evaluations);
  NDE_SPAN_ARG(span, "threads", static_cast<int64_t>(run.threads_used));
  return estimate;
}

}  // namespace nde
