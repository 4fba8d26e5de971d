#ifndef NDE_IMPORTANCE_GAME_VALUES_H_
#define NDE_IMPORTANCE_GAME_VALUES_H_

#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/rng.h"
#include "importance/estimator_options.h"
#include "importance/utility.h"

namespace nde {

/// Every estimator in this header follows one contract:
///  - options embed EstimatorOptions (seed, num_threads, convergence
///    tolerance, cancel flag, progress callback);
///  - LOO, TMC-Shapley, Banzhaf and Beta-Shapley first build the utility's
///    shared state on options.num_threads (PrepareUtility,
///    importance/waves.h), so a KNN utility scores every coalition from its
///    scorer context; a failed build is the run's Status. The Exact*Values
///    ground truths evaluate unprepared;
///  - utility evaluations run as fixed waves of tasks through one runner
///    (importance/waves.h) with per-task Rng streams from SeedSequence, and
///    partial results reduce in fixed task order, so a fixed seed yields
///    bit-identical values for any num_threads;
///  - a cancel, a lost pool task, or a failed evaluation stops the run at a
///    wave boundary; the Monte-Carlo estimators keep the completed waves
///    (ImportanceEstimate::aborted_early), LOO returns the cause;
///  - bad input (zero units, zero sampling budget) returns
///    Status::InvalidArgument instead of aborting.

/// Result of a Monte-Carlo importance estimator.
struct ImportanceEstimate {
  std::vector<double> values;
  /// Per-unit standard error of the Monte-Carlo mean (0 when not estimable).
  std::vector<double> std_errors;
  size_t utility_evaluations = 0;
  /// Worker threads the estimator actually fanned out over.
  size_t num_threads_used = 1;
  /// True when utility evaluation failed mid-run and the estimate covers only
  /// the waves completed before the failure. Values/std_errors are exactly
  /// what a clean run with that smaller budget would produce (failed waves
  /// are discarded whole, so determinism survives the abort). When no wave
  /// completed at all, the estimator returns `abort_cause` as its Status
  /// instead of a partial estimate.
  bool aborted_early = false;
  /// The first failure that stopped sampling (OK when !aborted_early).
  Status abort_cause;
};

/// --- Leave-one-out -----------------------------------------------------------

/// LOO importance: phi_i = v(N) - v(N \ {i}). The simplest importance score;
/// n + 1 utility evaluations, one per unit plus v(N), evaluated in parallel in
/// 64-unit waves. LOO draws no randomness, so results are identical for any
/// (seed, num_threads); the estimate has no std errors. Returns
/// InvalidArgument when the utility has zero units, and the cause when a
/// cancel or a failure stops the run: LOO has no budget to shrink, so there
/// is no partial result.
Result<ImportanceEstimate> LeaveOneOutValues(
    const UtilityFunction& utility, const EstimatorOptions& options = {});

/// --- Truncated Monte-Carlo Shapley (Ghorbani & Zou 2019) --------------------

struct TmcShapleyOptions : EstimatorOptions {
  size_t num_permutations = 100;
  /// Truncation: once |v(prefix) - v(N)| falls below this tolerance, the
  /// remaining marginal contributions of the permutation are taken as zero.
  /// Set to 0 to disable truncation.
  double truncation_tolerance = 0.01;

  /// Opt into *approximate* warm-started prefix training: when the utility
  /// has no exact scan, permutation scans may reuse one model per permutation
  /// via Classifier::FitIncremental (reduced iteration budget for gradient
  /// models). Like truncation_tolerance this trades a little bias for a big
  /// speedup, so it is off by default; results stay deterministic for any
  /// thread count either way.
  bool warm_start = false;
};

/// Permutation-sampling Shapley estimator with truncation. Unbiased for
/// truncation_tolerance == 0. Each permutation runs through the utility's
/// incremental prefix scan (UtilityFunction::NewPrefixScan); exact scans
/// (the KNN and Gaussian-NB coalition scorers) are bit-identical to
/// per-prefix Evaluate calls, which a utility without a scan gets instead.
/// Permutations are independent tasks (one Rng stream per permutation
/// index); with convergence_tolerance > 0, sampling stops at the first
/// 32-permutation wave where every std error is within tolerance. Returns
/// InvalidArgument for zero units or zero permutations.
Result<ImportanceEstimate> TmcShapleyValues(const UtilityFunction& utility,
                                            const TmcShapleyOptions& options);

/// Exact Shapley values by full subset enumeration; exponential, only for
/// n <= ~20. Used as the ground truth in tests. Returns InvalidArgument for
/// larger n.
Result<std::vector<double>> ExactShapleyValues(const UtilityFunction& utility,
                                               size_t max_units = 20);

/// --- Banzhaf values (Wang & Jia 2023) ----------------------------------------

struct BanzhafOptions : EstimatorOptions {
  size_t num_samples = 500;  ///< random subsets drawn
};

/// Maximum-sample-reuse (MSR) Banzhaf estimator: every sampled subset updates
/// the estimate of *all* units (phi_i = mean[v(S) | i in S] - mean[v(S) |
/// i not in S]). Samples run as 16-sample chunks (one Rng stream per sample
/// index); with convergence_tolerance > 0, sampling stops at the first
/// 128-sample wave where every std error is within tolerance. Returns
/// InvalidArgument for zero units or zero samples.
Result<ImportanceEstimate> BanzhafValues(const UtilityFunction& utility,
                                         const BanzhafOptions& options);

/// Exact Banzhaf values by subset enumeration (n <= ~20).
Result<std::vector<double>> ExactBanzhafValues(const UtilityFunction& utility,
                                               size_t max_units = 20);

/// --- Beta Shapley (Kwon & Zou 2022) ------------------------------------------

struct BetaShapleyOptions : EstimatorOptions {
  double alpha = 1.0;  ///< Beta(alpha, beta); (1,1) recovers Shapley
  double beta = 1.0;
  size_t samples_per_unit = 64;
};

/// Beta(alpha, beta)-Shapley semivalue estimated by stratified cardinality
/// sampling: for each unit, sample a coalition size from the Beta-induced
/// cardinality distribution, then a uniform coalition of that size, and
/// average the marginal contributions. Beta(1, 1) is an unbiased Shapley
/// estimator; larger alpha emphasizes small coalitions (the noise-reduced
/// regime recommended by Kwon & Zou, e.g. Beta(16, 1)), larger beta
/// emphasizes large coalitions. Units are independent tasks (one Rng stream
/// per unit); with convergence_tolerance > 0, each unit stops independently
/// once its std error is within tolerance (after at least 8 samples). Returns
/// InvalidArgument for zero units or zero samples_per_unit.
Result<ImportanceEstimate> BetaShapleyValues(const UtilityFunction& utility,
                                             const BetaShapleyOptions& options);

/// The Beta-induced distribution over coalition sizes j in {0, ..., n-1}
/// (probability the coalition S, excluding the target unit, has size j).
/// Exposed for tests: Beta(1,1) must be uniform.
std::vector<double> BetaShapleyCardinalityWeights(size_t n, double alpha,
                                                  double beta);

}  // namespace nde

#endif  // NDE_IMPORTANCE_GAME_VALUES_H_
