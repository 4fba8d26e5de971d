// One contract suite for the five importance estimators — leave-one-out,
// TMC-Shapley (with and without truncation), MSR Banzhaf, Beta-Shapley and
// the closed-form KNN-Shapley — which all run their waves through one runner
// (importance/waves.h). A typed fixture holds every estimator to the same
// contracts:
//  - DESIGN.md §8: bit-identical values, std errors and evaluation counts at
//    1, 2 and 8 threads with a ragged final wave, and identical progress
//    sequences;
//  - DESIGN.md §11: a cancel or a lost pool task stops the run at a wave
//    boundary, and the Monte-Carlo estimators keep exactly the completed
//    waves (the partial estimate equals a clean one-wave run), while LOO and
//    KNN-Shapley return the cause; a cancel is not a fault, so health stays
//    OK; a utility fault is typed and replays identically at any thread
//    count;
//  - bad input returns InvalidArgument.
// A calibration property then checks that the reported std errors cover
// ExactShapleyValues / ExactBanzhafValues at close to the nominal rate on
// generated games. The suite arms failpoints and fans estimators across
// threads, so it carries the ctest labels `chaos` and `threads` (the `asan`
// and `tsan` presets run it under ASan+UBSan and TSan).

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/progress.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/synthetic.h"
#include "importance/estimator_options.h"
#include "importance/game_values.h"
#include "importance/knn_shapley.h"
#include "importance/utility.h"
#include "importance/waves.h"
#include "ml/knn.h"
#include "telemetry/health.h"

namespace nde {
namespace {

class LambdaUtility : public UtilityFunction {
 public:
  LambdaUtility(size_t n, std::function<double(const std::vector<size_t>&)> fn)
      : n_(n), fn_(std::move(fn)) {}

  double Evaluate(const std::vector<size_t>& subset) const override {
    return fn_(subset);
  }
  size_t num_units() const override { return n_; }

 private:
  size_t n_;
  std::function<double(const std::vector<size_t>&)> fn_;
};

/// v(S) = sqrt(sum of (i + 1) over S): non-additive, so marginals differ by
/// position and every estimator has something to average.
LambdaUtility SqrtGame(size_t n) {
  return LambdaUtility(n, [](const std::vector<size_t>& subset) {
    double v = 0.0;
    for (size_t i : subset) v += static_cast<double>(i + 1);
    return std::sqrt(v);
  });
}

MlDataset Blobs(size_t n, uint64_t seed) {
  BlobsOptions blob;
  blob.num_examples = n;
  blob.num_features = 3;
  blob.noise = 1.5;
  blob.seed = seed;
  blob.center_seed = 99;
  return MakeBlobs(blob);
}

/// The observable outputs of one estimator call.
struct Outcome {
  Status status;  ///< The call's own Status.
  std::vector<double> values;
  std::vector<double> std_errors;
  size_t evaluations = 0;
  bool aborted_early = false;
  Status abort_cause;
};

Outcome FromEstimate(const Result<ImportanceEstimate>& result) {
  Outcome outcome;
  outcome.status = result.status();
  if (!result.ok()) return outcome;
  outcome.values = result->values;
  outcome.std_errors = result->std_errors;
  outcome.evaluations = result->utility_evaluations;
  outcome.aborted_early = result->aborted_early;
  outcome.abort_cause = result->abort_cause;
  return outcome;
}

void ExpectSameOutcome(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.status.ToString(), b.status.ToString());
  EXPECT_EQ(a.values, b.values);
  EXPECT_EQ(a.std_errors, b.std_errors);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.aborted_early, b.aborted_early);
  EXPECT_EQ(a.abort_cause.ToString(), b.abort_cause.ToString());
}

// --- One traits struct per estimator ----------------------------------------
//
// `budget` is in the unit the estimator's progress reports `completed` in:
// permutations (TMC), samples (Banzhaf), units (LOO, Beta-Shapley) or
// validation points (KNN-Shapley); `kWave` is that many per wave.
// `OneWaveReference` is what a clean run whose budget is the first wave
// returns. `InvalidInputs` runs every zero-units / zero-budget call.

struct LooTraits {
  static constexpr const char* kPhase = "leave_one_out";
  static constexpr size_t kWave = 64;
  static constexpr bool kKeepsCompletedWaves = false;
  static constexpr bool kEvaluatesUtility = true;

  static Outcome Run(size_t budget, const EstimatorOptions& options) {
    return FromEstimate(LeaveOneOutValues(SqrtGame(budget), options));
  }
  static std::vector<Status> InvalidInputs() {
    return {LeaveOneOutValues(SqrtGame(0)).status()};
  }
};

template <bool kTruncated>
struct TmcTraits {
  static constexpr const char* kPhase = "tmc_shapley";
  static constexpr size_t kWave = 32;
  static constexpr bool kKeepsCompletedWaves = true;
  static constexpr bool kEvaluatesUtility = true;

  static Outcome Run(size_t budget, const EstimatorOptions& base) {
    TmcShapleyOptions options;
    static_cast<EstimatorOptions&>(options) = base;
    options.num_permutations = budget;
    // Truncation decisions depend only on each permutation's own stream and
    // the utility values, so they too must be thread-count invariant.
    options.truncation_tolerance = kTruncated ? 0.4 : 0.0;
    options.seed = 7;
    return FromEstimate(TmcShapleyValues(SqrtGame(10), options));
  }
  static Outcome OneWaveReference(size_t /*budget*/) {
    return Run(kWave, EstimatorOptions{});
  }
  static std::vector<Status> InvalidInputs() {
    TmcShapleyOptions zero_budget;
    zero_budget.num_permutations = 0;
    return {TmcShapleyValues(SqrtGame(0), {}).status(),
            TmcShapleyValues(SqrtGame(4), zero_budget).status()};
  }
};

struct BanzhafTraits {
  static constexpr const char* kPhase = "banzhaf";
  static constexpr size_t kWave = 128;  // 8 chunks of 16 samples.
  static constexpr bool kKeepsCompletedWaves = true;
  static constexpr bool kEvaluatesUtility = true;

  static Outcome Run(size_t budget, const EstimatorOptions& base) {
    BanzhafOptions options;
    static_cast<EstimatorOptions&>(options) = base;
    options.num_samples = budget;
    options.seed = 3;
    return FromEstimate(BanzhafValues(SqrtGame(6), options));
  }
  static Outcome OneWaveReference(size_t /*budget*/) {
    return Run(kWave, EstimatorOptions{});
  }
  static std::vector<Status> InvalidInputs() {
    BanzhafOptions zero_budget;
    zero_budget.num_samples = 0;
    return {BanzhafValues(SqrtGame(0), {}).status(),
            BanzhafValues(SqrtGame(4), zero_budget).status()};
  }
};

struct BetaTraits {
  static constexpr const char* kPhase = "beta_shapley";
  static constexpr size_t kWave = 16;
  static constexpr bool kKeepsCompletedWaves = true;
  static constexpr bool kEvaluatesUtility = true;

  static Outcome Run(size_t budget, const EstimatorOptions& base) {
    BetaShapleyOptions options;
    static_cast<EstimatorOptions&>(options) = base;
    options.alpha = 4.0;
    options.samples_per_unit = 12;
    options.seed = 5;
    return FromEstimate(BetaShapleyValues(SqrtGame(budget), options));
  }
  /// Beta-Shapley's waves are its units, so the one-wave run is the first
  /// wave's units of the clean run, with the rest never reached (0).
  static Outcome OneWaveReference(size_t budget) {
    Outcome clean = Run(budget, EstimatorOptions{});
    for (size_t i = kWave; i < clean.values.size(); ++i) {
      clean.values[i] = 0.0;
      clean.std_errors[i] = 0.0;
    }
    return clean;
  }
  static std::vector<Status> InvalidInputs() {
    BetaShapleyOptions zero_budget;
    zero_budget.samples_per_unit = 0;
    return {BetaShapleyValues(SqrtGame(0), {}).status(),
            BetaShapleyValues(SqrtGame(4), zero_budget).status()};
  }
};

struct KnnShapleyTraits {
  static constexpr const char* kPhase = "knn_shapley";
  static constexpr size_t kWave = 64;  // 8 chunks of 8 validation points.
  static constexpr bool kKeepsCompletedWaves = false;
  static constexpr bool kEvaluatesUtility = false;

  static Outcome Run(size_t budget, const EstimatorOptions& options) {
    return FromEstimate(
        KnnShapleyValues(Blobs(30, 42), Blobs(budget, 43), 3, options));
  }
  /// The closed form checks its datasets with NDE_CHECK; it has no
  /// InvalidArgument path.
  static std::vector<Status> InvalidInputs() { return {}; }
};

template <typename Traits>
class EstimatorContractTest : public ::testing::Test {
 protected:
  /// Two full waves plus a ragged third.
  static constexpr size_t kBudget = 2 * Traits::kWave + Traits::kWave / 4 + 1;

  void SetUp() override { Reset(); }
  void TearDown() override { Reset(); }

  static void Reset() {
    failpoint::DisarmAll();
    failpoint::ResetStats();
    telemetry::SetHealthy();
  }

  static EstimatorOptions Options(size_t threads) {
    EstimatorOptions options;
    options.num_threads = threads;
    return options;
  }

  /// Runs with a progress recorder attached.
  static Outcome RunRecorded(EstimatorOptions options,
                             std::vector<ProgressUpdate>* updates) {
    options.progress = [updates](const ProgressUpdate& update) {
      updates->push_back(update);
    };
    return Traits::Run(kBudget, options);
  }

  /// Checks an outcome stopped after exactly its first wave by `code`.
  static void ExpectStoppedAfterFirstWave(const Outcome& outcome,
                                          StatusCode code) {
    if constexpr (Traits::kKeepsCompletedWaves) {
      ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
      EXPECT_TRUE(outcome.aborted_early);
      EXPECT_EQ(outcome.abort_cause.code(), code);
      Outcome reference = Traits::OneWaveReference(kBudget);
      ASSERT_TRUE(reference.status.ok());
      EXPECT_EQ(outcome.values, reference.values);
      EXPECT_EQ(outcome.std_errors, reference.std_errors);
    } else {
      EXPECT_EQ(outcome.status.code(), code) << outcome.status.ToString();
    }
  }
};

using Estimators =
    ::testing::Types<LooTraits, TmcTraits<false>, TmcTraits<true>,
                     BanzhafTraits, BetaTraits, KnnShapleyTraits>;

class EstimatorNames {
 public:
  template <typename T>
  static std::string GetName(int index) {
    static const char* const kNames[] = {"Loo",     "Tmc",  "TruncatedTmc",
                                         "Banzhaf", "Beta", "KnnShapley"};
    return kNames[index];
  }
};
TYPED_TEST_SUITE(EstimatorContractTest, Estimators, EstimatorNames);

TYPED_TEST(EstimatorContractTest, IdenticalAcrossThreadCounts) {
  constexpr size_t kBudget = TestFixture::kBudget;
  Outcome one = TypeParam::Run(kBudget, TestFixture::Options(1));
  ASSERT_TRUE(one.status.ok()) << one.status.ToString();
  ASSERT_FALSE(one.values.empty());
  EXPECT_FALSE(one.aborted_early);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    SCOPED_TRACE(threads);
    ExpectSameOutcome(TypeParam::Run(kBudget, TestFixture::Options(threads)),
                      one);
  }
}

TYPED_TEST(EstimatorContractTest, ProgressSequenceIdenticalAtOneAndEight) {
  std::vector<ProgressUpdate> one, eight;
  TestFixture::RunRecorded(TestFixture::Options(1), &one);
  TestFixture::RunRecorded(TestFixture::Options(8), &eight);
  ASSERT_EQ(one.size(), 3u);  // Two full waves and the ragged one.
  EXPECT_EQ(one.back().completed, TestFixture::kBudget);
  EXPECT_EQ(one.back().total, TestFixture::kBudget);
  // Only the sampling estimators report evaluations and an error estimate.
  EXPECT_EQ(one.back().utility_evaluations > 0, TypeParam::kEvaluatesUtility);
  EXPECT_EQ(one.back().max_std_error > 0.0, TypeParam::kKeepsCompletedWaves);
  ASSERT_EQ(eight.size(), one.size());
  for (size_t w = 0; w < one.size(); ++w) {
    SCOPED_TRACE(w);
    EXPECT_STREQ(one[w].phase, TypeParam::kPhase);
    EXPECT_STREQ(eight[w].phase, one[w].phase);
    EXPECT_EQ(eight[w].completed, one[w].completed);
    EXPECT_EQ(eight[w].total, one[w].total);
    EXPECT_EQ(eight[w].utility_evaluations, one[w].utility_evaluations);
    EXPECT_EQ(eight[w].max_std_error, one[w].max_std_error);
  }
}

TYPED_TEST(EstimatorContractTest, CancelAfterFirstWaveKeepsThatWave) {
  for (size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE(threads);
    std::atomic<bool> cancel{false};
    std::vector<ProgressUpdate> updates;
    EstimatorOptions options = TestFixture::Options(threads);
    options.cancel = &cancel;
    options.progress = [&](const ProgressUpdate& update) {
      updates.push_back(update);
      cancel.store(true);  // As DELETE /jobs/<id> would, mid-run.
    };
    Outcome outcome = TypeParam::Run(TestFixture::kBudget, options);
    EXPECT_EQ(updates.size(), 1u);
    TestFixture::ExpectStoppedAfterFirstWave(outcome, StatusCode::kCancelled);
    // A cancel is the caller's decision, not a fault.
    EXPECT_TRUE(telemetry::IsHealthy());
  }
}

TYPED_TEST(EstimatorContractTest, PoolFaultInSecondWaveIsTypedAbort) {
  // Four workers per wave, so pool tasks 1-4 are wave 1's and task 5 is the
  // first of wave 2. (One thread runs inline and never enters the pool.)
  ASSERT_TRUE(
      failpoint::Arm("threadpool.task=error(unavailable:worker fault)#5x1")
          .ok());
  std::vector<ProgressUpdate> updates;
  Outcome outcome =
      TestFixture::RunRecorded(TestFixture::Options(4), &updates);
  EXPECT_EQ(updates.size(), 1u);
  failpoint::DisarmAll();
  TestFixture::ExpectStoppedAfterFirstWave(outcome, StatusCode::kUnavailable);
  const Status& cause = TypeParam::kKeepsCompletedWaves ? outcome.abort_cause
                                                        : outcome.status;
  EXPECT_NE(cause.message().find("worker fault"), std::string::npos);
  EXPECT_FALSE(telemetry::IsHealthy());
}

TYPED_TEST(EstimatorContractTest, UtilityFaultIsTypedAndScheduleInvariant) {
  if constexpr (!TypeParam::kEvaluatesUtility) {
    // The closed form evaluates no utility, so the fault cannot reach it.
    EstimatorOptions options = TestFixture::Options(4);
    Outcome clean = TypeParam::Run(TestFixture::kBudget, options);
    ASSERT_TRUE(failpoint::Arm("utility.evaluate=error(internal:boom)").ok());
    ExpectSameOutcome(TypeParam::Run(TestFixture::kBudget, options), clean);
  } else {
    // Keyed injection decides per coalition, never per schedule. Pick the
    // first spec whose fault lands in the second wave at one thread.
    std::string spec;
    Outcome one;
    for (double rate : {0.002, 0.01, 0.05}) {
      for (int seed = 0; seed < 50 && spec.empty(); ++seed) {
        std::string candidate = StrFormat(
            "utility.evaluate=error(internal:boom)@%g/%d", rate, seed);
        ASSERT_TRUE(failpoint::Arm(candidate).ok());
        std::vector<ProgressUpdate> updates;
        one = TestFixture::RunRecorded(TestFixture::Options(1), &updates);
        bool aborted = !one.status.ok() || one.aborted_early;
        if (aborted && updates.size() == 1) spec = candidate;
      }
      if (!spec.empty()) break;
    }
    ASSERT_FALSE(spec.empty()) << "no spec faults the second wave";
    SCOPED_TRACE(spec);
    failpoint::DisarmAll();  // The reference run is a clean one.
    TestFixture::ExpectStoppedAfterFirstWave(one, StatusCode::kInternal);
    // The cause is the wave's first failure in index order at any thread
    // count, so the whole outcome replays.
    for (size_t threads : {size_t{2}, size_t{8}}) {
      SCOPED_TRACE(threads);
      ASSERT_TRUE(failpoint::Arm(spec).ok());
      std::vector<ProgressUpdate> updates;
      ExpectSameOutcome(
          TestFixture::RunRecorded(TestFixture::Options(threads), &updates),
          one);
    }
    EXPECT_FALSE(telemetry::IsHealthy());
  }
}

TYPED_TEST(EstimatorContractTest, AbortBeforeAnyWaveReturnsTheCause) {
  // No wave completed, so there is no partial estimate to keep: every
  // estimator returns the cause as its Status.
  ASSERT_TRUE(
      failpoint::Arm("threadpool.task=error(unavailable:worker fault)#1x1")
          .ok());
  Outcome pool_fault = TypeParam::Run(TestFixture::kBudget,
                                      TestFixture::Options(4));
  EXPECT_EQ(pool_fault.status.code(), StatusCode::kUnavailable)
      << pool_fault.status.ToString();
  if constexpr (TypeParam::kEvaluatesUtility) {
    ASSERT_TRUE(failpoint::Arm("utility.evaluate=error(internal:down)").ok());
    Outcome utility_fault = TypeParam::Run(TestFixture::kBudget,
                                           TestFixture::Options(4));
    EXPECT_EQ(utility_fault.status.ToString(), "internal: down");
  }
  EXPECT_FALSE(telemetry::IsHealthy());
}

TYPED_TEST(EstimatorContractTest, ZeroUnitsOrBudgetIsInvalidArgument) {
  for (const Status& status : TypeParam::InvalidInputs()) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  }
}

// --- The runner's own index-order rule ---------------------------------------

TEST(WaveRunnerTest, FirstFailureInIndexOrderIsTheCauseNotTheFirstInTime) {
  // Tasks 2 and 5 fail with different messages; task 2 fails last in time.
  EstimatorOptions options;
  options.num_threads = 8;
  size_t folds = 0;
  WaveOutcome outcome = RunWaves(
      options, "contract", "contract_wave", 16, 8,
      [](size_t i) -> Status {
        if (i == 2) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          return Status::Internal("task 2");
        }
        if (i == 5) return Status::Unavailable("task 5");
        return Status::OK();
      },
      [&](size_t, size_t end) {
        ++folds;
        return WaveTally{end, 16};
      });
  EXPECT_EQ(outcome.abort_cause.ToString(), "internal: task 2");
  EXPECT_EQ(folds, 0u);  // The failed wave is discarded whole.
  telemetry::SetHealthy();
}

// --- std_errors calibration -------------------------------------------------
//
// On generated games with n in [6, 12], count how often the reported 95%
// interval |estimate - exact| <= 1.96 * std_error covers the exact value,
// over 20 estimator seeds per game.

enum class Family { kTanhAdditive, kKnnAccuracy, kWeightedThreshold };

std::unique_ptr<UtilityFunction> MakeGame(Family family, size_t n,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.NextGaussian();
  switch (family) {
    case Family::kTanhAdditive:
      return std::make_unique<LambdaUtility>(
          n, [weights](const std::vector<size_t>& subset) {
            double total = 0.0;
            for (size_t i : subset) total += weights[i];
            return std::tanh(total);
          });
    case Family::kWeightedThreshold: {
      double all = 0.0;
      for (double w : weights) all += std::fabs(w);
      return std::make_unique<LambdaUtility>(
          n, [weights, all](const std::vector<size_t>& subset) {
            double total = 0.0;
            for (size_t i : subset) total += std::fabs(weights[i]);
            return total >= 0.4 * all ? 1.0 : 0.0;
          });
    }
    case Family::kKnnAccuracy:
      break;
  }
  return std::make_unique<ModelAccuracyUtility>(
      [] { return std::make_unique<KnnClassifier>(3); }, Blobs(n, seed),
      Blobs(30, seed + 1));
}

struct Coverage {
  size_t covered = 0;
  size_t total = 0;
  double rate() const {
    return total == 0 ? 0.0
                      : static_cast<double>(covered) /
                            static_cast<double>(total);
  }
};

void Tally(const ImportanceEstimate& estimate,
           const std::vector<double>& exact, Coverage* coverage) {
  for (size_t i = 0; i < exact.size(); ++i) {
    ++coverage->total;
    if (std::fabs(estimate.values[i] - exact[i]) <=
        1.96 * estimate.std_errors[i]) {
      ++coverage->covered;
    }
  }
}

TEST(StdErrorCalibrationTest, ReportedErrorsCoverExactValues) {
  constexpr size_t kGamesPerFamily = 13;
  constexpr uint64_t kSeedsPerGame = 20;
  const Family kFamilies[] = {Family::kTanhAdditive, Family::kKnnAccuracy,
                              Family::kWeightedThreshold};
  const char* const kFamilyNames[] = {"tanh-additive", "knn-accuracy",
                                      "weighted-threshold"};
  for (size_t f = 0; f < 3; ++f) {
    Coverage tmc, banzhaf, beta;
    for (size_t g = 0; g < kGamesPerFamily; ++g) {
      size_t n = 6 + g % 7;
      std::unique_ptr<UtilityFunction> game =
          MakeGame(kFamilies[f], n, 1000 * (f + 1) + g);
      std::vector<double> exact_shapley = ExactShapleyValues(*game).value();
      std::vector<double> exact_banzhaf = ExactBanzhafValues(*game).value();
      for (uint64_t seed = 0; seed < kSeedsPerGame; ++seed) {
        TmcShapleyOptions tmc_options;
        tmc_options.num_permutations = 64;
        tmc_options.truncation_tolerance = 0.0;
        tmc_options.num_threads = 1;
        tmc_options.seed = seed;
        Tally(TmcShapleyValues(*game, tmc_options).value(), exact_shapley,
              &tmc);
        BanzhafOptions banzhaf_options;
        banzhaf_options.num_samples = 256;
        banzhaf_options.num_threads = 1;
        banzhaf_options.seed = seed;
        Tally(BanzhafValues(*game, banzhaf_options).value(), exact_banzhaf,
              &banzhaf);
        BetaShapleyOptions beta_options;
        beta_options.samples_per_unit = 64;
        beta_options.num_threads = 1;
        beta_options.seed = seed;
        Tally(BetaShapleyValues(*game, beta_options).value(), exact_shapley,
              &beta);
      }
    }
    std::printf("coverage %-18s tmc %.3f  banzhaf %.3f  beta %.3f\n",
                kFamilyNames[f], tmc.rate(), banzhaf.rate(), beta.rate());
    SCOPED_TRACE(kFamilyNames[f]);
    EXPECT_GE(banzhaf.rate(), 0.90);
    if (kFamilies[f] == Family::kWeightedThreshold) {
      // Step games often give every sampled marginal of a unit the same
      // value, so the reported std error is 0 while the estimate misses:
      // a known calibration gap (ROADMAP), bounded here.
      EXPECT_GE(tmc.rate(), 0.80);
      EXPECT_GE(beta.rate(), 0.80);
    } else {
      EXPECT_GE(tmc.rate(), 0.90);
      EXPECT_GE(beta.rate(), 0.90);
    }
  }
}

}  // namespace
}  // namespace nde
