// The parallel runtime's central promise (DESIGN.md §8): for a fixed seed,
// every estimator returns bit-identical values no matter how many worker
// threads run it. The per-estimator thread sweep with ragged waves lives in
// estimator_contract_test; these tests extend the promise across num_threads
// {1, 2, 8} to early stopping, the utility fast path and kernels, the
// observability hooks, and the serving layer.

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/log.h"
#include "common/parallel.h"
#include "common/progress.h"
#include "common/rng.h"
#include "common/trace_context.h"
#include "data/csv.h"
#include "datagen/synthetic.h"
#include "nde/engine.h"
#include "nde/job_api.h"
#include "nde/registry.h"
#include "importance/game_values.h"
#include "importance/utility.h"
#include "ml/knn.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "proptest/check.h"
#include "proptest/domain.h"
#include "proptest/gen.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "telemetry/run_report.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

#include "cold_reference.h"

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

LambdaUtility NonAdditiveGame(size_t n) {
  return LambdaUtility(n, [](const std::vector<size_t>& subset) {
    double v = 0.0;
    for (size_t i : subset) v += static_cast<double>(i + 1);
    return std::sqrt(v);
  });
}

const std::vector<size_t> kThreadCounts = {1, 2, 8};

TEST(DeterminismTest, ConvergenceToleranceStopsEarlyAndStaysDeterministic) {
  LambdaUtility game = NonAdditiveGame(6);
  TmcShapleyOptions full;
  full.num_permutations = 4096;
  full.truncation_tolerance = 0.0;
  full.seed = 13;
  TmcShapleyOptions early = full;
  early.convergence_tolerance = 0.05;

  ImportanceEstimate full_run = TmcShapleyValues(game, full).value();
  std::vector<ImportanceEstimate> runs;
  for (size_t threads : kThreadCounts) {
    early.num_threads = threads;
    runs.push_back(TmcShapleyValues(game, early).value());
  }
  EXPECT_LT(runs[0].utility_evaluations, full_run.utility_evaluations);
  for (double err : runs[0].std_errors) EXPECT_LE(err, 0.05);
  for (size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r].values, runs[0].values) << kThreadCounts[r] << " threads";
    EXPECT_EQ(runs[r].utility_evaluations, runs[0].utility_evaluations);
  }
}

TEST(DeterminismTest, NumThreadsUsedIsReported) {
  LambdaUtility game = NonAdditiveGame(6);
  TmcShapleyOptions options;
  options.num_permutations = 64;
  options.num_threads = 2;
  ImportanceEstimate estimate = TmcShapleyValues(game, options).value();
  EXPECT_EQ(estimate.num_threads_used, 2u);
  options.num_threads = 1;
  estimate = TmcShapleyValues(game, options).value();
  EXPECT_EQ(estimate.num_threads_used, 1u);
}

// ---------------------------------------------------------------------------
// Utility fast path (DESIGN.md §9): the scorer context every game estimator
// builds, and TMC's prefix scan over it, must leave estimates bit-identical —
// same values, same std errors, same eval counts — to the cold reference, at
// every thread count. Warm start is the one *opt-in approximate* knob; its
// results must still be identical across thread counts.
// ---------------------------------------------------------------------------

MlDataset FastPathTrain() {
  BlobsOptions blob;
  blob.num_examples = 24;
  blob.num_features = 4;
  blob.seed = 17;
  blob.center_seed = 99;
  return MakeBlobs(blob);
}

MlDataset FastPathValidation() {
  BlobsOptions blob;
  blob.num_examples = 15;
  blob.num_features = 4;
  blob.seed = 18;
  blob.center_seed = 99;
  return MakeBlobs(blob);
}

ClassifierFactory KnnFactory() {
  return []() { return std::make_unique<KnnClassifier>(3); };
}

ClassifierFactory NbFactory() {
  return []() { return std::make_unique<GaussianNaiveBayes>(); };
}

ClassifierFactory SmallLogregFactory() {
  LogisticRegressionOptions options;
  options.epochs = 30;
  options.warm_start_epochs = 6;
  return [options]() { return std::make_unique<LogisticRegression>(options); };
}

TmcShapleyOptions FastPathTmcOptions() {
  TmcShapleyOptions options;
  options.num_permutations = 33;  // Ragged final wave.
  options.seed = 21;
  return options;
}

TEST(FastPathBitIdentityTest, TmcIdenticalAcrossAllFastPathConfigs) {
  MlDataset train = FastPathTrain();
  MlDataset validation = FastPathValidation();

  // Baseline: the cold reference, single-threaded.
  ModelAccuracyUtility baseline_utility(KnnFactory(), train, validation);
  TmcShapleyOptions baseline_options = FastPathTmcOptions();
  baseline_options.num_threads = 1;
  ImportanceEstimate baseline =
      TmcShapleyValues(ColdReference(baseline_utility), baseline_options)
          .value();

  for (bool cold : {true, false}) {
    for (bool warm_start : {false, true}) {
      for (size_t threads : kThreadCounts) {
        ModelAccuracyUtility utility(KnnFactory(), train, validation);
        ColdReference reference(utility);
        TmcShapleyOptions options = FastPathTmcOptions();
        // KNN has an exact scorer, so opting into warm start must be a no-op
        // for values.
        options.warm_start = warm_start;
        options.num_threads = threads;
        ImportanceEstimate run = (cold ? TmcShapleyValues(reference, options)
                                       : TmcShapleyValues(utility, options))
                                     .value();
        std::string config = "cold=" + std::to_string(cold) +
                             " warm_start=" + std::to_string(warm_start) +
                             " threads=" + std::to_string(threads);
        EXPECT_EQ(run.values, baseline.values) << config;
        EXPECT_EQ(run.std_errors, baseline.std_errors) << config;
        EXPECT_EQ(run.utility_evaluations, baseline.utility_evaluations)
            << config;
        EXPECT_EQ(utility.num_evaluations(),
                  baseline_utility.num_evaluations())
            << config;
      }
    }
  }
}

/// One game estimator at a given thread count, with this suite's budgets.
struct GameEstimator {
  const char* name;
  std::function<Result<ImportanceEstimate>(const UtilityFunction&, size_t)>
      run;
};

std::vector<GameEstimator> GameEstimators() {
  return {
      {"loo",
       [](const UtilityFunction& utility, size_t threads) {
         EstimatorOptions options;
         options.num_threads = threads;
         return LeaveOneOutValues(utility, options);
       }},
      {"tmc_shapley",
       [](const UtilityFunction& utility, size_t threads) {
         TmcShapleyOptions options = FastPathTmcOptions();
         options.num_threads = threads;
         return TmcShapleyValues(utility, options);
       }},
      {"banzhaf",
       [](const UtilityFunction& utility, size_t threads) {
         BanzhafOptions options;
         options.num_samples = 120;
         options.seed = 9;
         options.num_threads = threads;
         return BanzhafValues(utility, options);
       }},
      {"beta_shapley",
       [](const UtilityFunction& utility, size_t threads) {
         BetaShapleyOptions options;
         options.alpha = 1.0;
         options.beta = 16.0;
         options.samples_per_unit = 6;
         options.seed = 31;
         options.num_threads = threads;
         return BetaShapleyValues(utility, options);
       }},
  };
}

MlDataset ThreeClassBlobs(size_t n, uint64_t seed) {
  BlobsOptions blob;
  blob.num_examples = n;
  blob.num_features = 4;
  blob.num_classes = 3;
  blob.seed = seed;
  blob.center_seed = 99;
  return MakeBlobs(blob);
}

TEST(FastPathBitIdentityTest, EveryGameEstimatorMatchesTheColdReference) {
  // Each estimator prepares its utility before the first evaluation, so a
  // KNN utility scores every coalition from its scorer context and trains
  // only the model that builds it. Three classes keep KNN windows and NB
  // class moments busy. The last training set has one NaN feature in every
  // row, so every distance is NaN and only the neighbor order's NaN rule and
  // index tie-break rank the rows (what one `inf` CSV cell does to a scaled
  // column).
  MlDataset nan_train = FastPathTrain();
  for (size_t r = 0; r < nan_train.size(); ++r) {
    nan_train.features(r, 0) = std::nan("");
  }
  struct Input {
    std::string name;
    MlDataset train;
    MlDataset validation;
  };
  const std::vector<Input> inputs = {
      {"blobs", FastPathTrain(), FastPathValidation()},
      {"three_classes", ThreeClassBlobs(24, 19), ThreeClassBlobs(15, 20)},
      {"nan_distances", nan_train, FastPathValidation()}};
  const std::vector<std::pair<std::string, ClassifierFactory>> models = {
      {"knn", KnnFactory()}, {"gaussian_nb", NbFactory()}};
  for (const auto& [model_name, factory] : models) {
    for (const auto& [input_name, train, validation] : inputs) {
      for (const GameEstimator& estimator : GameEstimators()) {
        SCOPED_TRACE(model_name + " on " + input_name + ", " +
                     estimator.name);
        ModelAccuracyUtility cold_utility(factory, train, validation);
        ImportanceEstimate cold =
            estimator.run(ColdReference(cold_utility), 1).value();
        for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
          SCOPED_TRACE(threads);
          std::atomic<size_t> models_trained{0};
          ModelAccuracyUtility utility(
              [&models_trained, &factory] {
                models_trained.fetch_add(1, std::memory_order_relaxed);
                return factory();
              },
              train, validation);
          ImportanceEstimate run = estimator.run(utility, threads).value();
          EXPECT_EQ(run.values, cold.values);
          EXPECT_EQ(run.std_errors, cold.std_errors);
          EXPECT_EQ(run.utility_evaluations, cold.utility_evaluations);
          EXPECT_EQ(utility.num_evaluations(), cold_utility.num_evaluations());
          if (model_name == "knn") {
            EXPECT_EQ(models_trained.load(), 1u);
          }
        }
      }
    }
  }
}

TEST(FastPathBitIdentityTest, WarmStartLogregDeterministicAcrossThreads) {
  // Logistic regression has no exact scorer, so warm_start=true switches TMC
  // to the approximate warm-started scan. The *approximation* must still be
  // bit-identical across thread counts.
  MlDataset train = FastPathTrain();
  MlDataset validation = FastPathValidation();
  TmcShapleyOptions options = FastPathTmcOptions();
  options.num_permutations = 8;
  options.warm_start = true;

  std::vector<ImportanceEstimate> runs;
  for (size_t threads : kThreadCounts) {
    ModelAccuracyUtility utility(SmallLogregFactory(), train, validation);
    options.num_threads = threads;
    runs.push_back(TmcShapleyValues(utility, options).value());
  }
  for (size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[r].values, runs[0].values) << "run " << r;
    EXPECT_EQ(runs[r].std_errors, runs[0].std_errors);
    EXPECT_EQ(runs[r].utility_evaluations, runs[0].utility_evaluations);
  }
}

TEST(FastPathBitIdentityTest,
     LogregWithoutWarmStartFallsBackToExactEvaluate) {
  // warm_start off + no exact scorer: NewPrefixScan returns nullptr and the
  // scan must match the plain per-prefix Evaluate path exactly.
  MlDataset train = FastPathTrain();
  MlDataset validation = FastPathValidation();
  TmcShapleyOptions options = FastPathTmcOptions();
  options.num_permutations = 4;
  options.num_threads = 1;

  ModelAccuracyUtility scan_utility(SmallLogregFactory(), train, validation);
  ImportanceEstimate with_scan = TmcShapleyValues(scan_utility, options).value();

  ModelAccuracyUtility plain_utility(SmallLogregFactory(), train, validation);
  ImportanceEstimate plain =
      TmcShapleyValues(ColdReference(plain_utility), options).value();

  EXPECT_EQ(with_scan.values, plain.values);
  EXPECT_EQ(with_scan.std_errors, plain.std_errors);
  EXPECT_EQ(with_scan.utility_evaluations, plain.utility_evaluations);
}

// ---------------------------------------------------------------------------
// Coalition-scoring kernels (DESIGN.md §14): the SoA KNN kernel and the
// incremental Gaussian-NB scorer must be bit-identical to the slow path
// (the cold reference, retraining per prefix) at every thread count.
// ---------------------------------------------------------------------------

TEST(KernelBitIdentityTest, KnnSoaIdenticalToSlowPathAcrossThreads) {
  MlDataset train = FastPathTrain();
  MlDataset validation = FastPathValidation();

  ModelAccuracyUtility baseline_utility(KnnFactory(), train, validation);
  TmcShapleyOptions baseline_options = FastPathTmcOptions();
  baseline_options.num_threads = 1;
  ImportanceEstimate baseline =
      TmcShapleyValues(ColdReference(baseline_utility), baseline_options)
          .value();

  for (size_t threads : kThreadCounts) {
    ModelAccuracyUtility utility(KnnFactory(), train, validation);
    TmcShapleyOptions options = FastPathTmcOptions();
    options.num_threads = threads;
    ImportanceEstimate run = TmcShapleyValues(utility, options).value();
    std::string config = "threads=" + std::to_string(threads);
    EXPECT_EQ(run.values, baseline.values) << config;
    EXPECT_EQ(run.std_errors, baseline.std_errors) << config;
    EXPECT_EQ(run.utility_evaluations, baseline.utility_evaluations) << config;
  }
}

TEST(KernelBitIdentityTest, ScorerContextBuildThreadCountChangesNoBits) {
  // TMC builds the scorer context before its first wave and scores v(N)
  // from it. The build's own thread count must not move a bit: a context
  // built on 1, 2 or 8 threads (waves fixed at 2) yields the cold
  // reference's values, std errors and eval counts. The second shape has
  // near lists (640 training rows make R = 10 against k = 3; 40 points, so
  // 40 build blocks), and its untruncated permutations reach them.
  struct Shape {
    MlDataset train;
    MlDataset validation;
    TmcShapleyOptions options;
  };
  BlobsOptions blob;
  blob.num_examples = 640;
  blob.num_features = 4;
  blob.seed = 19;
  blob.center_seed = 99;
  MlDataset near_train = MakeBlobs(blob);
  blob.num_examples = 40;
  blob.seed = 20;
  TmcShapleyOptions near_options = FastPathTmcOptions();
  near_options.num_permutations = 5;
  near_options.truncation_tolerance = 0.0;
  const Shape shapes[] = {
      {FastPathTrain(), FastPathValidation(), FastPathTmcOptions()},
      {near_train, MakeBlobs(blob), near_options}};
  for (const Shape& shape : shapes) {
    TmcShapleyOptions options = shape.options;
    options.num_threads = 1;
    ModelAccuracyUtility cold_utility(KnnFactory(), shape.train,
                                      shape.validation);
    ImportanceEstimate cold =
        TmcShapleyValues(ColdReference(cold_utility), options).value();

    options.num_threads = 2;
    for (size_t build_threads : kThreadCounts) {
      ModelAccuracyUtility utility(KnnFactory(), shape.train,
                                   shape.validation);
      ASSERT_TRUE(utility.Prepare(build_threads).ok());
      ImportanceEstimate run = TmcShapleyValues(utility, options).value();
      std::string label = std::to_string(shape.train.size()) +
                          " rows, build_threads=" +
                          std::to_string(build_threads);
      EXPECT_EQ(run.values, cold.values) << label;
      EXPECT_EQ(run.std_errors, cold.std_errors) << label;
      EXPECT_EQ(run.utility_evaluations, cold.utility_evaluations) << label;
    }
  }
}

TEST(KernelBitIdentityTest, GaussianNbScanIdenticalToRetrainingAcrossThreads) {
  // The NB incremental scorer (sorted member lists, decremental moments) must
  // reproduce the retrain-per-prefix path exactly, for any Add order the
  // permutations induce and at any thread count.
  MlDataset train = FastPathTrain();
  MlDataset validation = FastPathValidation();
  TmcShapleyOptions options = FastPathTmcOptions();

  options.num_threads = 1;
  ModelAccuracyUtility slow_utility(NbFactory(), train, validation);
  ImportanceEstimate baseline =
      TmcShapleyValues(ColdReference(slow_utility), options).value();

  for (size_t threads : kThreadCounts) {
    ModelAccuracyUtility utility(NbFactory(), train, validation);
    options.num_threads = threads;
    ImportanceEstimate run = TmcShapleyValues(utility, options).value();
    EXPECT_EQ(run.values, baseline.values) << "threads=" << threads;
    EXPECT_EQ(run.std_errors, baseline.std_errors);
    EXPECT_EQ(run.utility_evaluations, baseline.utility_evaluations);
  }
}

// ---------------------------------------------------------------------------
// Observability must not perturb results (DESIGN.md §10): running with a
// progress callback, a run report, and verbose logging enabled must produce
// the exact same estimate — and the exact same progress sequence — as a bare
// run, for every thread count.
// ---------------------------------------------------------------------------

TEST(DeterminismTest, ObservabilityHooksDoNotPerturbTmcResults) {
  LambdaUtility game = NonAdditiveGame(8);
  TmcShapleyOptions bare;
  // A budget far past convergence so the tolerance check — not the budget —
  // ends the run, exercising the early-stopping path under observation.
  bare.num_permutations = 4096;
  bare.convergence_tolerance = 0.05;
  bare.seed = 19;
  bare.num_threads = 1;
  ImportanceEstimate baseline = TmcShapleyValues(game, bare).value();

  // Capture log output in a sink so verbose logging runs its full formatting
  // path without spamming test stderr.
  log::Level original_level = log::MinLevel();
  log::SetMinLevel(log::Level::kDebug);
  std::vector<std::string> log_lines;
  log::Logger::Global().SetSink([&log_lines](const log::LogRecord& record) {
    log_lines.push_back(log::FormatText(record));
  });

  std::vector<std::vector<ProgressUpdate>> sequences;
  for (size_t threads : {size_t{1}, size_t{8}}) {
    telemetry::RunReport report("determinism_check");
    std::vector<ProgressUpdate> updates;
    TmcShapleyOptions options = bare;
    options.num_threads = threads;
    options.progress = [&](const ProgressUpdate& update) {
      updates.push_back(update);
      report.RecordProgress(update);
    };
    ImportanceEstimate run = TmcShapleyValues(game, options).value();
    EXPECT_EQ(run.values, baseline.values) << threads << " threads";
    EXPECT_EQ(run.std_errors, baseline.std_errors) << threads << " threads";
    EXPECT_EQ(run.utility_evaluations, baseline.utility_evaluations)
        << threads << " threads";
    EXPECT_EQ(updates.size(), report.curve().size());
    sequences.push_back(std::move(updates));
  }

  log::Logger::Global().SetSink(nullptr);
  log::SetMinLevel(original_level);

  // The update sequences themselves are thread-count invariant: same wave
  // boundaries, same counts, same errors.
  ASSERT_EQ(sequences[0].size(), sequences[1].size());
  for (size_t i = 0; i < sequences[0].size(); ++i) {
    EXPECT_EQ(sequences[0][i].completed, sequences[1][i].completed) << i;
    EXPECT_EQ(sequences[0][i].total, sequences[1][i].total) << i;
    EXPECT_EQ(sequences[0][i].utility_evaluations,
              sequences[1][i].utility_evaluations)
        << i;
    EXPECT_EQ(sequences[0][i].max_std_error, sequences[1][i].max_std_error)
        << i;
  }
  // Early stopping happened and the final boundary matches the estimate.
  ASSERT_FALSE(sequences[0].empty());
  EXPECT_LT(sequences[0].back().completed, bare.num_permutations);
  EXPECT_EQ(sequences[0].back().utility_evaluations,
            baseline.utility_evaluations);
}

TEST(DeterminismTest, ProfileAndAllocAccountingDoNotPerturbResults) {
  // What --profile turns on — span recording for the exact profile, and
  // interposed operator new/delete for allocation accounting — must leave
  // every estimator bit-for-bit equal to the plain run at 1 and 8 threads.
  LambdaUtility game = NonAdditiveGame(10);

  auto run_all = [&game](size_t threads) {
    std::vector<ImportanceEstimate> estimates;
    TmcShapleyOptions tmc;
    tmc.num_permutations = 33;
    tmc.seed = 11;
    tmc.num_threads = threads;
    estimates.push_back(TmcShapleyValues(game, tmc).value());
    BanzhafOptions banzhaf;
    banzhaf.num_samples = 64;
    banzhaf.seed = 11;
    banzhaf.num_threads = threads;
    estimates.push_back(BanzhafValues(game, banzhaf).value());
    BetaShapleyOptions beta;
    beta.samples_per_unit = 6;
    beta.seed = 11;
    beta.num_threads = threads;
    estimates.push_back(BetaShapleyValues(game, beta).value());
    return estimates;
  };

  std::vector<ImportanceEstimate> baseline = run_all(1);

  telemetry::SetEnabled(true);
  telemetry::SetAllocAccountingEnabled(true);

  for (size_t threads : {size_t{1}, size_t{8}}) {
    telemetry::AllocationScope scope("determinism.sweep");
    std::vector<ImportanceEstimate> observed = run_all(threads);
    ASSERT_EQ(observed.size(), baseline.size());
    for (size_t e = 0; e < baseline.size(); ++e) {
      EXPECT_EQ(observed[e].values, baseline[e].values)
          << "estimator " << e << " at " << threads << " threads";
      EXPECT_EQ(observed[e].std_errors, baseline[e].std_errors)
          << "estimator " << e << " at " << threads << " threads";
      EXPECT_EQ(observed[e].utility_evaluations,
                baseline[e].utility_evaluations)
          << "estimator " << e << " at " << threads << " threads";
    }
  }

  telemetry::SetAllocAccountingEnabled(false);
  telemetry::ResetAllocStats();
  telemetry::SetEnabled(false);
}

TEST(DeterminismTest, TraceContextAndLabeledMetricsDoNotPerturbResults) {
  // Run the estimators bare first, then rerun with the full tracing stack
  // attached — telemetry enabled (spans recording, wave histograms labeled)
  // under an installed job TraceContext, so every labeled-metric and
  // span-propagation path is live — at 1 and 8 threads. Ids are minted from
  // a side channel that never touches estimator RNG streams, so every value
  // must stay bit-identical.
  LambdaUtility game = NonAdditiveGame(10);
  auto run_all = [&game](size_t threads) {
    std::vector<ImportanceEstimate> estimates;
    TmcShapleyOptions tmc;
    tmc.num_permutations = 33;
    tmc.seed = 47;
    tmc.num_threads = threads;
    estimates.push_back(TmcShapleyValues(game, tmc).value());
    BanzhafOptions banzhaf;
    banzhaf.num_samples = 96;
    banzhaf.seed = 47;
    banzhaf.num_threads = threads;
    estimates.push_back(BanzhafValues(game, banzhaf).value());
    BetaShapleyOptions beta;
    beta.samples_per_unit = 6;
    beta.seed = 47;
    beta.num_threads = threads;
    estimates.push_back(BetaShapleyValues(game, beta).value());
    return estimates;
  };

  std::vector<ImportanceEstimate> baseline = run_all(1);

  telemetry::SetEnabled(true);
  TraceContext context = MintTraceContext();
  context.job_id = "job-determinism";
  context.algorithm = "sweep";
  {
    ScopedTraceContext scope{context};
    for (size_t threads : {size_t{1}, size_t{8}}) {
      std::vector<ImportanceEstimate> observed = run_all(threads);
      ASSERT_EQ(observed.size(), baseline.size());
      for (size_t e = 0; e < baseline.size(); ++e) {
        EXPECT_EQ(observed[e].values, baseline[e].values)
            << "estimator " << e << " at " << threads << " threads";
        EXPECT_EQ(observed[e].std_errors, baseline[e].std_errors)
            << "estimator " << e << " at " << threads << " threads";
        EXPECT_EQ(observed[e].utility_evaluations,
                  baseline[e].utility_evaluations)
            << "estimator " << e << " at " << threads << " threads";
      }
    }
  }
  telemetry::SetEnabled(false);

  // The attribution machinery really was live: the per-job labeled series
  // accumulated alongside the unlabeled aggregates.
  telemetry::MetricsSnapshot snapshot =
      telemetry::MetricsRegistry::Global().Snapshot();
  EXPECT_GT(snapshot.counters.at(
                "shapley.permutations{"
                "algorithm=\"sweep\",job_id=\"job-determinism\"}"),
            0u);
  telemetry::TraceBuffer::Global().Clear();
}

// --- CLI vs job API: one engine, bit-identical answers. ---------------------

TEST(DeterminismTest, JobApiMatchesDirectEngineRunBitForBit) {
  // The HTTP job API and the CLI share RunAlgorithmOnTable, so for equal
  // configuration the values must agree bit for bit — including through the
  // JSON round-trip, because doubles are serialized with their shortest
  // round-tripping spelling (ISSUE 7 acceptance).
  std::string csv = "a,b,label\n";
  Rng rng(17);
  for (int i = 0; i < 30; ++i) {
    csv += std::to_string(rng.NextDouble()) + "," +
           std::to_string(rng.NextDouble()) + "," +
           std::to_string(i % 2) + "\n";
  }

  // Direct path: registry instance against the shared table engine.
  Table table = ReadCsvString(csv).value();
  std::unique_ptr<AlgorithmInstance> algorithm =
      AlgorithmRegistry::Global().Create("tmc_shapley").value();
  ASSERT_TRUE(algorithm
                  ->ConfigureAll({{"num_permutations", "12"},
                                  {"seed", "5"},
                                  {"k", "3"}})
                  .ok());
  TableRunResult direct =
      RunAlgorithmOnTable(*algorithm, table, "label").value();

  // API path: same CSV and options through JobManager + HTTP JSON.
  JobManager manager;
  JobRequest request;
  request.algorithm = "tmc_shapley";
  request.label = "label";
  request.csv_data = csv;
  request.options = {{"num_permutations", "12"}, {"seed", "5"}, {"k", "3"}};
  std::string id = manager.Submit(request).value();
  JobSnapshot snapshot;
  for (int i = 0; i < 5000; ++i) {
    snapshot = manager.Get(id).value();
    if (snapshot.state != JobState::kQueued &&
        snapshot.state != JobState::kRunning) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(snapshot.state, JobState::kDone)
      << snapshot.error.ToString();

  // In-memory snapshot identical to the direct run.
  EXPECT_EQ(snapshot.estimate.values, direct.estimate.values);
  EXPECT_EQ(snapshot.estimate.std_errors, direct.estimate.std_errors);
  EXPECT_EQ(snapshot.estimate.utility_evaluations,
            direct.estimate.utility_evaluations);
  EXPECT_EQ(snapshot.ranked_rows, direct.ranked_rows);

  // And the HTTP JSON reproduces every double exactly.
  telemetry::HttpRequest poll;
  poll.method = "GET";
  poll.target = "/jobs/" + id;
  std::string response = manager.HandleHttp(poll);
  size_t split = response.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos);
  json::Value parsed = json::Parse(response.substr(split + 4)).value();
  const json::Value* result = parsed.Find("result");
  ASSERT_NE(result, nullptr);
  const std::vector<json::Value>& values = result->Find("values")->items();
  ASSERT_EQ(values.size(), direct.estimate.values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i].as_number(), direct.estimate.values[i]) << i;
  }
  const std::vector<json::Value>& ranked =
      result->Find("ranked_rows")->items();
  ASSERT_EQ(ranked.size(), direct.ranked_rows.size());
  for (size_t i = 0; i < ranked.size(); ++i) {
    EXPECT_EQ(ranked[i].as_number(),
              static_cast<double>(direct.ranked_rows[i]));
  }
}

// --- Generative thread-sweep (src/proptest harness) --------------------------
//
// The hand-picked scenarios above pin specific shapes (ragged waves, tiny
// validation sets). These properties sweep the same §8 bit-identity promise
// over *generated* scenarios and option draws, so shapes nobody thought to
// pin — one-class blobs, two-row training sets, budget/thread interactions —
// get exercised every run, and any failure shrinks to a pasteable CSV.

prop::CheckConfig SweepCheckConfig(int default_cases) {
  prop::CheckConfig config;
  config.num_cases = prop::DefaultNumCases(default_cases);
  config.ctest_target = "determinism_test";
  const testing::TestInfo* info =
      testing::UnitTest::GetInstance()->current_test_info();
  config.gtest_filter =
      std::string(info->test_suite_name()) + "." + info->name();
  return config;
}

std::string CompareThreadRuns(const ImportanceEstimate& one,
                              const ImportanceEstimate& many,
                              size_t threads) {
  if (one.values != many.values) {
    return "values diverge between 1 and " + std::to_string(threads) +
           " threads";
  }
  if (one.std_errors != many.std_errors) {
    return "std_errors diverge between 1 and " + std::to_string(threads) +
           " threads";
  }
  if (one.utility_evaluations != many.utility_evaluations) {
    return "utility_evaluations diverge: " +
           std::to_string(one.utility_evaluations) + " vs " +
           std::to_string(many.utility_evaluations);
  }
  return "";
}

TEST(GenerativeThreadSweepTest, BanzhafIsThreadCountInvariant) {
  struct Case {
    prop::ImportanceScenario scenario;
    BanzhafOptions options;
  };
  prop::Gen<prop::ImportanceScenario> scenario_gen =
      prop::AnyImportanceScenario(14, 5, 3, 3);
  prop::Gen<BanzhafOptions> options_gen = prop::AnyBanzhafOptions(32);
  prop::Gen<Case> gen(
      [scenario_gen, options_gen](Rng* rng) {
        Case c;
        c.scenario = scenario_gen.Sample(rng);
        c.options = options_gen.Sample(rng);
        return c;
      },
      [scenario_gen](const Case& c) {
        std::vector<Case> candidates;
        for (prop::ImportanceScenario& smaller :
             scenario_gen.Shrink(c.scenario)) {
          Case candidate = c;
          candidate.scenario = std::move(smaller);
          candidates.push_back(std::move(candidate));
        }
        return candidates;
      });
  std::string report = prop::CheckProperty<Case>(
      "banzhaf thread-count invariance", gen,
      [](const Case& c) -> std::string {
        ClassifierFactory factory = []() {
          return std::make_unique<KnnClassifier>(3);
        };
        std::vector<ImportanceEstimate> runs;
        for (size_t threads : {size_t{1}, size_t{8}}) {
          ModelAccuracyUtility utility(factory, c.scenario.train,
                                       c.scenario.valid);
          BanzhafOptions options = c.options;
          options.num_threads = threads;
          Result<ImportanceEstimate> run = BanzhafValues(utility, options);
          if (!run.ok()) return "run failed: " + run.status().ToString();
          runs.push_back(std::move(run).value());
        }
        return CompareThreadRuns(runs[0], runs[1], 8);
      },
      [](const Case& c) { return prop::DescribeScenario(c.scenario); },
      SweepCheckConfig(15));
  EXPECT_TRUE(report.empty()) << report;
}

TEST(GenerativeThreadSweepTest, BetaShapleyIsThreadCountInvariant) {
  struct Case {
    prop::ImportanceScenario scenario;
    BetaShapleyOptions options;
  };
  prop::Gen<prop::ImportanceScenario> scenario_gen =
      prop::AnyImportanceScenario(12, 5, 3, 3);
  prop::Gen<BetaShapleyOptions> options_gen = prop::AnyBetaOptions(8);
  prop::Gen<Case> gen(
      [scenario_gen, options_gen](Rng* rng) {
        Case c;
        c.scenario = scenario_gen.Sample(rng);
        c.options = options_gen.Sample(rng);
        return c;
      },
      [scenario_gen](const Case& c) {
        std::vector<Case> candidates;
        for (prop::ImportanceScenario& smaller :
             scenario_gen.Shrink(c.scenario)) {
          Case candidate = c;
          candidate.scenario = std::move(smaller);
          candidates.push_back(std::move(candidate));
        }
        return candidates;
      });
  std::string report = prop::CheckProperty<Case>(
      "beta-shapley thread-count invariance", gen,
      [](const Case& c) -> std::string {
        ClassifierFactory factory = []() {
          return std::make_unique<KnnClassifier>(3);
        };
        std::vector<ImportanceEstimate> runs;
        for (size_t threads : {size_t{1}, size_t{8}}) {
          ModelAccuracyUtility utility(factory, c.scenario.train,
                                       c.scenario.valid);
          BetaShapleyOptions options = c.options;
          options.num_threads = threads;
          Result<ImportanceEstimate> run = BetaShapleyValues(utility, options);
          if (!run.ok()) return "run failed: " + run.status().ToString();
          runs.push_back(std::move(run).value());
        }
        return CompareThreadRuns(runs[0], runs[1], 8);
      },
      [](const Case& c) { return prop::DescribeScenario(c.scenario); },
      SweepCheckConfig(12));
  EXPECT_TRUE(report.empty()) << report;
}

}  // namespace
}  // namespace nde
