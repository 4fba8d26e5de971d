// Experiment E5 (survey Section 2.1, "Overcoming Computational Challenges"):
// the cost of data-importance computation, and why the KNN proxy matters.
//
// google-benchmark microbenchmarks of the importance estimators as the
// training-set size n grows: exact KNN-Shapley (closed form, ~n log n per
// validation point) against permutation-based TMC-Shapley, leave-one-out and
// Banzhaf over the KNN accuracy utility, plus the truncation-tolerance
// ablation. Those estimators score coalitions from the utility's scorer
// context, bit-identical to retraining, and the `fast:0` and `scan:0` arms
// time the cold retrain (tests/cold_reference.h). The `*Retraining` names
// predate the scorer context and are kept as series names only:
// `BM_LeaveOneOutRetraining` and `BM_BanzhafMsr` timed a retrain per
// coalition until LOO and Banzhaf began preparing their utility, so their
// recorded history steps down there because the work changed, not because
// the same work got faster (`BM_TmcShapleyRetraining` already scanned from
// the context). The paper's point — Monte-Carlo Shapley is orders of
// magnitude more expensive than the KNN closed form at equal n — should be
// visible directly in the reported times.

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/synthetic.h"
#include "importance/game_values.h"
#include "importance/knn_shapley.h"
#include "importance/utility.h"
#include "ml/knn.h"
#include "ml/naive_bayes.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry.h"
#include "tests/cold_reference.h"

namespace nde {
namespace {

MlDataset MakeTrain(size_t n) {
  BlobsOptions options;
  options.num_examples = n;
  options.num_features = 8;
  options.seed = 42;
  options.center_seed = 99;  // Shared task with the validation set.
  return MakeBlobs(options);
}

MlDataset MakeValidation() {
  BlobsOptions options;
  options.num_examples = 50;
  options.num_features = 8;
  options.seed = 43;
  options.center_seed = 99;
  return MakeBlobs(options);
}

/// TMC-Shapley over a fresh utility: through its scorer context and prefix
/// scan when `fast`, else through the cold reference.
ImportanceEstimate RunTmc(const ClassifierFactory& factory,
                          const MlDataset& train, const MlDataset& validation,
                          const TmcShapleyOptions& options, bool fast) {
  ModelAccuracyUtility utility(factory, train, validation);
  if (fast) return TmcShapleyValues(utility, options).value();
  return TmcShapleyValues(ColdReference(utility), options).value();
}

void BM_KnnShapleyExact(benchmark::State& state) {
  MlDataset train = MakeTrain(static_cast<size_t>(state.range(0)));
  MlDataset validation = MakeValidation();
  for (auto _ : state) {
    std::vector<double> values =
        KnnShapleyValues(train, validation, 5).value().values;
    benchmark::DoNotOptimize(values);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_KnnShapleyExact)
    ->Arg(100)
    ->Arg(200)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Unit(benchmark::kMillisecond)
    ->Complexity(benchmark::oNLogN);

void BM_TmcShapleyRetraining(benchmark::State& state) {
  MlDataset train = MakeTrain(static_cast<size_t>(state.range(0)));
  MlDataset validation = MakeValidation();
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  TmcShapleyOptions options;
  options.num_permutations = 3;
  options.truncation_tolerance = 0.0;
  for (auto _ : state) {
    ModelAccuracyUtility utility(factory, train, validation);
    ImportanceEstimate estimate = TmcShapleyValues(utility, options).value();
    benchmark::DoNotOptimize(estimate);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TmcShapleyRetraining)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_TmcShapleyTruncation(benchmark::State& state) {
  // Ablation: truncation tolerance vs cost at fixed n.
  MlDataset train = MakeTrain(150);
  MlDataset validation = MakeValidation();
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  TmcShapleyOptions options;
  options.num_permutations = 3;
  options.truncation_tolerance = static_cast<double>(state.range(0)) / 1000.0;
  size_t evaluations = 0;
  size_t iterations = 0;
  for (auto _ : state) {
    ModelAccuracyUtility utility(factory, train, validation);
    ImportanceEstimate estimate = TmcShapleyValues(utility, options).value();
    benchmark::DoNotOptimize(estimate);
    evaluations += estimate.utility_evaluations;
    ++iterations;
  }
  state.counters["utility_evals"] = benchmark::Counter(
      static_cast<double>(evaluations) / static_cast<double>(iterations));
}
BENCHMARK(BM_TmcShapleyTruncation)
    ->Arg(0)     // No truncation.
    ->Arg(20)    // 0.02 tolerance.
    ->Arg(100)   // 0.10 tolerance.
    ->Unit(benchmark::kMillisecond);

void BM_LeaveOneOutRetraining(benchmark::State& state) {
  MlDataset train = MakeTrain(static_cast<size_t>(state.range(0)));
  MlDataset validation = MakeValidation();
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  for (auto _ : state) {
    ModelAccuracyUtility utility(factory, train, validation);
    std::vector<double> values = LeaveOneOutValues(utility).value().values;
    benchmark::DoNotOptimize(values);
  }
}
BENCHMARK(BM_LeaveOneOutRetraining)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_BanzhafMsr(benchmark::State& state) {
  MlDataset train = MakeTrain(static_cast<size_t>(state.range(0)));
  MlDataset validation = MakeValidation();
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  BanzhafOptions options;
  options.num_samples = 100;
  for (auto _ : state) {
    ModelAccuracyUtility utility(factory, train, validation);
    ImportanceEstimate estimate = BanzhafValues(utility, options).value();
    benchmark::DoNotOptimize(estimate);
  }
}
BENCHMARK(BM_BanzhafMsr)->Arg(50)->Arg(100)->Arg(200)->Unit(
    benchmark::kMillisecond);

void BM_TmcShapleyThreads(benchmark::State& state) {
  // Thread-scaling sweep: same seed and sampling budget at every arg, only
  // the worker count varies. main() asserts the values are byte-identical
  // across thread counts before the timing runs.
  MlDataset train = MakeTrain(200);
  MlDataset validation = MakeValidation();
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  TmcShapleyOptions options;
  options.num_permutations = 8;
  options.truncation_tolerance = 0.0;
  options.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    ModelAccuracyUtility utility(factory, train, validation);
    ImportanceEstimate estimate = TmcShapleyValues(utility, options).value();
    benchmark::DoNotOptimize(estimate);
  }
}
BENCHMARK(BM_TmcShapleyThreads)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_TmcUtilityFastPath(benchmark::State& state) {
  // The utility fast path on the medium TMC config at one thread: arg 0
  // retrains on every prefix, arg 1 runs the prefix scan. Values are
  // byte-identical either way (asserted at startup); only evals/sec should
  // move.
  MlDataset train = MakeTrain(200);
  MlDataset validation = MakeValidation();
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  bool fast = state.range(0) != 0;
  TmcShapleyOptions options;
  options.num_permutations = 8;
  options.truncation_tolerance = 0.0;
  options.num_threads = 1;
  size_t evaluations = 0;
  for (auto _ : state) {
    ImportanceEstimate estimate =
        RunTmc(factory, train, validation, options, fast);
    benchmark::DoNotOptimize(estimate);
    evaluations += estimate.utility_evaluations;
  }
  state.counters["utility_evals_per_sec"] = benchmark::Counter(
      static_cast<double>(evaluations), benchmark::Counter::kIsRate);
  // Steady-state allocation rate of the fast path, measured outside the
  // timed loop: one run to build the scorer context, then one accounted run
  // on the same utility, where each permutation's scorer allocates its
  // arrays once. Only meaningful when the allocation interposer is compiled
  // in (telemetry on, no sanitizer).
  if (fast && telemetry::AllocAccountingCompiledIn()) {
    ModelAccuracyUtility utility(factory, train, validation);
    benchmark::DoNotOptimize(TmcShapleyValues(utility, options).value());
    telemetry::ResetAllocStats();
    telemetry::SetAllocAccountingEnabled(true);
    ImportanceEstimate accounted = TmcShapleyValues(utility, options).value();
    telemetry::SetAllocAccountingEnabled(false);
    telemetry::AllocStats stats = telemetry::GlobalAllocStats();
    state.counters["allocs_per_eval"] = benchmark::Counter(
        static_cast<double>(stats.alloc_count) /
        static_cast<double>(accounted.utility_evaluations));
  }
}
BENCHMARK(BM_TmcUtilityFastPath)
    ->ArgName("fast")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_KnnKernel(benchmark::State& state) {
  // The KNN coalition-scorer kernel in isolation: one full permutation scan
  // per iteration, straight through NewPrefixScan — no estimator, no wave
  // scheduling. Its output matches the cold path bit for bit (asserted at
  // startup).
  MlDataset train = MakeTrain(200);
  MlDataset validation = MakeValidation();
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  ModelAccuracyUtility utility(factory, train, validation);
  std::vector<size_t> perm = Rng(7).Permutation(train.size());
  size_t evaluations = 0;
  for (auto _ : state) {
    std::unique_ptr<UtilityFunction::PrefixScan> scan =
        utility.NewPrefixScan(false);
    double last = 0.0;
    for (size_t unit : perm) last = scan->Push(unit);
    benchmark::DoNotOptimize(last);
    evaluations += perm.size();
  }
  state.counters["utility_evals_per_sec"] = benchmark::Counter(
      static_cast<double>(evaluations), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KnnKernel)->Unit(benchmark::kMicrosecond);

/// Blobs at tmc-10k's KNN shape: 41 features, rows from `seed`.
MlDataset RankBuildBlobs(size_t rows, uint64_t seed) {
  BlobsOptions options;
  options.num_features = 41;
  options.center_seed = 99;
  options.num_examples = rows;
  options.seed = seed;
  return MakeBlobs(options);
}

/// Runs the scorer context's build blocks on `threads` workers, as the
/// scorer-context prelude fans them out.
ParallelRunner RankBuildRunner(size_t threads) {
  return [threads](size_t count, const std::function<void(size_t)>& body) {
    return TryParallelFor(0, count, body, threads, "scorer_context_rows")
        .status();
  };
}

void BM_KnnRankBuild(benchmark::State& state) {
  // The KNN scorer context's build at tmc-10k's shape: 8,000 training rows
  // ranked for each of 2,000 evaluation points over 41 features, fanned out
  // over `threads` workers as the scorer-context prelude fans it. A ledger
  // figure for the distance pass and the radix argsort; tools/check.sh does
  // not watch it.
  const MlDataset train = RankBuildBlobs(8000, 44);
  const MlDataset eval = RankBuildBlobs(2000, 45);
  const ParallelRunner parallel =
      RankBuildRunner(static_cast<size_t>(state.range(0)));
  const KnnClassifier knn(5);
  for (auto _ : state) {
    std::shared_ptr<const CoalitionScorerContext> context =
        knn.NewCoalitionScorerContext(train, eval, 2, parallel).value();
    benchmark::DoNotOptimize(context.get());
  }
}
BENCHMARK(BM_KnnRankBuild)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_KnnPrefixScan(benchmark::State& state) {
  // Full-permutation scans through the KNN coalition scorer, every one from
  // a single context built once at BM_KnnRankBuild's shape (k = 5): the
  // mask pass over all 2,000 windows while any is wide, then the walk of
  // each pushed row's near list. Eight permutations in turn; reports pushes
  // per second. A ledger figure; tools/check.sh does not watch it.
  const MlDataset train = RankBuildBlobs(8000, 44);
  const MlDataset eval = RankBuildBlobs(2000, 45);
  const std::shared_ptr<const CoalitionScorerContext> context =
      KnnClassifier(5)
          .NewCoalitionScorerContext(train, eval, 2, RankBuildRunner(4))
          .value();
  Rng rng(7);
  std::vector<std::vector<size_t>> perms;
  for (int p = 0; p < 8; ++p) perms.push_back(rng.Permutation(train.size()));
  size_t pushes = 0;
  size_t scans = 0;
  for (auto _ : state) {
    const std::vector<size_t>& perm = perms[scans++ % perms.size()];
    std::unique_ptr<CoalitionScorer> scorer = context->NewScorer();
    size_t correct = 0;
    for (size_t unit : perm) {
      scorer->Add(unit);
      correct += scorer->NumCorrect();
    }
    benchmark::DoNotOptimize(correct);
    pushes += perm.size();
  }
  state.counters["pushes_per_sec"] = benchmark::Counter(
      static_cast<double>(pushes), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KnnPrefixScan)->Unit(benchmark::kMillisecond);

void BM_GaussianNbPrefixScan(benchmark::State& state) {
  // TMC over the Gaussian-NB proxy utility: arg 0 retrains from scratch on
  // every prefix, arg 1 uses the exact incremental scorer (sorted member
  // lists, per-class moment recompute). Values are bit-identical either way
  // (asserted at startup).
  MlDataset train = MakeTrain(200);
  MlDataset validation = MakeValidation();
  auto factory = []() { return std::make_unique<GaussianNaiveBayes>(); };
  TmcShapleyOptions options;
  options.num_permutations = 8;
  options.truncation_tolerance = 0.0;
  options.num_threads = 1;
  size_t evaluations = 0;
  for (auto _ : state) {
    ImportanceEstimate estimate =
        RunTmc(factory, train, validation, options, state.range(0) != 0);
    benchmark::DoNotOptimize(estimate);
    evaluations += estimate.utility_evaluations;
  }
  state.counters["utility_evals_per_sec"] = benchmark::Counter(
      static_cast<double>(evaluations), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GaussianNbPrefixScan)
    ->ArgName("scan")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_TmcWaveLatency(benchmark::State& state) {
  // Wave-latency tail with telemetry live: runs the same medium TMC config as
  // the fast-path sweep but with the estimator.wave_ms histogram recording,
  // and reports its p99 as a counter. This is the number tools/bench_diff
  // watches for scheduler/instrumentation regressions — it moves if waves get
  // slower *or* if the observability layer starts costing real time.
  MlDataset train = MakeTrain(200);
  MlDataset validation = MakeValidation();
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  TmcShapleyOptions options;
  options.num_permutations = 8;
  options.truncation_tolerance = 0.0;
  options.num_threads = 1;
  bool was_enabled = telemetry::Enabled();
  telemetry::SetEnabled(true);
  telemetry::Histogram& wave_ms =
      telemetry::MetricsRegistry::Global().GetHistogram("estimator.wave_ms");
  wave_ms.Reset();
  for (auto _ : state) {
    ModelAccuracyUtility utility(factory, train, validation);
    ImportanceEstimate estimate = TmcShapleyValues(utility, options).value();
    benchmark::DoNotOptimize(estimate);
  }
  state.counters["wave_p99_ms"] = benchmark::Counter(wave_ms.Quantile(0.99));
  telemetry::SetEnabled(was_enabled);
}
BENCHMARK(BM_TmcWaveLatency)->Unit(benchmark::kMillisecond);

void BM_FormatDouble(benchmark::State& state) {
  // The number spelling behind job-result bodies, /eventz, registry defaults
  // and RunReports: each iteration spells 2,000 N(0, 1e-3) values, about the
  // values and std errors of one 1,000-row job result.
  Rng rng(11);
  std::vector<double> values(2000);
  for (double& value : values) value = rng.NextGaussian(0.0, 1e-3);
  size_t formatted = 0;
  for (auto _ : state) {
    for (double value : values) benchmark::DoNotOptimize(FormatDouble(value));
    formatted += values.size();
  }
  state.counters["values_per_sec"] = benchmark::Counter(
      static_cast<double>(formatted), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FormatDouble)->Unit(benchmark::kMicrosecond);

// Console output as usual, plus one JSON-lines record per benchmark run in
// BENCH_results.json (see bench_util.h) so sweeps can be plotted or diffed
// without scraping the console table.
class JsonAppendingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      double iterations = static_cast<double>(run.iterations);
      if (iterations <= 0) continue;
      double ms = run.real_accumulated_time / iterations * 1e3;
      std::vector<std::pair<std::string, std::string>> extras = {
          {"iterations", std::to_string(run.iterations)},
          {"bench", "\"scalability\""}};
      // User counters (evals/sec, wave p99, ...) ride along so the
      // fast-path sweep is diffable straight from BENCH_results.json. They
      // arrive already finalized (rates divided by elapsed time).
      for (const auto& [name, counter] : run.counters) {
        extras.emplace_back(name, std::to_string(counter.value));
      }
      bench::ReportJson(run.benchmark_name(), ms, extras);
    }
  }
};

/// Guards the scaling sweep's premise: a fixed seed must yield byte-identical
/// TMC-Shapley values whether the estimator runs on 1, 2, or 8 threads.
bool CheckThreadCountDeterminism() {
  MlDataset train = MakeTrain(60);
  MlDataset validation = MakeValidation();
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  TmcShapleyOptions options;
  options.num_permutations = 8;
  options.truncation_tolerance = 0.0;
  std::vector<std::vector<double>> runs;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    options.num_threads = threads;
    ModelAccuracyUtility utility(factory, train, validation);
    runs.push_back(TmcShapleyValues(utility, options).value().values);
  }
  for (size_t i = 1; i < runs.size(); ++i) {
    if (runs[i].size() != runs[0].size() ||
        std::memcmp(runs[i].data(), runs[0].data(),
                    runs[0].size() * sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "FATAL: TMC-Shapley values differ across thread counts\n");
      return false;
    }
  }
  std::fprintf(stderr,
               "determinism: TMC-Shapley values byte-identical across "
               "{1, 2, 8} threads\n");
  return true;
}

/// Guards the fast-path and kernel benchmarks' premise: the KNN prefix scan
/// (SoA kernel) and the incremental Gaussian-NB scorer change only the speed
/// of BM_TmcUtilityFastPath, BM_KnnKernel and BM_GaussianNbPrefixScan, never
/// a bit of TMC-Shapley's output against retraining on every prefix.
bool CheckPrefixScanBitIdentity() {
  MlDataset train = MakeTrain(200);
  MlDataset validation = MakeValidation();
  TmcShapleyOptions options;
  options.num_permutations = 8;
  options.truncation_tolerance = 0.0;
  options.num_threads = 1;
  const std::vector<std::pair<const char*, ClassifierFactory>> models = {
      {"SoA KNN kernel", [] { return std::make_unique<KnnClassifier>(5); }},
      {"Gaussian-NB prefix scan",
       [] { return std::make_unique<GaussianNaiveBayes>(); }}};
  for (const auto& [name, factory] : models) {
    ImportanceEstimate baseline =
        RunTmc(factory, train, validation, options, false);
    ImportanceEstimate candidate =
        RunTmc(factory, train, validation, options, true);
    if (candidate.values.size() != baseline.values.size() ||
        std::memcmp(candidate.values.data(), baseline.values.data(),
                    baseline.values.size() * sizeof(double)) != 0 ||
        candidate.utility_evaluations != baseline.utility_evaluations) {
      std::fprintf(stderr, "FATAL: %s changed TMC-Shapley output\n", name);
      return false;
    }
  }
  std::fprintf(stderr,
               "determinism: SoA KNN kernel and Gaussian-NB prefix scan "
               "byte-identical to retraining on every prefix\n");
  return true;
}

}  // namespace
}  // namespace nde

int main(int argc, char** argv) {
  if (!nde::CheckThreadCountDeterminism()) return 1;
  if (!nde::CheckPrefixScanBitIdentity()) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  nde::JsonAppendingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
