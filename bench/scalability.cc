// Experiment E5 (survey Section 2.1, "Overcoming Computational Challenges"):
// the cost of data-importance computation, and why the KNN proxy matters.
//
// google-benchmark microbenchmarks of the importance estimators as the
// training-set size n grows: exact KNN-Shapley (closed form, ~n log n per
// validation point) against permutation-based TMC-Shapley and leave-one-out
// with model retraining, plus the truncation-tolerance ablation. The paper's
// point — Monte-Carlo Shapley with retraining is orders of magnitude more
// expensive than the KNN closed form at equal n — should be visible directly
// in the reported times.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "datagen/synthetic.h"
#include "importance/game_values.h"
#include "importance/knn_shapley.h"
#include "importance/utility.h"
#include "ml/knn.h"
#include "ml/naive_bayes.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry.h"

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

void BM_KnnShapleyExact(benchmark::State& state) {
  MlDataset train = MakeTrain(static_cast<size_t>(state.range(0)));
  MlDataset validation = MakeValidation();
  for (auto _ : state) {
    std::vector<double> values =
        KnnShapleyValues(train, validation, 5).value();
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
    std::vector<double> values = LeaveOneOutValues(utility).value();
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
  // The utility fast path on the medium TMC config at one thread: arg 0 runs
  // the legacy path (materialized coalitions, per-prefix retraining), arg 1
  // the prefix scan over zero-copy views. Values are byte-identical either
  // way (asserted at startup); only evals/sec should move.
  MlDataset train = MakeTrain(200);
  MlDataset validation = MakeValidation();
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  bool fast = state.range(0) != 0;
  TmcShapleyOptions options;
  options.num_permutations = 8;
  options.truncation_tolerance = 0.0;
  options.num_threads = 1;
  options.use_prefix_scan = fast;
  UtilityFastPathOptions fast_path;
  fast_path.zero_copy_views = fast;
  size_t evaluations = 0;
  for (auto _ : state) {
    ModelAccuracyUtility utility(factory, train, validation, fast_path);
    ImportanceEstimate estimate = TmcShapleyValues(utility, options).value();
    benchmark::DoNotOptimize(estimate);
    evaluations += estimate.utility_evaluations;
  }
  state.counters["utility_evals_per_sec"] = benchmark::Counter(
      static_cast<double>(evaluations), benchmark::Counter::kIsRate);
  // Steady-state allocation rate of the fast path, measured outside the
  // timed loop: one run to warm the scorer context and arena pool, then one
  // accounted run on the same utility. Only meaningful when the allocation
  // interposer is compiled in (telemetry on, no sanitizer).
  if (fast && telemetry::AllocAccountingCompiledIn()) {
    ModelAccuracyUtility utility(factory, train, validation, fast_path);
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
  // scheduling. Arg 0 runs the reference row-wise kernel, arg 1 the SoA
  // kernel (flat cutoff/window buffers, vectorizable candidate-mask pass).
  // Outputs are bit-identical (asserted at startup); only evals/sec moves.
  MlDataset train = MakeTrain(200);
  MlDataset validation = MakeValidation();
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  UtilityFastPathOptions fast_path;
  fast_path.soa_kernels = state.range(0) != 0;
  ModelAccuracyUtility utility(factory, train, validation, fast_path);
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
BENCHMARK(BM_KnnKernel)
    ->ArgName("soa")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

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
  options.use_prefix_scan = state.range(0) != 0;
  size_t evaluations = 0;
  for (auto _ : state) {
    ModelAccuracyUtility utility(factory, train, validation);
    ImportanceEstimate estimate = TmcShapleyValues(utility, options).value();
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

void BM_BanzhafSubsetCache(benchmark::State& state) {
  // Sharded subset-memoization cache, cold vs warm. Arg 0: a fresh cache per
  // estimator run, so only within-run duplicates hit. Arg 1: one cache shared
  // across runs (the wave-replay scenario), so after the first run nearly
  // every coalition is a hit. The hit_rate counter lands in
  // BENCH_results.json alongside the timings.
  MlDataset train = MakeTrain(200);
  MlDataset validation = MakeValidation();
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  bool warm = state.range(0) != 0;
  BanzhafOptions options;
  options.num_samples = 100;
  options.num_threads = 1;
  UtilityFastPathOptions fast_path;
  fast_path.subset_cache = true;
  std::unique_ptr<ModelAccuracyUtility> shared;
  if (warm) {
    shared =
        std::make_unique<ModelAccuracyUtility>(factory, train, validation,
                                               fast_path);
    // Populate outside the timed region; the timed runs replay these subsets.
    benchmark::DoNotOptimize(BanzhafValues(*shared, options).value());
  }
  double hit_rate = 0.0;
  for (auto _ : state) {
    if (warm) {
      ImportanceEstimate estimate = BanzhafValues(*shared, options).value();
      benchmark::DoNotOptimize(estimate);
      SubsetCache::Stats stats = shared->subset_cache()->stats();
      hit_rate = static_cast<double>(stats.hits) /
                 static_cast<double>(stats.hits + stats.misses);
    } else {
      ModelAccuracyUtility utility(factory, train, validation, fast_path);
      ImportanceEstimate estimate = BanzhafValues(utility, options).value();
      benchmark::DoNotOptimize(estimate);
      SubsetCache::Stats stats = utility.subset_cache()->stats();
      hit_rate = static_cast<double>(stats.hits) /
                 static_cast<double>(stats.hits + stats.misses);
    }
  }
  state.counters["cache_hit_rate"] = benchmark::Counter(hit_rate);
}
BENCHMARK(BM_BanzhafSubsetCache)
    ->ArgName("warm")
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
  options.use_prefix_scan = true;
  UtilityFastPathOptions fast_path;
  fast_path.zero_copy_views = true;
  bool was_enabled = telemetry::Enabled();
  telemetry::SetEnabled(true);
  telemetry::Histogram& wave_ms =
      telemetry::MetricsRegistry::Global().GetHistogram("estimator.wave_ms");
  wave_ms.Reset();
  for (auto _ : state) {
    ModelAccuracyUtility utility(factory, train, validation, fast_path);
    ImportanceEstimate estimate = TmcShapleyValues(utility, options).value();
    benchmark::DoNotOptimize(estimate);
  }
  state.counters["wave_p99_ms"] = benchmark::Counter(wave_ms.Quantile(0.99));
  telemetry::SetEnabled(was_enabled);
}
BENCHMARK(BM_TmcWaveLatency)->Unit(benchmark::kMillisecond);

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
      // User counters (evals/sec, cache hit rate, ...) ride along so the
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

/// Guards the fast-path sweep's premise: the prefix scan + zero-copy views +
/// subset cache must change only the speed of BM_TmcUtilityFastPath, never a
/// bit of its output.
bool CheckUtilityFastPathBitIdentity() {
  MlDataset train = MakeTrain(200);
  MlDataset validation = MakeValidation();
  auto factory = []() { return std::make_unique<KnnClassifier>(5); };
  TmcShapleyOptions options;
  options.num_permutations = 8;
  options.truncation_tolerance = 0.0;
  options.num_threads = 1;

  options.use_prefix_scan = false;
  UtilityFastPathOptions slow_path;
  slow_path.zero_copy_views = false;
  ModelAccuracyUtility slow(factory, train, validation, slow_path);
  ImportanceEstimate baseline = TmcShapleyValues(slow, options).value();

  options.use_prefix_scan = true;
  UtilityFastPathOptions fast_path;
  fast_path.subset_cache = true;
  ModelAccuracyUtility fast(factory, train, validation, fast_path);
  ImportanceEstimate candidate = TmcShapleyValues(fast, options).value();

  if (candidate.values.size() != baseline.values.size() ||
      std::memcmp(candidate.values.data(), baseline.values.data(),
                  baseline.values.size() * sizeof(double)) != 0 ||
      candidate.utility_evaluations != baseline.utility_evaluations) {
    std::fprintf(stderr,
                 "FATAL: utility fast path changed TMC-Shapley output\n");
    return false;
  }
  std::fprintf(stderr,
               "determinism: utility fast path (views + prefix scan + cache) "
               "byte-identical to the slow path\n");
  return true;
}

/// Guards the kernel benchmarks' premise: the SoA KNN kernel (with arena
/// allocation) and the incremental Gaussian-NB scorer are pure speed knobs —
/// their TMC-Shapley output must match the reference kernels bit for bit.
bool CheckKernelVariantsBitIdentity() {
  MlDataset train = MakeTrain(200);
  MlDataset validation = MakeValidation();
  TmcShapleyOptions options;
  options.num_permutations = 8;
  options.truncation_tolerance = 0.0;
  options.num_threads = 1;
  options.use_prefix_scan = true;

  {
    auto factory = []() { return std::make_unique<KnnClassifier>(5); };
    UtilityFastPathOptions reference_path;
    reference_path.soa_kernels = false;
    reference_path.arena = false;
    ModelAccuracyUtility reference(factory, train, validation, reference_path);
    ImportanceEstimate baseline = TmcShapleyValues(reference, options).value();
    ModelAccuracyUtility soa(factory, train, validation);  // Defaults: SoA on.
    ImportanceEstimate candidate = TmcShapleyValues(soa, options).value();
    if (candidate.values.size() != baseline.values.size() ||
        std::memcmp(candidate.values.data(), baseline.values.data(),
                    baseline.values.size() * sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "FATAL: SoA KNN kernel changed TMC-Shapley output\n");
      return false;
    }
  }
  {
    auto factory = []() { return std::make_unique<GaussianNaiveBayes>(); };
    ModelAccuracyUtility utility(factory, train, validation);
    options.use_prefix_scan = false;
    ImportanceEstimate baseline = TmcShapleyValues(utility, options).value();
    options.use_prefix_scan = true;
    ImportanceEstimate candidate = TmcShapleyValues(utility, options).value();
    if (candidate.values.size() != baseline.values.size() ||
        std::memcmp(candidate.values.data(), baseline.values.data(),
                    baseline.values.size() * sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "FATAL: Gaussian-NB prefix scan changed TMC-Shapley "
                   "output\n");
      return false;
    }
  }
  std::fprintf(stderr,
               "determinism: SoA KNN kernel and Gaussian-NB prefix scan "
               "byte-identical to reference kernels\n");
  return true;
}

}  // namespace
}  // namespace nde

int main(int argc, char** argv) {
  if (!nde::CheckThreadCountDeterminism()) return 1;
  if (!nde::CheckUtilityFastPathBitIdentity()) return 1;
  if (!nde::CheckKernelVariantsBitIdentity()) return 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  nde::JsonAppendingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
