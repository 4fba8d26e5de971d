/// Deterministic chaos suite: proves every registered failpoint site degrades
/// to a typed error (never a crash), that graceful-degradation sites keep
/// working, and that keyed probabilistic injection replays bit-identically
/// for any thread count. Every case runs twice, untraced and with the
/// tracing and metrics stack live, so injected failures also race span
/// recording and labeled-series resolution. ctest label `chaos`: the `asan`
/// and `tsan` presets in CMakePresets.json run it under the sanitizers.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/trace_context.h"
#include "data/csv.h"
#include "data/table.h"
#include "datagen/synthetic.h"
#include "importance/game_values.h"
#include "importance/influence.h"
#include "importance/utility.h"
#include "ml/knn.h"
#include "pipeline/encoders.h"
#include "pipeline/plan.h"
#include "telemetry/health.h"
#include "telemetry/http_exporter.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace nde {
namespace {

/// Parameter: whether the case runs with telemetry on under a job's trace
/// context.
class ChaosTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    Reset();
    if (GetParam()) {
      telemetry::SetEnabled(true);
      TraceContext context = MintTraceContext();
      context.job_id = "chaos";
      context.algorithm = "chaos";
      trace_scope_ = std::make_unique<ScopedTraceContext>(context);
    }
  }
  void TearDown() override {
    trace_scope_.reset();
    if (telemetry::Enabled()) {
      telemetry::SetEnabled(false);
      telemetry::TraceBuffer::Global().Clear();
    }
    Reset();
  }

  static void Reset() {
    failpoint::DisarmAll();
    failpoint::ResetStats();
    telemetry::SetHealthy();
  }

  std::unique_ptr<ScopedTraceContext> trace_scope_;
};

uint64_t FiresFor(const std::string& name) {
  for (const failpoint::PointStats& point : failpoint::Stats()) {
    if (point.name == name) return point.fires;
  }
  return 0;
}

/// Additive utility with a per-unit marginal of unit+1: cheap, deterministic,
/// and exercises the estimators' generic (non-prefix-scan) evaluation path.
class SumUtility : public UtilityFunction {
 public:
  explicit SumUtility(size_t n) : n_(n) {}
  double Evaluate(const std::vector<size_t>& subset) const override {
    double total = 0.0;
    for (size_t unit : subset) total += static_cast<double>(unit + 1);
    return total;
  }
  size_t num_units() const override { return n_; }

 private:
  size_t n_;
};

/// SumUtility plus an exact additive prefix scan, so the injected faults land
/// on TMC's fast path, where the site is keyed by permutation x position.
class ScanSumUtility : public SumUtility {
 public:
  using SumUtility::SumUtility;

  class Scan : public PrefixScan {
   public:
    double Push(size_t unit) override {
      total_ += static_cast<double>(unit + 1);
      return total_;
    }

   private:
    double total_ = 0.0;
  };

  std::unique_ptr<PrefixScan> NewPrefixScan(
      bool /*allow_warm_start*/) const override {
    return std::make_unique<Scan>();
  }
};

/// One workload per failpoint site, exercising the real code path that hosts
/// the site.
struct SiteWorkload {
  std::function<Status()> run;
};

std::map<std::string, SiteWorkload> BuildWorkloads() {
  std::map<std::string, SiteWorkload> workloads;

  workloads["csv.open"] = {[] {
    std::string path = ::testing::TempDir() + "/chaos_csv_open.csv";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return Status::IOError("cannot write temp csv");
    std::fputs("a,b\n1,2\n", f);
    std::fclose(f);
    return ReadCsvFile(path).status();
  }};

  workloads["csv.record"] = {
      [] { return ReadCsvString("a,b\n1,2\n3,4\n").status(); }};

  workloads["pipeline.execute"] = {[] {
    Result<Table> table = ReadCsvString("a,b\n1,2\n3,4\n");
    NDE_RETURN_IF_ERROR(table.status());
    return MakeSource(0, "chaos_source", *table)->Execute().status();
  }};

  workloads["encoder.fit"] = {[] {
    Result<Table> table = ReadCsvString("a\n1\n2\n3\n");
    NDE_RETURN_IF_ERROR(table.status());
    ColumnTransformer transformer;
    transformer.Add("a", std::make_unique<NumericEncoder>());
    return transformer.Fit(*table);
  }};

  workloads["encoder.transform"] = {[] {
    Result<Table> table = ReadCsvString("a\n1\n2\n3\n");
    NDE_RETURN_IF_ERROR(table.status());
    ColumnTransformer transformer;
    transformer.Add("a", std::make_unique<NumericEncoder>());
    NDE_RETURN_IF_ERROR(transformer.Fit(*table));
    return transformer.Transform(*table).status();
  }};

  workloads["utility.evaluate"] = {
      [] { return SumUtility(4).TryEvaluate({0, 2}).status(); }};

  workloads["threadpool.task"] = {[] {
    std::vector<double> out(16, 0.0);
    return TryParallelFor(
               0, out.size(),
               [&](size_t i) { out[i] = static_cast<double>(i); }, 4,
               "chaos_pool")
        .status();
  }};

  workloads["http.handle_request"] = {[] {
    std::string response =
        telemetry::HttpExporter::HandleRequest("GET /healthz HTTP/1.1");
    if (response.find("chaos injected") != std::string::npos) {
      return Status::Unavailable("chaos injected");
    }
    if (response.find("HTTP/1.1 200") != 0 &&
        response.find("HTTP/1.1 503") != 0) {
      return Status::Internal("unexpected healthz response: " + response);
    }
    return Status();
  }};

  return workloads;
}

TEST_P(ChaosTest, EveryKnownSiteDegradesToTypedError) {
  std::map<std::string, SiteWorkload> workloads = BuildWorkloads();
  for (const std::string& site : failpoint::KnownSites()) {
    ASSERT_NE(workloads.find(site), workloads.end())
        << "no chaos workload for site '" << site
        << "' — add one so the catalog stays fully exercised";
    const SiteWorkload& workload = workloads[site];

    // Clean run first: the workload itself must be healthy.
    Reset();
    Status clean = workload.run();
    EXPECT_TRUE(clean.ok()) << site << " clean run: " << clean.ToString();

    // Armed run: the site fires and the failure comes back typed.
    ASSERT_TRUE(
        failpoint::Arm(site + "=error(unavailable:chaos injected)").ok());
    Status injected = workload.run();
    EXPECT_FALSE(injected.ok()) << site << " swallowed the injection";
    EXPECT_EQ(injected.code(), StatusCode::kUnavailable) << site;
    EXPECT_NE(injected.message().find("chaos injected"), std::string::npos)
        << site << ": " << injected.ToString();
    EXPECT_GE(FiresFor(site), 1u) << site << " never fired";

    // Recovery: disarming restores clean behavior with no residue.
    failpoint::DisarmAll();
    Status recovered = workload.run();
    EXPECT_TRUE(recovered.ok())
        << site << " did not recover: " << recovered.ToString();
  }
}

TEST_P(ChaosTest, AllSitesArmedAtOnceStaysTypedAndRecovers) {
  std::map<std::string, SiteWorkload> workloads = BuildWorkloads();
  for (const std::string& site : failpoint::KnownSites()) {
    ASSERT_TRUE(
        failpoint::Arm(site + "=error(unavailable:chaos injected)").ok());
  }
  // With everything failing at once nothing may crash; every workload either
  // succeeds or reports the injected unavailable error (possibly from an
  // upstream site it depends on, e.g. the CSV read inside the pipeline
  // workload).
  for (const std::string& site : failpoint::KnownSites()) {
    Status status = workloads[site].run();
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kUnavailable) << site;
      EXPECT_NE(status.message().find("chaos injected"), std::string::npos)
          << site;
    }
  }
  failpoint::DisarmAll();
  telemetry::SetHealthy();
  for (const std::string& site : failpoint::KnownSites()) {
    Status status = workloads[site].run();
    EXPECT_TRUE(status.ok()) << site << ": " << status.ToString();
  }
}

TEST_P(ChaosTest, NanPoisonBecomesTypedNonFiniteError) {
  SumUtility utility(4);
  ASSERT_TRUE(failpoint::Arm("utility.evaluate=nan").ok());
  // TryEvaluate itself reports the poisoned value...
  Result<double> poisoned = utility.TryEvaluate({0, 1});
  ASSERT_TRUE(poisoned.ok());
  EXPECT_TRUE(std::isnan(*poisoned));
  // ...and the estimator's finiteness check converts it into a typed error
  // instead of averaging NaNs into the estimate.
  TmcShapleyOptions options;
  options.num_permutations = 8;
  options.truncation_tolerance = 0.0;
  Result<ImportanceEstimate> estimate = TmcShapleyValues(utility, options);
  ASSERT_FALSE(estimate.ok());
  EXPECT_EQ(estimate.status().code(), StatusCode::kInternal);
  EXPECT_NE(estimate.status().message().find("non-finite"),
            std::string::npos);
}

/// v(empty) is evaluated before any wave, where the runner's abort record
/// never sees it: the checked evaluation itself must degrade health.
TEST_P(ChaosTest, FailedEmptyCoalitionAbortsWithCauseAndDegrades) {
  SumUtility utility(4);
  ASSERT_TRUE(
      failpoint::Arm("utility.evaluate=error(unavailable:backend down)")
          .ok());
  TmcShapleyOptions options;
  options.num_permutations = 8;
  options.truncation_tolerance = 0.0;
  Result<ImportanceEstimate> estimate = TmcShapleyValues(utility, options);
  // Every evaluation fails, so no wave completes and the cause surfaces as
  // the estimator's status.
  ASSERT_FALSE(estimate.ok());
  EXPECT_EQ(estimate.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(estimate.status().message().find("backend down"),
            std::string::npos);
  EXPECT_FALSE(telemetry::IsHealthy());
}

/// On a real KNN utility, every game estimator's prelude ranks the training
/// rows for blocks of validation points over pool tasks — the first ones of
/// the run — so the pool's failpoint can kill the build itself. No wave ran
/// and no coalition was evaluated: the fault is the run's typed Status, and
/// the context stays unbuilt for the next call to build.
TEST_P(ChaosTest, PoolFaultDuringScorerContextBuildIsTypedAndRetryable) {
  BlobsOptions blobs;
  blobs.num_examples = 40;
  blobs.seed = 5;
  blobs.center_seed = 9;
  MlDataset train = MakeBlobs(blobs);
  blobs.num_examples = 12;
  blobs.seed = 6;
  MlDataset validation = MakeBlobs(blobs);
  ClassifierFactory knn = [] { return std::make_unique<KnnClassifier>(3); };
  using Estimator =
      std::function<Result<ImportanceEstimate>(const UtilityFunction&)>;
  const std::vector<std::pair<std::string, Estimator>> estimators = {
      {"loo",
       [](const UtilityFunction& utility) {
         EstimatorOptions options;
         options.num_threads = 4;
         return LeaveOneOutValues(utility, options);
       }},
      {"tmc_shapley",
       [](const UtilityFunction& utility) {
         TmcShapleyOptions options;
         options.num_permutations = 8;
         options.num_threads = 4;
         options.seed = 13;
         return TmcShapleyValues(utility, options);
       }},
      {"banzhaf",
       [](const UtilityFunction& utility) {
         BanzhafOptions options;
         options.num_samples = 32;
         options.num_threads = 4;
         options.seed = 13;
         return BanzhafValues(utility, options);
       }},
      {"beta_shapley",
       [](const UtilityFunction& utility) {
         BetaShapleyOptions options;
         options.samples_per_unit = 4;
         options.num_threads = 4;
         options.seed = 13;
         return BetaShapleyValues(utility, options);
       }},
  };

  for (const auto& [name, run] : estimators) {
    SCOPED_TRACE(name);
    Reset();
    ModelAccuracyUtility utility(knn, train, validation);
    ASSERT_TRUE(
        failpoint::Arm("threadpool.task=error(unavailable:worker fault)#1x1")
            .ok());
    Result<ImportanceEstimate> faulted = run(utility);
    ASSERT_FALSE(faulted.ok());
    EXPECT_EQ(faulted.status().code(), StatusCode::kUnavailable);
    EXPECT_NE(faulted.status().message().find("worker fault"),
              std::string::npos);
    EXPECT_EQ(FiresFor("threadpool.task"), 1u);
    // The build precedes the first evaluation.
    EXPECT_EQ(utility.num_evaluations(), 0u);
    EXPECT_FALSE(telemetry::IsHealthy());

    // Rerunning on the same utility builds the context and matches a fresh
    // utility bit for bit.
    failpoint::DisarmAll();
    Result<ImportanceEstimate> rerun = run(utility);
    ModelAccuracyUtility fresh(knn, train, validation);
    Result<ImportanceEstimate> clean = run(fresh);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_EQ(rerun->values, clean->values);
    EXPECT_EQ(rerun->std_errors, clean->std_errors);
    EXPECT_EQ(rerun->utility_evaluations, clean->utility_evaluations);
    EXPECT_EQ(utility.num_evaluations(), fresh.num_evaluations());
  }
}

/// Influence's Newton passes and the column transformer fan out over blocks
/// of kRowBlock rows. Each input here spans two blocks, so each fans out, and
/// a lost pool task comes back as the fault's typed Status.
TEST_P(ChaosTest, PoolFaultInRowBlockFanOutsIsTyped) {
  struct DefaultThreads {
    DefaultThreads() { SetDefaultNumThreads(4); }
    ~DefaultThreads() { SetDefaultNumThreads(0); }
  } threads;
  size_t rows = kRowBlock + 1;
  std::vector<double> numbers(rows);
  for (size_t r = 0; r < rows; ++r) numbers[r] = static_cast<double>(r % 9);
  Table table = TableBuilder().AddDoubleColumn("x", numbers).Build();
  ColumnTransformer transformer;
  transformer.Add("x", std::make_unique<NumericEncoder>());
  ASSERT_TRUE(transformer.Fit(table).ok());

  BlobsOptions blobs;
  blobs.num_examples = rows;
  MlDataset train = MakeBlobs(blobs);
  blobs.num_examples = 50;
  blobs.seed = 43;
  blobs.center_seed = 42;
  MlDataset validation = MakeBlobs(blobs);

  const std::vector<std::pair<std::string, std::function<Status()>>> runs = {
      {"transform", [&] { return transformer.Transform(table).status(); }},
      {"influence",
       [&] { return InfluenceOnValidationLoss(train, validation).status(); }},
  };
  for (const auto& [name, run] : runs) {
    SCOPED_TRACE(name);
    Reset();
    ASSERT_TRUE(run().ok());
    ASSERT_TRUE(
        failpoint::Arm("threadpool.task=error(unavailable:worker fault)#1x1")
            .ok());
    Status faulted = run();
    EXPECT_EQ(faulted.code(), StatusCode::kUnavailable);
    EXPECT_NE(faulted.message().find("worker fault"), std::string::npos)
        << faulted.ToString();
    EXPECT_EQ(FiresFor("threadpool.task"), 1u);
    failpoint::DisarmAll();
    EXPECT_TRUE(run().ok());
  }
}

TEST_P(ChaosTest, KeyedDecisionBitmapIsThreadScheduleInvariant) {
  ASSERT_TRUE(failpoint::Arm("chaos.bitmap=error@0.5/123").ok());
  constexpr size_t kKeys = 1000;
  std::vector<char> serial(kKeys, 0);
  for (size_t key = 0; key < kKeys; ++key) {
    serial[key] = failpoint::Fire("chaos.bitmap", key).fired() ? 1 : 0;
  }
  std::vector<char> parallel_bits(kKeys, 0);
  ParallelFor(
      0, kKeys,
      [&](size_t key) {
        parallel_bits[key] =
            failpoint::Fire("chaos.bitmap", key).fired() ? 1 : 0;
      },
      8, "chaos_bitmap");
  EXPECT_EQ(serial, parallel_bits);
}

/// Probabilistic injection into the TMC estimator replays bit-identically
/// for any thread count: the fire decision is keyed by the subset hash, never
/// by hit order or thread schedule.
TEST_P(ChaosTest, ProbabilisticTmcReplayIsIdenticalAcrossThreadCounts) {
  SumUtility utility(6);
  std::vector<size_t> all_units = {0, 1, 2, 3, 4, 5};

  // Pick a seed whose decisions spare the empty/full evaluations so the run
  // reaches the sampling waves; the probe uses the real site and key scheme,
  // so the choice is deterministic and survives framework changes.
  uint64_t seed = 0;
  for (; seed < 64; ++seed) {
    std::string spec = StrFormat(
        "utility.evaluate=error(unavailable:chaos)@0.05/%llu",
        static_cast<unsigned long long>(seed));
    ASSERT_TRUE(failpoint::Arm(spec).ok());
    if (utility.TryEvaluate({}).ok() && utility.TryEvaluate(all_units).ok()) {
      break;
    }
  }
  ASSERT_LT(seed, 64u) << "no usable seed found";

  TmcShapleyOptions options;
  options.num_permutations = 64;
  options.truncation_tolerance = 0.0;
  options.seed = 17;
  auto run = [&](size_t threads) {
    failpoint::ResetStats();
    options.num_threads = threads;
    return TmcShapleyValues(utility, options);
  };
  Result<ImportanceEstimate> one = run(1);
  Result<ImportanceEstimate> eight = run(8);
  ASSERT_EQ(one.ok(), eight.ok());
  if (!one.ok()) {
    // Even a fatal outcome must replay exactly.
    EXPECT_EQ(one.status().ToString(), eight.status().ToString());
    return;
  }
  EXPECT_EQ(one->values, eight->values);
  EXPECT_EQ(one->std_errors, eight->std_errors);
  EXPECT_EQ(one->utility_evaluations, eight->utility_evaluations);
  EXPECT_EQ(one->aborted_early, eight->aborted_early);
  EXPECT_EQ(one->abort_cause.ToString(), eight->abort_cause.ToString());
}

/// TMC's prefix scan hosts the same site, keyed by permutation x position:
/// an injected error or NaN on a Push aborts its wave with a typed cause,
/// degrades health, and replays identically for any thread count.
TEST_P(ChaosTest, PrefixScanFaultsAreTypedAndReplayAcrossThreadCounts) {
  ScanSumUtility utility(6);
  std::vector<size_t> all_units = {0, 1, 2, 3, 4, 5};
  auto clean = [&](const std::vector<size_t>& subset) {
    Result<double> value = utility.TryEvaluate(subset);
    return value.ok() && std::isfinite(*value);
  };
  const std::vector<std::pair<std::string, StatusCode>> actions = {
      {"error(unavailable:flaky)", StatusCode::kUnavailable},
      {"nan", StatusCode::kInternal},
  };
  for (const auto& [action, code] : actions) {
    SCOPED_TRACE(action);
    // A seed whose decisions spare v(empty) and v(N), so every fire lands on
    // a Push.
    std::string spec;
    for (int seed = 0; seed < 64 && spec.empty(); ++seed) {
      std::string candidate =
          StrFormat("utility.evaluate=%s@0.02/%d", action.c_str(), seed);
      ASSERT_TRUE(failpoint::Arm(candidate).ok());
      if (clean({}) && clean(all_units)) spec = candidate;
    }
    ASSERT_FALSE(spec.empty()) << "no usable seed found";

    TmcShapleyOptions options;
    options.num_permutations = 64;
    options.truncation_tolerance = 0.0;
    options.seed = 17;
    auto run = [&](size_t threads) {
      Reset();
      EXPECT_TRUE(failpoint::Arm(spec).ok());
      options.num_threads = threads;
      Result<ImportanceEstimate> estimate = TmcShapleyValues(utility, options);
      EXPECT_GE(FiresFor("utility.evaluate"), 1u);
      EXPECT_FALSE(telemetry::IsHealthy());
      return estimate;
    };
    Result<ImportanceEstimate> one = run(1);
    Result<ImportanceEstimate> eight = run(8);
    Status cause = one.ok() ? one->abort_cause : one.status();
    EXPECT_EQ(cause.code(), code) << cause.ToString();
    ASSERT_EQ(one.ok(), eight.ok());
    if (!one.ok()) {
      EXPECT_EQ(one.status().ToString(), eight.status().ToString());
      continue;
    }
    EXPECT_TRUE(one->aborted_early);
    EXPECT_EQ(one->values, eight->values);
    EXPECT_EQ(one->std_errors, eight->std_errors);
    EXPECT_EQ(one->utility_evaluations, eight->utility_evaluations);
    EXPECT_EQ(one->abort_cause.ToString(), eight->abort_cause.ToString());
  }
}

TEST_P(ChaosTest, HealthEndpointFlipsDegradedWhileMetricsStayScrapeable) {
  std::string healthy =
      telemetry::HttpExporter::HandleRequest("GET /healthz HTTP/1.1");
  EXPECT_EQ(healthy.find("HTTP/1.1 200"), 0u);
  EXPECT_NE(healthy.find("ok"), std::string::npos);

  telemetry::SetDegraded("backend flaky");
  EXPECT_FALSE(telemetry::IsHealthy());
  std::string degraded =
      telemetry::HttpExporter::HandleRequest("GET /healthz HTTP/1.1");
  EXPECT_EQ(degraded.find("HTTP/1.1 503"), 0u);
  EXPECT_NE(degraded.find("degraded: backend flaky"), std::string::npos);
  // Liveness stays intact: /metrics keeps serving while degraded, so an
  // operator can still see *why* the process is unhappy.
  std::string metrics =
      telemetry::HttpExporter::HandleRequest("GET /metrics HTTP/1.1");
  EXPECT_EQ(metrics.find("HTTP/1.1 200"), 0u);

  telemetry::SetHealthy();
  std::string recovered =
      telemetry::HttpExporter::HandleRequest("GET /healthz HTTP/1.1");
  EXPECT_EQ(recovered.find("HTTP/1.1 200"), 0u);
}

TEST_P(ChaosTest, HttpHandlerFaultReturnsWellFormed500) {
  ASSERT_TRUE(
      failpoint::Arm("http.handle_request=error(internal:scrape exploded)")
          .ok());
  std::string response =
      telemetry::HttpExporter::HandleRequest("GET /metrics HTTP/1.1");
  EXPECT_EQ(response.find("HTTP/1.1 500"), 0u);
  EXPECT_NE(response.find("scrape exploded"), std::string::npos);
  // The handler survives: the next request (after disarm) is served normally.
  failpoint::DisarmAll();
  std::string after =
      telemetry::HttpExporter::HandleRequest("GET /metrics HTTP/1.1");
  EXPECT_EQ(after.find("HTTP/1.1 200"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Tracing, ChaosTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Traced" : "Untraced";
                         });

}  // namespace
}  // namespace nde
