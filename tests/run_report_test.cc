#include "telemetry/run_report.h"

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/progress.h"
#include "common/trace_context.h"
#include "importance/game_values.h"
#include "importance/utility.h"
#include "json_checker.h"
#include "telemetry/trace.h"

namespace nde {
namespace {

ProgressUpdate MakeUpdate(size_t completed, size_t total, size_t evals,
                          double max_std_error) {
  ProgressUpdate update;
  update.phase = "test";
  update.completed = completed;
  update.total = total;
  update.utility_evaluations = evals;
  update.max_std_error = max_std_error;
  return update;
}

TEST(RunReportTest, EnvelopeIsMonotoneOnANonMonotoneRawSeries) {
  telemetry::RunReport report("envelope");
  // Raw errors: not estimable, then 0.5, 0.2, 0.4 (tick up), not estimable,
  // 0.1. The envelope must carry through the gaps and never increase.
  const double raw[] = {0.0, 0.5, 0.2, 0.4, 0.0, 0.1};
  for (size_t i = 0; i < 6; ++i) {
    report.RecordProgress(MakeUpdate(i + 1, 6, (i + 1) * 10, raw[i]));
  }
  const auto& curve = report.curve();
  ASSERT_EQ(curve.size(), 6u);
  const double expected_envelope[] = {0.0, 0.5, 0.2, 0.2, 0.2, 0.1};
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(curve[i].max_std_error, raw[i]) << i;
    EXPECT_DOUBLE_EQ(curve[i].envelope, expected_envelope[i]) << i;
    if (i > 0 && curve[i].envelope > 0 && curve[i - 1].envelope > 0) {
      EXPECT_LE(curve[i].envelope, curve[i - 1].envelope) << i;
    }
  }
}

TEST(RunReportTest, MakeProgressCallbackForwardsEveryField) {
  telemetry::RunReport report("callback");
  ProgressCallback callback = report.MakeProgressCallback();
  callback(MakeUpdate(32, 100, 250, 0.125));
  ASSERT_EQ(report.curve().size(), 1u);
  EXPECT_EQ(report.curve()[0].completed, 32u);
  EXPECT_EQ(report.curve()[0].total, 100u);
  EXPECT_EQ(report.curve()[0].utility_evaluations, 250u);
  EXPECT_DOUBLE_EQ(report.curve()[0].max_std_error, 0.125);
}

TEST(RunReportTest, ConfigKeepsTypesAndLastWriteWins) {
  telemetry::RunReport report("config");
  report.SetConfig("method", "tmc_shapley");
  report.SetConfig("seed", int64_t{42});
  report.SetConfig("tolerance", 0.05);
  report.SetConfig("cache", true);
  report.SetConfig("seed", int64_t{7});  // Overwrite.
  std::string json = report.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"method\":\"tmc_shapley\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\":7"), std::string::npos);
  EXPECT_EQ(json.find("\"seed\":42"), std::string::npos);
  EXPECT_NE(json.find("\"cache\":true"), std::string::npos);
}

TEST(RunReportTest, DoublesCarryTheirShortestRoundTripSpelling) {
  // Report doubles carry the same bits as the job API's values and eventz:
  // 0.1 + 0.2 needs all 17 significant digits to round-trip.
  telemetry::RunReport report("doubles");
  report.SetConfig("tolerance", 0.1 + 0.2);
  report.RecordProgress(MakeUpdate(1, 2, 3, 1.0 / 3.0));
  std::string json = report.ToJson();
  EXPECT_NE(json.find("\"tolerance\":0.30000000000000004"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"max_std_error\":0.3333333333333333,"),
            std::string::npos)
      << json;
}

TEST(RunReportTest, ToJsonIsWellFormedAndFinishIsIdempotent) {
  telemetry::RunReport report("shape");
  report.SetConfig("escaped \"key\"", "escaped \"value\"\n");
  report.RecordProgress(MakeUpdate(1, 2, 3, 0.5));
  report.Finish();
  EXPECT_TRUE(report.finished());
  std::string first = report.ToJson();
  report.Finish();  // Second call must not move the timers.
  EXPECT_EQ(report.ToJson(), first);
  EXPECT_TRUE(JsonChecker(first).Valid()) << first;
  for (const char* key :
       {"\"name\":\"shape\"", "\"config\":", "\"timing\":", "\"wall_ms\":",
        "\"cpu_ms\":", "\"convergence_curve\":", "\"metrics\":",
        "\"profile\":", "\"trace\":"}) {
    EXPECT_NE(first.find(key), std::string::npos) << key << "\n" << first;
  }
}

TEST(RunReportTest, ProfileBlockFoldsTheReportsOwnTrace) {
  telemetry::TraceBuffer& buffer = telemetry::TraceBuffer::Global();
  buffer.Clear();
  auto record = [&buffer](const char* name, uint64_t trace_lo,
                          uint64_t span, uint64_t parent, int64_t dur_us) {
    telemetry::TraceEvent event;
    event.name = name;
    event.trace_id_hi = 3;
    event.trace_id_lo = trace_lo;
    event.span_id = span;
    event.parent_span_id = parent;
    event.dur_us = dur_us;
    buffer.Record(event);
  };
  record("run_root", 4, 1, 0, 90);
  record("run_leaf", 4, 2, 1, 30);
  record("other_trace", 5, 3, 0, 10);

  // Built inside a trace, the report folds that trace only.
  {
    TraceContext context;
    context.trace_id_hi = 3;
    context.trace_id_lo = 4;
    ScopedTraceContext scope(std::move(context));
    telemetry::RunReport report("in_trace");
    std::string json = report.ToJson();
    EXPECT_TRUE(JsonChecker(json).Valid()) << json;
    EXPECT_NE(json.find("\"profile\":{\"spans\":2,\"dropped_spans\":0,"
                        "\"unique_stacks\":2,\"folded\":[{\"stack\":"
                        "\"run_root\",\"self_us\":60},{\"stack\":"
                        "\"run_root;run_leaf\",\"self_us\":30}],"),
              std::string::npos)
        << json;
    EXPECT_EQ(json.find("other_trace"), std::string::npos) << json;
    EXPECT_NE(json.find("\"max_us\":90}"), std::string::npos) << json;
    EXPECT_NE(json.find("\"alloc\":"), std::string::npos) << json;
    EXPECT_NE(json.find("\"trace\":{\"buffered_spans\":3,"
                        "\"dropped_spans\":0,\"buffer_capacity\":"),
              std::string::npos)
        << json;
  }
  // Built outside any trace, it folds every buffered span.
  {
    telemetry::RunReport report("no_trace");
    std::string json = report.ToJson();
    EXPECT_TRUE(JsonChecker(json).Valid()) << json;
    EXPECT_NE(json.find("\"profile\":{\"spans\":3,"), std::string::npos)
        << json;
    EXPECT_NE(json.find("{\"stack\":\"other_trace\",\"self_us\":10}"),
              std::string::npos)
        << json;
  }
  buffer.Clear();
}

TEST(RunReportTest, WriteFileRoundTripsAndReportsIOErrors) {
  telemetry::RunReport report("file");
  report.RecordProgress(MakeUpdate(4, 4, 9, 0.25));
  std::string path =
      ::testing::TempDir() + "/nde_run_report_test_roundtrip.json";
  ASSERT_TRUE(report.WriteFile(path).ok());

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(f);
  std::remove(path.c_str());

  ASSERT_FALSE(contents.empty());
  EXPECT_EQ(contents.back(), '\n');
  contents.pop_back();
  EXPECT_EQ(contents, report.ToJson());
  EXPECT_TRUE(JsonChecker(contents).Valid());

  Status bad = report.WriteFile("/nonexistent-dir-zzz/report.json");
  EXPECT_FALSE(bad.ok());
}

// A report attached to a real estimator run must agree with the estimate:
// the last curve point sits at the run's final boundary and its cumulative
// evaluation count matches the estimator's own accounting.
TEST(RunReportTest, CurveAgreesWithARealTmcRun) {
  class SqrtGame : public UtilityFunction {
   public:
    double Evaluate(const std::vector<size_t>& subset) const override {
      double sum = 0.0;
      for (size_t i : subset) sum += static_cast<double>(i + 1);
      return std::sqrt(sum);
    }
    size_t num_units() const override { return 6; }
  };
  SqrtGame game;

  telemetry::RunReport report("tmc");
  TmcShapleyOptions options;
  options.num_permutations = 64;
  options.seed = 11;
  options.truncation_tolerance = 0.0;
  options.progress = report.MakeProgressCallback();
  ImportanceEstimate estimate = TmcShapleyValues(game, options).value();

  const auto& curve = report.curve();
  ASSERT_EQ(curve.size(), 2u);  // 64 permutations = two 32-permutation waves.
  EXPECT_EQ(curve.back().completed, 64u);
  EXPECT_EQ(curve.back().total, 64u);
  EXPECT_EQ(curve.back().utility_evaluations, estimate.utility_evaluations);
  EXPECT_GT(curve.back().max_std_error, 0.0);
  EXPECT_LE(curve.back().envelope, curve.front().envelope);
  EXPECT_TRUE(JsonChecker(report.ToJson()).Valid());
}

}  // namespace
}  // namespace nde
