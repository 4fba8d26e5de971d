#include "common/log.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/trace_context.h"

namespace nde {
namespace {

// Captures records through a test sink and restores the global logger state
// (sink, level, JSON mode) afterwards so tests never leak configuration.
class LogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    original_level_ = log::MinLevel();
    log::SetMinLevel(log::Level::kDebug);
    log::Logger::Global().SetSink(
        [this](const log::LogRecord& record) { records_.push_back(record); });
  }
  void TearDown() override {
    log::Logger::Global().SetSink(nullptr);
    log::Logger::Global().SetJson(false);
    log::SetMinLevel(original_level_);
  }

  std::vector<log::LogRecord> records_;
  log::Level original_level_ = log::Level::kWarning;
};

TEST_F(LogTest, LevelNamesRoundTrip) {
  EXPECT_STREQ(log::LevelName(log::Level::kDebug), "DEBUG");
  EXPECT_STREQ(log::LevelName(log::Level::kInfo), "INFO");
  EXPECT_STREQ(log::LevelName(log::Level::kWarning), "WARNING");
  EXPECT_STREQ(log::LevelName(log::Level::kError), "ERROR");

  log::Level level = log::Level::kDebug;
  EXPECT_TRUE(log::ParseLevel("info", &level));
  EXPECT_EQ(level, log::Level::kInfo);
  EXPECT_TRUE(log::ParseLevel("WARNING", &level));
  EXPECT_EQ(level, log::Level::kWarning);
  EXPECT_TRUE(log::ParseLevel("warn", &level));
  EXPECT_EQ(level, log::Level::kWarning);
  EXPECT_TRUE(log::ParseLevel("err", &level));
  EXPECT_EQ(level, log::Level::kError);
  EXPECT_TRUE(log::ParseLevel("Debug", &level));
  EXPECT_EQ(level, log::Level::kDebug);

  level = log::Level::kInfo;
  EXPECT_FALSE(log::ParseLevel("verbose", &level));
  EXPECT_FALSE(log::ParseLevel("", &level));
  EXPECT_EQ(level, log::Level::kInfo) << "failed parse must not write";
}

TEST_F(LogTest, EmitRespectsLevelFilter) {
  log::SetMinLevel(log::Level::kWarning);
  log::Emit(log::Level::kInfo, "x.cc", 1, "dropped");
  log::Emit(log::Level::kWarning, "x.cc", 2, "kept");
  log::Emit(log::Level::kError, "x.cc", 3, "kept too");
  ASSERT_EQ(records_.size(), 2u);
  EXPECT_EQ(records_[0].message, "kept");
  EXPECT_EQ(records_[0].line, 2);
  EXPECT_EQ(records_[1].level, log::Level::kError);
}

TEST_F(LogTest, FormatTextCarriesLevelFileLineAndMessage) {
  log::LogRecord record;
  record.level = log::Level::kWarning;
  record.file = "game_values.cc";
  record.line = 42;
  record.wall_micros = 0;
  record.tid = 3;
  record.message = "converged";
  std::string text = log::FormatText(record);
  EXPECT_EQ(text[0], 'W');
  EXPECT_NE(text.find("game_values.cc:42] converged"), std::string::npos)
      << text;
}

TEST_F(LogTest, FormatJsonIsValidJsonAndEscapes) {
  log::LogRecord record;
  record.level = log::Level::kError;
  record.file = "a.cc";
  record.line = 7;
  record.wall_micros = 1234567;
  record.tid = 1;
  record.message = "quote \" backslash \\ newline \n done";
  std::string json = log::FormatJson(record);
  EXPECT_TRUE(json::Parse(json).ok()) << json;
  EXPECT_NE(json.find("\"level\":\"ERROR\""), std::string::npos) << json;
  // occurrence is elided when 1, present when > 1.
  EXPECT_EQ(json.find("occurrence"), std::string::npos) << json;
  record.occurrence = 5;
  json = log::FormatJson(record);
  EXPECT_TRUE(json::Parse(json).ok()) << json;
  EXPECT_NE(json.find("\"occurrence\":5"), std::string::npos) << json;
}

TEST_F(LogTest, FormattersCarryTraceAndJobOnlyWhenStamped) {
  log::LogRecord record;
  record.level = log::Level::kInfo;
  record.file = "x.cc";
  record.line = 1;
  record.message = "m";
  // Without a stamp, output is byte-identical to the pre-tracing format.
  std::string plain_text = log::FormatText(record);
  EXPECT_EQ(plain_text.find(" trace="), std::string::npos) << plain_text;
  std::string plain_json = log::FormatJson(record);
  EXPECT_EQ(plain_json.find("trace_id"), std::string::npos) << plain_json;
  EXPECT_EQ(plain_json.find("job_id"), std::string::npos) << plain_json;

  record.trace_id = "0123456789abcdeffedcba9876543210";
  record.job_id = "job-7";
  std::string text = log::FormatText(record);
  EXPECT_NE(text.find("] m trace=0123456789abcdeffedcba9876543210 job=job-7"),
            std::string::npos)
      << text;
  std::string json = log::FormatJson(record);
  EXPECT_TRUE(json::Parse(json).ok()) << json;
  EXPECT_NE(
      json.find("\"trace_id\":\"0123456789abcdeffedcba9876543210\""),
      std::string::npos)
      << json;
  EXPECT_NE(json.find("\"job_id\":\"job-7\""), std::string::npos) << json;
}

TEST_F(LogTest, EmitStampsRecordsFromTheInstalledTraceContext) {
  TraceContext context;
  context.trace_id_hi = 0x0123456789abcdefULL;
  context.trace_id_lo = 0xfedcba9876543210ULL;
  context.job_id = "job-42";
  {
    ScopedTraceContext scope{context};
    log::Emit(log::Level::kInfo, "x.cc", 1, "inside");
  }
  log::Emit(log::Level::kInfo, "x.cc", 2, "outside");
  ASSERT_EQ(records_.size(), 2u);
  EXPECT_EQ(records_[0].trace_id, "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(records_[0].job_id, "job-42");
  EXPECT_TRUE(records_[1].trace_id.empty());
  EXPECT_TRUE(records_[1].job_id.empty());
}

#if NDE_TELEMETRY_ENABLED

TEST_F(LogTest, MacroSkipsFormattingWhenFiltered) {
  log::SetMinLevel(log::Level::kError);
  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return std::string("payload");
  };
  NDE_LOG(INFO) << expensive();
  EXPECT_EQ(evaluations, 0) << "operands of a filtered NDE_LOG must not run";
  EXPECT_TRUE(records_.empty());

  NDE_LOG(ERROR) << expensive();
  EXPECT_EQ(evaluations, 1);
  ASSERT_EQ(records_.size(), 1u);
  EXPECT_EQ(records_[0].message, "payload");
}

TEST_F(LogTest, EveryNEmitsOccurrences1Then5Then9) {
  for (int i = 0; i < 10; ++i) {
    NDE_LOG_EVERY_N(INFO, 4) << "tick " << i;
  }
  ASSERT_EQ(records_.size(), 3u);
  EXPECT_EQ(records_[0].message, "tick 0");
  EXPECT_EQ(records_[0].occurrence, 1u);
  EXPECT_EQ(records_[1].message, "tick 4");
  EXPECT_EQ(records_[1].occurrence, 5u);
  EXPECT_EQ(records_[2].message, "tick 8");
  EXPECT_EQ(records_[2].occurrence, 9u);
}

TEST_F(LogTest, FirstNEmitsOnlyTheFirstN) {
  for (int i = 0; i < 10; ++i) {
    NDE_LOG_FIRST_N(WARNING, 3) << "warn " << i;
  }
  ASSERT_EQ(records_.size(), 3u);
  EXPECT_EQ(records_[0].message, "warn 0");
  EXPECT_EQ(records_[2].message, "warn 2");
}

TEST_F(LogTest, EveryMsCollapsesABurstToOneLine) {
  // A huge window: the whole burst lands inside it, so only the first line
  // of this site can ever emit. (Timing-dependent the other way — asserting
  // a *second* emission — would flake; asserting suppression cannot.)
  for (int i = 0; i < 50; ++i) {
    NDE_LOG_EVERY_MS(INFO, 3600 * 1000) << "burst " << i;
  }
  ASSERT_EQ(records_.size(), 1u);
  EXPECT_EQ(records_[0].message, "burst 0");
}

TEST_F(LogTest, SuppressedLinesAreCounted) {
  log::Logger::Global().ResetStats();
  for (int i = 0; i < 9; ++i) {
    NDE_LOG_EVERY_N(INFO, 3) << "x";
  }
  log::LogStats stats = log::Logger::Global().stats();
  EXPECT_EQ(stats.emitted, 3u);     // occurrences 1, 4, 7
  EXPECT_EQ(stats.suppressed, 6u);  // the rest
}

TEST_F(LogTest, RateLimitedSitesDoNotShareState) {
  auto site_a = [] { NDE_LOG_FIRST_N(INFO, 1) << "a"; };
  auto site_b = [] { NDE_LOG_FIRST_N(INFO, 1) << "b"; };
  site_a();
  site_a();
  site_b();  // Its own budget: must still emit.
  ASSERT_EQ(records_.size(), 2u);
  EXPECT_EQ(records_[0].message, "a");
  EXPECT_EQ(records_[1].message, "b");
}

TEST_F(LogTest, ConcurrentWritersProduceWholeRecords) {
  constexpr int kThreads = 8;
  constexpr int kLinesPerThread = 50;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kLinesPerThread; ++i) {
        NDE_LOG(INFO) << "thread " << t << " line " << i;
      }
    });
  }
  for (auto& worker : workers) worker.join();
  ASSERT_EQ(records_.size(),
            static_cast<size_t>(kThreads * kLinesPerThread));
  for (const auto& record : records_) {
    EXPECT_EQ(record.message.rfind("thread ", 0), 0u) << record.message;
  }
}

#else  // !NDE_TELEMETRY_ENABLED

TEST_F(LogTest, MacrosCompileOutButEmitStillWorks) {
  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return 1;
  };
  NDE_LOG(ERROR) << expensive();
  NDE_LOG_EVERY_N(ERROR, 1) << expensive();
  NDE_LOG_FIRST_N(ERROR, 1) << expensive();
  NDE_LOG_EVERY_MS(ERROR, 1) << expensive();
  EXPECT_EQ(evaluations, 0);
  EXPECT_TRUE(records_.empty());

  log::Emit(log::Level::kError, "x.cc", 1, "function form stays live");
  ASSERT_EQ(records_.size(), 1u);
}

#endif  // NDE_TELEMETRY_ENABLED

}  // namespace
}  // namespace nde
