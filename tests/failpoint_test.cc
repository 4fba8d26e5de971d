#include "common/failpoint.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/result.h"
#include "common/status.h"

namespace nde {
namespace {

/// Every test starts and ends with nothing armed and zeroed counters, so
/// tests compose in any order and never leak injections into other suites.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DisarmAll();
    failpoint::ResetStats();
  }
  void TearDown() override {
    failpoint::DisarmAll();
    failpoint::ResetStats();
  }
};

/// Looks up one site's counters in Stats() (zeros when never armed).
failpoint::PointStats StatsFor(const std::string& name) {
  for (const failpoint::PointStats& point : failpoint::Stats()) {
    if (point.name == name) return point;
  }
  return {};
}

TEST_F(FailpointTest, UnarmedProcessIsSilent) {
  EXPECT_FALSE(failpoint::AnyArmed());
  failpoint::Outcome out = failpoint::Fire("test.silent");
  EXPECT_EQ(out.kind, failpoint::Outcome::kNone);
  EXPECT_FALSE(out.fired());
  EXPECT_TRUE(out.status.ok());
}

TEST_F(FailpointTest, ErrorActionDefaultsToInternal) {
  ASSERT_TRUE(failpoint::Arm("test.err=error").ok());
  EXPECT_TRUE(failpoint::AnyArmed());
  failpoint::Outcome out = failpoint::Fire("test.err");
  EXPECT_EQ(out.kind, failpoint::Outcome::kError);
  EXPECT_TRUE(out.fired());
  EXPECT_EQ(out.status.code(), StatusCode::kInternal);
  EXPECT_NE(out.status.message().find("failpoint 'test.err' fired"),
            std::string::npos);
}

TEST_F(FailpointTest, ErrorActionWithCodeAndMessage) {
  ASSERT_TRUE(failpoint::Arm("test.err=error(io_error:disk gone)").ok());
  failpoint::Outcome out = failpoint::Fire("test.err");
  EXPECT_EQ(out.status.code(), StatusCode::kIOError);
  EXPECT_EQ(out.status.message(), "disk gone");
}

TEST_F(FailpointTest, DelayServesThenContinues) {
  ASSERT_TRUE(failpoint::Arm("test.delay=delay(20)").ok());
  auto start = std::chrono::steady_clock::now();
  failpoint::Outcome out = failpoint::Fire("test.delay");
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  // A delay is served in place and the caller proceeds normally.
  EXPECT_EQ(out.kind, failpoint::Outcome::kNone);
  EXPECT_FALSE(out.fired());
  EXPECT_GE(elapsed.count(), 15);
  // The delay still counts as a fire in the stats.
  EXPECT_EQ(StatsFor("test.delay").fires, 1u);
}

TEST_F(FailpointTest, NanPoisonCarriesTypedStatus) {
  ASSERT_TRUE(failpoint::Arm("test.nan=nan").ok());
  failpoint::Outcome out = failpoint::Fire("test.nan");
  EXPECT_EQ(out.kind, failpoint::Outcome::kNanPoison);
  EXPECT_TRUE(out.fired());
  // Status-only sites cannot represent a poisoned value; they must still get
  // a typed non-OK status instead of a silent "fired but OK" outcome.
  EXPECT_EQ(out.status.code(), StatusCode::kInternal);
  EXPECT_NE(out.status.message().find("nan poison"), std::string::npos);
}

TEST_F(FailpointTest, FirstHitModifierSkipsEarlyHits) {
  ASSERT_TRUE(failpoint::Arm("test.nth=error#3").ok());
  EXPECT_FALSE(failpoint::Fire("test.nth").fired());
  EXPECT_FALSE(failpoint::Fire("test.nth").fired());
  EXPECT_TRUE(failpoint::Fire("test.nth").fired());
  EXPECT_TRUE(failpoint::Fire("test.nth").fired());  // and every hit after
  failpoint::PointStats stats = StatsFor("test.nth");
  EXPECT_EQ(stats.hits, 4u);
  EXPECT_EQ(stats.fires, 2u);
}

TEST_F(FailpointTest, MaxFiresModifierCapsInjections) {
  ASSERT_TRUE(failpoint::Arm("test.max=error(internal:cap)x2").ok());
  size_t fires = 0;
  for (int i = 0; i < 5; ++i) {
    if (failpoint::Fire("test.max").fired()) ++fires;
  }
  EXPECT_EQ(fires, 2u);
  EXPECT_EQ(StatsFor("test.max").fires, 2u);
  EXPECT_EQ(StatsFor("test.max").hits, 5u);
}

TEST_F(FailpointTest, FirstHitAndMaxFiresCompose) {
  // Fire exactly once, on the third hit: the one-shot transient fault.
  ASSERT_TRUE(failpoint::Arm("test.once=error#3x1").ok());
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) {
    fired.push_back(failpoint::Fire("test.once").fired());
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false,
                                      false}));
}

TEST_F(FailpointTest, MalformedSpecsAreRejected) {
  const char* bad[] = {
      "noequals",                   // no '='
      "=error",                     // empty name
      "test.x=",                    // empty action
      "test.x=bogus",               // unknown action
      "test.x=alloc_fail",          // retired: error(resource_exhausted)
      "test.x=error(not_a_code)",   // unknown status code
      "test.x=error(ok)",           // firing cannot succeed
      "test.x=delay",               // delay needs (ms)
      "test.x=delay(abc)",          // non-numeric ms
      "test.x=delay(5",             // unterminated '('
      "test.x=off(now)",            // off takes no args
      "test.x=error#0",             // #N is 1-based
      "test.x=error(internal)x0",   // x0 is spelled 'off'
      "test.x=error@1.5",           // prob outside [0, 1]
      "test.x=error@-0.5",          // prob outside [0, 1]
      "test.x=error@zzz",           // non-numeric prob
      "test.x=error!7",             // unknown modifier
  };
  for (const char* spec : bad) {
    Status status = failpoint::Arm(spec);
    EXPECT_FALSE(status.ok()) << "spec accepted: " << spec;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << spec;
  }
  EXPECT_FALSE(failpoint::AnyArmed());
}

TEST_F(FailpointTest, ArmFromListArmsEverySpec) {
  ASSERT_TRUE(
      failpoint::ArmFromList(
          "test.a=error; test.b=nan, test.c=error(resource_exhausted)")
          .ok());
  EXPECT_TRUE(failpoint::Fire("test.a").fired());
  EXPECT_EQ(failpoint::Fire("test.b").kind, failpoint::Outcome::kNanPoison);
  EXPECT_EQ(failpoint::Fire("test.c").status.code(),
            StatusCode::kResourceExhausted);
}

TEST_F(FailpointTest, ArmFromListStopsAtFirstBadSpec) {
  Status status = failpoint::ArmFromList("test.a=error;test.b=bogus");
  EXPECT_FALSE(status.ok());
  // Specs before the bad one stay armed: the operator sees the parse error
  // and the already-applied prefix, matching documented behavior.
  EXPECT_TRUE(failpoint::Fire("test.a").fired());
}

TEST_F(FailpointTest, OffSpecDisarms) {
  ASSERT_TRUE(failpoint::Arm("test.off=error").ok());
  EXPECT_TRUE(failpoint::AnyArmed());
  ASSERT_TRUE(failpoint::Arm("test.off=off").ok());
  EXPECT_FALSE(failpoint::AnyArmed());
  EXPECT_FALSE(failpoint::Fire("test.off").fired());
  // Already disarmed: Disarm reports it was not armed.
  EXPECT_FALSE(failpoint::Disarm("test.off"));
}

TEST_F(FailpointTest, RearmReplacesSpecAndKeepsCounters) {
  ASSERT_TRUE(failpoint::Arm("test.rearm=error(internal)").ok());
  EXPECT_EQ(failpoint::Fire("test.rearm").status.code(),
            StatusCode::kInternal);
  ASSERT_TRUE(failpoint::Arm("test.rearm=error(unavailable)").ok());
  EXPECT_EQ(failpoint::Fire("test.rearm").status.code(),
            StatusCode::kUnavailable);
  failpoint::PointStats stats = StatsFor("test.rearm");
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.fires, 2u);
}

TEST_F(FailpointTest, StatsSurviveDisarmAndResetZeroes) {
  ASSERT_TRUE(failpoint::Arm("test.stats=error").ok());
  (void)failpoint::Fire("test.stats");
  ASSERT_TRUE(failpoint::Disarm("test.stats"));
  failpoint::PointStats stats = StatsFor("test.stats");
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.fires, 1u);
  EXPECT_FALSE(stats.armed);
  failpoint::ResetStats();
  stats = StatsFor("test.stats");
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.fires, 0u);
}

TEST_F(FailpointTest, KnownSitesCatalogMatchesDesignDoc) {
  const std::vector<std::string>& sites = failpoint::KnownSites();
  const char* expected[] = {
      "csv.open",         "csv.record",        "pipeline.execute",
      "encoder.fit",      "encoder.transform", "utility.evaluate",
      "threadpool.task",  "http.handle_request",
  };
  EXPECT_EQ(sites.size(), 8u);
  for (const char* site : expected) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), site), sites.end())
        << "missing site: " << site;
  }
}

TEST_F(FailpointTest, KeyedProbabilisticDecisionIsPureFunctionOfKey) {
  ASSERT_TRUE(failpoint::Arm("test.prob=error@0.5/123").ok());
  std::vector<bool> first;
  for (uint64_t key = 0; key < 1000; ++key) {
    first.push_back(failpoint::Fire("test.prob", key).fired());
  }
  // The decision ignores hit order entirely: replaying the same keys (with
  // 1000 extra hits already on the counters) reproduces the same bitmap.
  for (uint64_t key = 0; key < 1000; ++key) {
    EXPECT_EQ(failpoint::Fire("test.prob", key).fired(), first[key])
        << "key " << key;
  }
  // At prob 0.5 the fire rate over 1000 keys is near one half.
  size_t fires = static_cast<size_t>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(fires, 400u);
  EXPECT_LT(fires, 600u);
}

TEST_F(FailpointTest, DifferentSeedsGiveDifferentDecisions) {
  ASSERT_TRUE(failpoint::Arm("test.prob=error@0.5/1").ok());
  std::vector<bool> seed1;
  for (uint64_t key = 0; key < 256; ++key) {
    seed1.push_back(failpoint::Fire("test.prob", key).fired());
  }
  ASSERT_TRUE(failpoint::Arm("test.prob=error@0.5/2").ok());
  size_t differing = 0;
  for (uint64_t key = 0; key < 256; ++key) {
    if (failpoint::Fire("test.prob", key).fired() != seed1[key]) ++differing;
  }
  EXPECT_GT(differing, 0u);
}

TEST_F(FailpointTest, ProbabilityEdgesNeverAndAlways) {
  ASSERT_TRUE(failpoint::Arm("test.never=error@0").ok());
  ASSERT_TRUE(failpoint::Arm("test.always=error@1").ok());
  for (uint64_t key = 0; key < 64; ++key) {
    EXPECT_FALSE(failpoint::Fire("test.never", key).fired());
    EXPECT_TRUE(failpoint::Fire("test.always", key).fired());
  }
}

TEST_F(FailpointTest, MixKeyMixesBothCoordinates) {
  EXPECT_NE(failpoint::MixKey(1, 2), failpoint::MixKey(2, 1));
  EXPECT_NE(failpoint::MixKey(0, 0), failpoint::MixKey(0, 1));
  EXPECT_NE(failpoint::MixKey(0, 0), failpoint::MixKey(1, 0));
  EXPECT_EQ(failpoint::MixKey(7, 9), failpoint::MixKey(7, 9));
}

TEST_F(FailpointTest, InjectedFaultCarriesStatus) {
  failpoint::InjectedFault fault(Status::Unavailable("backend down"));
  EXPECT_EQ(fault.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(fault.status().message(), "backend down");
  EXPECT_NE(std::string(fault.what()).find("backend down"),
            std::string::npos);
}

// NDE_FAILPOINT works inside functions returning Status or Result<T>.
Status GuardedStatus() {
  NDE_FAILPOINT("test.macro");
  return Status();
}

Result<int> GuardedResult() {
  NDE_FAILPOINT_KEYED("test.macro", 7);
  return 42;
}

TEST_F(FailpointTest, MacroReturnsInjectedStatus) {
  EXPECT_TRUE(GuardedStatus().ok());
  EXPECT_EQ(*GuardedResult(), 42);
  ASSERT_TRUE(failpoint::Arm("test.macro=error(io_error:gone)").ok());
  Status status = GuardedStatus();
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_EQ(status.message(), "gone");
  Result<int> result = GuardedResult();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  ASSERT_TRUE(failpoint::Disarm("test.macro"));
  EXPECT_TRUE(GuardedStatus().ok());
}

TEST_F(FailpointTest, StatusCodeRoundTripsThroughName) {
  for (StatusCode code :
       {StatusCode::kInternal, StatusCode::kUnavailable,
        StatusCode::kResourceExhausted, StatusCode::kIOError,
        StatusCode::kInvalidArgument}) {
    StatusCode parsed;
    ASSERT_TRUE(StatusCodeFromString(StatusCodeToString(code), &parsed));
    EXPECT_EQ(parsed, code);
  }
  StatusCode parsed;
  EXPECT_FALSE(StatusCodeFromString("not_a_code", &parsed));
}

}  // namespace
}  // namespace nde
