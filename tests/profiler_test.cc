#include "telemetry/profiler.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace nde {
namespace {

using telemetry::AllocationScope;
using telemetry::SpanProfile;
using telemetry::TraceBuffer;
using telemetry::TraceEvent;

/// Restores global telemetry + trace buffer + alloc-accounting state on exit
/// so these tests compose with the rest of the suite in any order.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceBuffer::Global().Clear();
    telemetry::ResetAllocStats();
  }
  void TearDown() override {
    TraceBuffer::Global().Clear();
    telemetry::SetAllocAccountingEnabled(false);
    telemetry::ResetAllocStats();
    telemetry::SetEnabled(false);
  }
};

TraceEvent Span(const char* name, uint32_t tid, uint64_t span, uint64_t parent,
                int64_t dur_us, uint64_t trace_lo = 9) {
  TraceEvent event;
  event.name = name;
  event.tid = tid;
  event.trace_id_hi = 7;
  event.trace_id_lo = trace_lo;
  event.span_id = span;
  event.parent_span_id = parent;
  event.dur_us = dur_us;
  return event;
}

// --- The fold ----------------------------------------------------------------

TEST_F(ProfilerTest, FoldFollowsParentsAcrossThreadsAndClampsSelfTime) {
  TraceBuffer buffer(16);
  // Two workers on other threads run under one 100 us root; together they
  // take 130 us of (parallel) time, so the root's self time clamps at 0.
  buffer.Record(Span("root", 1, 1, 0, 100));
  buffer.Record(Span("worker", 2, 2, 1, 60));
  buffer.Record(Span("worker", 3, 3, 1, 70));
  buffer.Record(Span("odd;name x", 2, 4, 2, 10));

  SpanProfile profile = buffer.Profile();
  EXPECT_EQ(profile.spans, 4u);
  EXPECT_EQ(profile.dropped, 0u);
  EXPECT_EQ(profile.Folded(),
            "root 0\nroot;worker 120\nroot;worker;odd_name_x 10\n");

  // Per-name totals, heaviest self time first.
  ASSERT_EQ(profile.names.size(), 3u);
  const SpanProfile::Name& worker = profile.names[0];
  EXPECT_EQ(worker.name, "worker");
  EXPECT_EQ(worker.count, 2u);
  EXPECT_EQ(worker.self_us, 120);
  EXPECT_EQ(worker.total_us, 130);
  EXPECT_EQ(worker.max_us, 70);
  EXPECT_EQ(profile.names[1].name, "odd;name x");  // raw name in the table
  EXPECT_EQ(profile.names[1].self_us, 10);
  EXPECT_EQ(profile.names[2].name, "root");
  EXPECT_EQ(profile.names[2].self_us, 0);
  EXPECT_EQ(profile.names[2].total_us, 100);
}

TEST_F(ProfilerTest, TraceFilterFoldsOneTraceAndReportsTheBuffersDrops) {
  TraceBuffer buffer(3);
  buffer.Record(Span("job", 1, 1, 0, 50));
  buffer.Record(Span("step", 1, 2, 1, 20));
  // Another trace's child of "job": outside the filter it is a root.
  buffer.Record(Span("other", 1, 3, 1, 5, /*trace_lo=*/8));
  buffer.Record(Span("late", 1, 4, 0, 1));  // over capacity: dropped

  SpanProfile job = buffer.Profile(7, 9);
  EXPECT_EQ(job.spans, 2u);
  EXPECT_EQ(job.dropped, 1u);
  EXPECT_EQ(job.Folded(), "job 30\njob;step 20\n");

  SpanProfile other = buffer.Profile(7, 8);
  EXPECT_EQ(other.Folded(), "other 5\n");

  // Across the whole buffer the cross-trace child nests under its parent.
  SpanProfile all = buffer.Profile();
  EXPECT_EQ(all.spans, 3u);
  EXPECT_EQ(all.dropped, 1u);
  EXPECT_EQ(all.Folded(), "job 25\njob;other 5\njob;step 20\n");

  SpanProfile none = buffer.Profile(1, 2);
  EXPECT_EQ(none.spans, 0u);
  EXPECT_EQ(none.Folded(), "");
}

TEST_F(ProfilerTest, TextAndJsonRenderTheFold) {
  TraceBuffer buffer(8);
  buffer.Record(Span("outer", 1, 1, 0, 40));
  buffer.Record(Span("inner \"quoted\"", 1, 2, 1, 15));
  SpanProfile profile = buffer.Profile();

  std::string text = telemetry::ProfileText(profile);
  EXPECT_EQ(text.rfind("profile: 2 spans, 0 dropped, 2 stacks\n", 0), 0u)
      << text;
  EXPECT_NE(text.find("outer"), std::string::npos) << text;
  EXPECT_NE(text.find("alloc accounting:"), std::string::npos) << text;

  std::string json = telemetry::ProfileJson(profile);
  EXPECT_TRUE(json::Parse(json).ok()) << json;
  EXPECT_EQ(json.rfind("{\"spans\":2,\"dropped_spans\":0,\"unique_stacks\":2,"
                       "\"folded\":[{\"stack\":\"outer\",\"self_us\":25},"
                       "{\"stack\":\"outer;inner_\\\"quoted\\\"\","
                       "\"self_us\":15}],"
                       "\"flat\":[{\"name\":\"outer\",\"count\":1,"
                       "\"self_us\":25,\"total_us\":40,\"max_us\":40},",
                       0),
            0u)
      << json;
  EXPECT_NE(json.find("\"alloc\":{\"compiled_in\""), std::string::npos);

  // The folded block keeps the heaviest stacks, still sorted by stack.
  std::string capped = telemetry::ProfileJson(profile, 1);
  EXPECT_NE(capped.find("\"unique_stacks\":2,\"folded\":[{\"stack\":\"outer\","
                        "\"self_us\":25}],"),
            std::string::npos)
      << capped;

  std::string empty = telemetry::ProfileText(SpanProfile{});
  EXPECT_EQ(empty.rfind("profile: 0 spans, 0 dropped, 0 stacks\n", 0), 0u);
}

TEST_F(ProfilerTest, RecordedSpansFoldIntoTheGlobalProfile) {
#if !NDE_TELEMETRY_ENABLED
  GTEST_SKIP() << "NDE_TRACE_SPAN compiles to nothing in this build";
#endif
  telemetry::SetEnabled(true);
  {
    NDE_TRACE_SPAN("profiled_section", "test");
    NDE_TRACE_SPAN("nested section", "test");
  }
  telemetry::SetEnabled(false);
  SpanProfile profile = TraceBuffer::Global().Profile();
  ASSERT_EQ(profile.stacks.size(), 2u);
  EXPECT_EQ(profile.stacks[0].stack, "profiled_section");
  EXPECT_EQ(profile.stacks[1].stack, "profiled_section;nested_section");
}

// --- Allocation accounting --------------------------------------------------

/// Heap churn the optimizer cannot elide: the pointer escapes through a
/// volatile.
void ChurnHeap(size_t bytes) {
  char* block = new char[bytes];
  static volatile char sink = 0;
  sink = static_cast<char>(sink + block[bytes / 2]);
  delete[] block;
}

TEST_F(ProfilerTest, AllocAccountingCountsWhenCompiledIn) {
  if (!telemetry::AllocAccountingCompiledIn()) {
    GTEST_SKIP() << "alloc interposition compiled out (telemetry off or "
                    "sanitizer build)";
  }
  telemetry::SetAllocAccountingEnabled(true);
  telemetry::ResetAllocStats();
  ChurnHeap(1 << 16);
  telemetry::SetAllocAccountingEnabled(false);

  telemetry::AllocStats stats = telemetry::GlobalAllocStats();
  EXPECT_GT(stats.alloc_count, 0u);
  EXPECT_GE(stats.alloc_bytes, uint64_t{1} << 16);
  EXPECT_GT(stats.free_count, 0u);
  EXPECT_GE(stats.peak_live_bytes, int64_t{1} << 16);
}

TEST_F(ProfilerTest, AllocAccountingIsOffByDefault) {
  if (!telemetry::AllocAccountingCompiledIn()) {
    GTEST_SKIP() << "alloc interposition compiled out";
  }
  ASSERT_FALSE(telemetry::AllocAccountingEnabled());
  telemetry::ResetAllocStats();
  ChurnHeap(1 << 14);
  telemetry::AllocStats stats = telemetry::GlobalAllocStats();
  EXPECT_EQ(stats.alloc_count, 0u);
  EXPECT_EQ(stats.alloc_bytes, 0u);
}

TEST_F(ProfilerTest, AllocationScopeAttributesToInnermostPhase) {
  if (!telemetry::AllocAccountingCompiledIn()) {
    GTEST_SKIP() << "alloc interposition compiled out";
  }
  telemetry::SetAllocAccountingEnabled(true);
  telemetry::ResetAllocStats();
  {
    AllocationScope outer("test.outer");
    ChurnHeap(1 << 12);
    {
      AllocationScope inner("test.inner");
      ChurnHeap(1 << 15);
    }
  }
  telemetry::SetAllocAccountingEnabled(false);

  uint64_t outer_bytes = 0, inner_bytes = 0;
  for (const auto& [phase, stats] : telemetry::AllocPhaseStats()) {
    if (phase == "test.outer") outer_bytes = stats.alloc_bytes;
    if (phase == "test.inner") inner_bytes = stats.alloc_bytes;
  }
  // Self-only attribution: the inner scope's churn must not roll up into the
  // outer phase, and each phase saw at least its own block.
  EXPECT_GE(inner_bytes, uint64_t{1} << 15);
  EXPECT_GE(outer_bytes, uint64_t{1} << 12);
  EXPECT_LT(outer_bytes, uint64_t{1} << 15);
}

TEST_F(ProfilerTest, AllocationScopeIsInertWhileDisabled) {
  telemetry::ResetAllocStats();
  {
    AllocationScope scope("test.disabled");
    ChurnHeap(1 << 12);
  }
  for (const auto& [phase, stats] : telemetry::AllocPhaseStats()) {
    EXPECT_NE(phase, "test.disabled")
        << "disabled scope must not record a phase";
    (void)stats;
  }
}

TEST_F(ProfilerTest, AllocStatsTableAndJsonStayWellFormed) {
  // Works in every build mode, including compiled-out interposition.
  std::string table = telemetry::AllocStatsTable();
  EXPECT_FALSE(table.empty());
  std::string json = telemetry::ProfileJson(SpanProfile{});
  EXPECT_TRUE(json::Parse(json).ok()) << json;
  EXPECT_NE(json.find("\"compiled_in\""), std::string::npos);
}

}  // namespace
}  // namespace nde
