#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/string_util.h"
#include "common/trace_context.h"
#include "data/table.h"
#include "pipeline/plan.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace nde {
namespace {

using telemetry::Counter;
using telemetry::Histogram;
using telemetry::MetricsRegistry;
using telemetry::ScopedSpan;
using telemetry::TraceBuffer;
using telemetry::TraceEvent;

// Restores the global runtime toggle and clears the global trace buffer so
// tests don't leak state into each other.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::SetEnabled(false);
    TraceBuffer::Global().Clear();
  }
  void TearDown() override {
    telemetry::SetEnabled(false);
    TraceBuffer::Global().Clear();
  }
};

// --- Histogram bucket and quantile math -------------------------------------

TEST_F(TelemetryTest, HistogramBucketAssignment) {
  // Buckets: (-inf, 1], (1, 10], (10, 100], (100, +inf).
  Histogram h({1.0, 10.0, 100.0});
  h.Record(0.5);
  h.Record(1.0);   // Upper bounds are inclusive.
  h.Record(5.0);
  h.Record(10.0);
  h.Record(50.0);
  h.Record(1000.0);  // Overflow bucket.
  ASSERT_EQ(h.num_buckets(), 4u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 10.0 + 50.0 + 1000.0);
}

TEST_F(TelemetryTest, HistogramQuantileInterpolation) {
  Histogram h({10.0, 20.0, 30.0});
  // 10 values uniformly in (10, 20]: the p50 rank lands mid-bucket.
  for (int i = 0; i < 10; ++i) h.Record(15.0);
  double p50 = h.Quantile(0.5);
  EXPECT_GE(p50, 10.0);
  EXPECT_LE(p50, 20.0);
  // All mass in one bucket: every quantile stays inside that bucket.
  EXPECT_GE(h.Quantile(0.01), 10.0);
  EXPECT_LE(h.Quantile(0.99), 20.0);
  // Quantiles are monotone in q.
  EXPECT_LE(h.Quantile(0.25), h.Quantile(0.75));
}

TEST_F(TelemetryTest, HistogramQuantileEdgeCases) {
  Histogram h({1.0, 2.0});
  EXPECT_EQ(h.Quantile(0.5), 0.0);  // Empty histogram.
  h.Record(100.0);                  // Overflow-only mass...
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 2.0);  // ...reports the last finite bound.
}

TEST_F(TelemetryTest, HistogramEmptyQuantileIsZeroForEveryQ) {
  Histogram h({1.0, 10.0, 100.0});
  for (double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(h.Quantile(q), 0.0) << "q=" << q;
  }
}

TEST_F(TelemetryTest, HistogramValuesOnExactBucketBounds) {
  // Upper bounds are inclusive: a value exactly equal to a bound must land
  // in that bound's bucket, never the next one up.
  Histogram h({1.0, 10.0, 100.0});
  h.Record(1.0);
  h.Record(10.0);
  h.Record(100.0);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 0u);  // Overflow bucket stays empty.
  // Quantiles interpolate inside finite buckets and never exceed the largest
  // finite bound while all mass is finite.
  EXPECT_LE(h.Quantile(0.99), 100.0);
  EXPECT_GE(h.Quantile(0.01), 0.0);
}

TEST_F(TelemetryTest, HistogramOverflowBucketQuantilesClampToLastBound) {
  Histogram h({1.0, 10.0});
  h.Record(50.0);    // overflow
  h.Record(5000.0);  // overflow
  // With all mass above the largest finite bound, the bucketed quantile
  // cannot do better than the last finite bound — for every q.
  for (double q : {0.01, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.Quantile(q), 10.0) << "q=" << q;
  }
  // Mixed mass: low quantiles come from finite buckets, high ones clamp.
  h.Record(0.5);
  h.Record(0.5);
  EXPECT_LE(h.Quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 10.0);
}

TEST_F(TelemetryTest, HistogramResetKeepsLayout) {
  Histogram h({1.0, 2.0});
  h.Record(0.5);
  h.Record(5.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  ASSERT_EQ(h.num_buckets(), 3u);
  for (size_t i = 0; i < h.num_buckets(); ++i) {
    EXPECT_EQ(h.bucket_count(i), 0u);
  }
}

// --- Concurrency ------------------------------------------------------------

TEST_F(TelemetryTest, ConcurrentCounterIncrements) {
  Counter& counter =
      MetricsRegistry::Global().GetCounter("test.concurrent_counter");
  counter.Reset();
  constexpr int kThreads = 8;
  constexpr int kIncrementsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      Counter& c =
          MetricsRegistry::Global().GetCounter("test.concurrent_counter");
      for (int i = 0; i < kIncrementsPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(),
            static_cast<uint64_t>(kThreads) * kIncrementsPerThread);
}

TEST_F(TelemetryTest, ConcurrentHistogramRecords) {
  Histogram h({1.0, 10.0, 100.0});
  constexpr int kThreads = 4;
  constexpr int kRecordsPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kRecordsPerThread; ++i) {
        h.Record(static_cast<double>(i % 200));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kRecordsPerThread);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < h.num_buckets(); ++i) bucket_total += h.bucket_count(i);
  EXPECT_EQ(bucket_total, h.count());
}

// --- Registry ---------------------------------------------------------------

TEST_F(TelemetryTest, RegistryReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("stable");
  Counter& b = registry.GetCounter("stable");
  EXPECT_EQ(&a, &b);
  a.Increment(3);
  registry.Reset();  // Zeroes in place; references stay valid.
  EXPECT_EQ(b.value(), 0u);
}

TEST_F(TelemetryTest, RegistryExportsPrometheusText) {
  MetricsRegistry registry;
  registry.GetCounter("reqs.total").Increment(7);
  registry.GetGauge("queue.depth").Set(3.5);
  registry.GetHistogram("lat.ms", {1.0, 10.0}).Record(0.5);
  std::string text = registry.ToPrometheusText();
  EXPECT_NE(text.find("# TYPE reqs_total counter"), std::string::npos);
  EXPECT_NE(text.find("reqs_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
  std::string table = registry.ToTable();
  EXPECT_NE(table.find("reqs.total"), std::string::npos);
}

TEST_F(TelemetryTest, PrometheusHistogramsCarrySummaryQuantiles) {
  // Every histogram exports a companion summary block with p50/p90/p99, so a
  // scraper gets tail latencies without re-deriving them from buckets. The
  // exact exposition lines are pinned: one deterministic distribution (100
  // values in [1, 100] against decade bounds), known quantile answers.
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("wave.ms", {1.0, 10.0, 100.0});
  for (int i = 1; i <= 100; ++i) h.Record(static_cast<double>(i));

  std::string prom = registry.ToPrometheusText();
  EXPECT_NE(prom.find("# TYPE wave_ms_quantiles summary"), std::string::npos)
      << prom;
  std::string expected_p50 =
      StrFormat("wave_ms_quantiles{quantile=\"0.5\"} %.9g", h.Quantile(0.5));
  std::string expected_p90 =
      StrFormat("wave_ms_quantiles{quantile=\"0.9\"} %.9g", h.Quantile(0.9));
  std::string expected_p99 =
      StrFormat("wave_ms_quantiles{quantile=\"0.99\"} %.9g", h.Quantile(0.99));
  EXPECT_NE(prom.find(expected_p50), std::string::npos) << prom;
  EXPECT_NE(prom.find(expected_p90), std::string::npos) << prom;
  EXPECT_NE(prom.find(expected_p99), std::string::npos) << prom;
  // The summary shares the histogram's sum/count so the two blocks agree.
  EXPECT_NE(prom.find("wave_ms_quantiles_sum "), std::string::npos) << prom;
  EXPECT_NE(prom.find("wave_ms_quantiles_count 100"), std::string::npos)
      << prom;
  // Adjacency: the summary block sits right after its histogram block, i.e.
  // before the next metric would sort.
  EXPECT_LT(prom.find("# TYPE wave_ms histogram"),
            prom.find("# TYPE wave_ms_quantiles summary"));
}

TEST_F(TelemetryTest, ExportsAreSortedByNameAcrossKinds) {
  // Registration order is deliberately interleaved and unsorted across
  // metric kinds; every export must still come out name-sorted so two dumps
  // of the same state are byte-identical and diffable.
  MetricsRegistry registry;
  registry.GetGauge("zz.gauge").Set(1.0);
  registry.GetCounter("aa.counter").Increment();
  registry.GetHistogram("mm.hist", {1.0}).Record(0.5);
  registry.GetCounter("nn.counter").Increment();
  registry.GetGauge("bb.gauge").Set(2.0);

  std::string table = registry.ToTable();
  size_t aa = table.find("aa.counter");
  size_t bb = table.find("bb.gauge");
  size_t mm = table.find("mm.hist");
  size_t nn = table.find("nn.counter");
  size_t zz = table.find("zz.gauge");
  ASSERT_NE(aa, std::string::npos);
  ASSERT_NE(zz, std::string::npos);
  EXPECT_LT(aa, bb);
  EXPECT_LT(bb, mm);
  EXPECT_LT(mm, nn);
  EXPECT_LT(nn, zz);

  std::string prom = registry.ToPrometheusText();
  size_t paa = prom.find("# TYPE aa_counter");
  size_t pbb = prom.find("# TYPE bb_gauge");
  size_t pmm = prom.find("# TYPE mm_hist");
  size_t pnn = prom.find("# TYPE nn_counter");
  size_t pzz = prom.find("# TYPE zz_gauge");
  ASSERT_NE(paa, std::string::npos);
  ASSERT_NE(pzz, std::string::npos);
  EXPECT_LT(paa, pbb);
  EXPECT_LT(pbb, pmm);
  EXPECT_LT(pmm, pnn);
  EXPECT_LT(pnn, pzz);

  // Two consecutive exports of unchanged state are byte-identical.
  EXPECT_EQ(table, registry.ToTable());
  EXPECT_EQ(prom, registry.ToPrometheusText());
}

TEST_F(TelemetryTest, SnapshotAndJsonExportCoverEveryKind) {
  MetricsRegistry registry;
  registry.GetCounter("c.one").Increment(3);
  registry.GetGauge("g.one").Set(1.5);
  registry.GetHistogram("h.one", {1.0, 10.0}).Record(5.0);
  telemetry::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("c.one"), 3u);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("g.one"), 1.5);
  ASSERT_EQ(snapshot.histograms.count("h.one"), 1u);
  EXPECT_EQ(snapshot.histograms.at("h.one").count, 1u);
  EXPECT_DOUBLE_EQ(snapshot.histograms.at("h.one").sum, 5.0);

  std::string json = snapshot.ToJson();
  EXPECT_TRUE(json::Parse(json).ok()) << json;
  EXPECT_NE(json.find("\"c.one\":3"), std::string::npos);
  EXPECT_NE(json.find("\"g.one\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
}

// --- Spans and the trace buffer ---------------------------------------------

TEST_F(TelemetryTest, SpanNestingRecordsInnerFirstWithIncreasingDepth) {
  telemetry::SetEnabled(true);
  {
    ScopedSpan outer("outer", "test");
    {
      ScopedSpan inner("inner", "test");
    }
  }
  std::vector<TraceEvent> events = TraceBuffer::Global().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // Spans are recorded at close, so the inner span lands first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_EQ(events[1].depth, 0u);
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[0].tid, events[1].tid);
  // The outer span encloses the inner one in time.
  EXPECT_LE(events[1].ts_us, events[0].ts_us);
  EXPECT_GE(events[1].ts_us + events[1].dur_us,
            events[0].ts_us + events[0].dur_us);
}

TEST_F(TelemetryTest, DisabledSpansRecordNothing) {
  telemetry::SetEnabled(false);
  {
    ScopedSpan span("invisible", "test");
    EXPECT_FALSE(span.active());
    EXPECT_EQ(span.ElapsedMs(), 0.0);
  }
  EXPECT_EQ(TraceBuffer::Global().size(), 0u);
}

TEST_F(TelemetryTest, MacrosCompileAndRespectRuntimeToggle) {
  telemetry::SetEnabled(true);
  {
    NDE_TRACE_SPAN("macro_span", "test");
    NDE_TRACE_SPAN_VAR(named, "macro_named_span", "test");
    NDE_SPAN_ARG(named, "k", static_cast<int64_t>(42));
    NDE_METRIC_COUNT("test.macro_counter", 2);
  }
#if NDE_TELEMETRY_ENABLED
  EXPECT_EQ(TraceBuffer::Global().size(), 2u);
  EXPECT_GE(MetricsRegistry::Global().GetCounter("test.macro_counter").value(),
            2u);
#endif
}

TEST_F(TelemetryTest, BoundedBufferDropsNewestAndCounts) {
  TraceBuffer buffer(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    TraceEvent event;
    event.name = "e" + std::to_string(i);
    buffer.Record(std::move(event));
  }
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.dropped(), 2u);
  std::vector<TraceEvent> events = buffer.Snapshot();
  EXPECT_EQ(events[0].name, "e0");  // Earliest events are kept.
  EXPECT_EQ(events[2].name, "e2");
  buffer.Clear();
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.dropped(), 0u);
}

TEST_F(TelemetryTest, GlobalBufferSaturationIsVisibleInMetrics) {
#if NDE_TELEMETRY_ENABLED
  TraceBuffer& buffer = TraceBuffer::Global();
  size_t original_capacity = buffer.capacity();
  uint64_t dropped_before = MetricsRegistry::Global()
                                .GetCounter("trace.dropped_spans")
                                .value();
  telemetry::SetEnabled(true);
  buffer.SetCapacity(2);
  EXPECT_DOUBLE_EQ(
      MetricsRegistry::Global().GetGauge("trace.buffer_capacity").value(),
      2.0);
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span("saturating_span", "test");
  }
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.dropped(), 3u);
  // The drops are mirrored into the metrics registry, where /metrics and run
  // reports can see them.
  EXPECT_EQ(
      MetricsRegistry::Global().GetCounter("trace.dropped_spans").value(),
      dropped_before + 3);
  buffer.SetCapacity(original_capacity);
  EXPECT_DOUBLE_EQ(
      MetricsRegistry::Global().GetGauge("trace.buffer_capacity").value(),
      static_cast<double>(original_capacity));
#endif
}

TEST_F(TelemetryTest, LocalBufferDropsDoNotTouchGlobalMetrics) {
  uint64_t dropped_before = MetricsRegistry::Global()
                                .GetCounter("trace.dropped_spans")
                                .value();
  TraceBuffer local(/*capacity=*/1);
  for (int i = 0; i < 3; ++i) {
    TraceEvent event;
    event.name = "local";
    local.Record(std::move(event));
  }
  EXPECT_EQ(local.dropped(), 2u);
  EXPECT_EQ(
      MetricsRegistry::Global().GetCounter("trace.dropped_spans").value(),
      dropped_before);
}

// --- Chrome trace JSON ------------------------------------------------------

TEST_F(TelemetryTest, ChromeTraceJsonIsWellFormed) {
  telemetry::SetEnabled(true);
  {
    ScopedSpan span("json \"quoted\"\nspan", "test");
    span.AddArg("rows", static_cast<int64_t>(12));
    span.AddArg("note", std::string("needs \\escaping\""));
  }
  std::string json = TraceBuffer::Global().ToChromeJson();
  EXPECT_TRUE(json::Parse(json).ok()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":"), std::string::npos);
  EXPECT_NE(json.find("\"rows\":12"), std::string::npos);
}

// --- Labeled metrics ---------------------------------------------------------

TEST_F(TelemetryTest, LabeledSeriesKeySortsKeysAndEscapesValues) {
  using telemetry::LabeledSeriesName;
  using telemetry::WithLabels;
  EXPECT_EQ(LabeledSeriesName("m", {}), "m");
  // WithLabels canonicalizes order, so call-site order never forks a series.
  EXPECT_EQ(LabeledSeriesName(
                "m", WithLabels({{"job_id", "j1"}, {"algorithm", "tmc"}})),
            "m{algorithm=\"tmc\",job_id=\"j1\"}");
  EXPECT_EQ(LabeledSeriesName("m", WithLabels({{"k", "a\"b\\c"}})),
            "m{k=\"a\\\"b\\\\c\"}");
}

TEST_F(TelemetryTest, LabeledCounterFeedsBaseAndSeries) {
  MetricsRegistry registry;
  telemetry::MetricLabels labels =
      telemetry::WithLabels({{"algorithm", "tmc"}, {"job_id", "job-1"}});
  telemetry::LabeledCounter labeled =
      registry.GetCounterWithLabels("evals", labels);
  ASSERT_NE(labeled.base, nullptr);
  ASSERT_NE(labeled.series, nullptr);
  labeled.Increment(3);
  // Unlabeled resolution of the same metric shares the base counter.
  telemetry::LabeledCounter plain = registry.GetCounterWithLabels("evals", {});
  EXPECT_EQ(plain.series, nullptr);
  plain.Increment(2);

  telemetry::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("evals"), 5u);  // aggregate stays exact
  EXPECT_EQ(snapshot.counters.at("evals{algorithm=\"tmc\",job_id=\"job-1\"}"),
            3u);
}

TEST_F(TelemetryTest, PrometheusExportRendersLabeledSeries) {
  MetricsRegistry registry;
  telemetry::MetricLabels labels =
      telemetry::WithLabels({{"algorithm", "tmc"}, {"job_id", "job-1"}});
  registry.GetCounterWithLabels("evals.total", labels).Increment(3);
  registry.GetHistogramWithLabels("lat.ms", labels, {1.0, 10.0}).Record(0.5);

  std::string prom = registry.ToPrometheusText();
  EXPECT_NE(
      prom.find("evals_total{algorithm=\"tmc\",job_id=\"job-1\"} 3"),
      std::string::npos)
      << prom;
  // The labeled histogram merges its labels with le=.
  EXPECT_NE(prom.find("lat_ms_bucket{algorithm=\"tmc\",job_id=\"job-1\","
                      "le=\"+Inf\"} 1"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("lat_ms_count{algorithm=\"tmc\",job_id=\"job-1\"} 1"),
            std::string::npos)
      << prom;
  // One TYPE declaration per family, even with base + labeled series present.
  size_t first = prom.find("# TYPE evals_total counter");
  ASSERT_NE(first, std::string::npos) << prom;
  EXPECT_EQ(prom.find("# TYPE evals_total counter", first + 1),
            std::string::npos)
      << prom;
  // The base (unlabeled) sample is present too and the export stays sorted.
  EXPECT_NE(prom.find("\nevals_total 3\n"), std::string::npos) << prom;
}

TEST_F(TelemetryTest, LabelCardinalityCapBoundsSeriesAcrossThreads) {
  MetricsRegistry registry;
  registry.SetLabelCardinalityCap(8);
  // Admit one known series before the stampede so we can later re-resolve a
  // set that is certainly inside the cap.
  registry
      .GetCounterWithLabels("m", telemetry::WithLabels({{"job_id", "pinned"}}))
      .Increment();
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 50;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        std::string job = "job-" + std::to_string(t * kPerThread + i);
        telemetry::LabeledCounter counter = registry.GetCounterWithLabels(
            "m", telemetry::WithLabels({{"job_id", job}}));
        counter.Increment();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // The registry admitted at most the cap, refused the rest visibly, and the
  // unlabeled aggregate still counted every increment exactly.
  EXPECT_LE(registry.labeled_series_count(), 8u);
  telemetry::MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("m"), kThreads * kPerThread + 1);
  // 1 series pre-admitted + 7 of the 200 stampeding sets; the other 193
  // resolutions were each refused and counted exactly once.
  EXPECT_EQ(snapshot.counters.at("telemetry.labels_dropped"),
            kThreads * kPerThread - 7u);
  size_t labeled_sum = 0;
  size_t labeled_count = 0;
  for (const auto& [name, value] : snapshot.counters) {
    if (name.rfind("m{", 0) == 0) {
      ++labeled_count;
      labeled_sum += value;
    }
  }
  EXPECT_EQ(labeled_count, 8u);
  EXPECT_EQ(labeled_sum, 8u);  // each admitted set was incremented once
  // Re-resolving an already-admitted set is not a new series: it drops
  // nothing and returns the same live labeled counter.
  telemetry::LabeledCounter pinned = registry.GetCounterWithLabels(
      "m", telemetry::WithLabels({{"job_id", "pinned"}}));
  ASSERT_NE(pinned.series, nullptr);
  pinned.Increment();
  telemetry::MetricsSnapshot after = registry.Snapshot();
  EXPECT_EQ(after.counters.at("telemetry.labels_dropped"),
            kThreads * kPerThread - 7u);
  EXPECT_EQ(after.counters.at("m{job_id=\"pinned\"}"), 2u);
}

// --- Trace-context linkage in exports ---------------------------------------

TEST_F(TelemetryTest, ChromeTraceLinksParentsAndFlowsAcrossThreads) {
  telemetry::SetEnabled(true);
  TraceContext context;
  context.trace_id_hi = 0x1111222233334444ULL;
  context.trace_id_lo = 0x5555666677778888ULL;
  {
    ScopedTraceContext scope{TraceContext(context)};
    ScopedSpan parent("parent", "test");
    // Simulate the pool hop: capture the submitting context (which now has
    // the parent span installed) and restore it on the worker.
    TraceContext captured = CurrentTraceContext();
    std::thread worker([captured] {
      ScopedTraceContext worker_scope{TraceContext(captured)};
      ScopedSpan child("child", "test");
    });
    worker.join();
  }

  std::vector<TraceEvent> events = TraceBuffer::Global().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent& child = events[0];   // closed (and recorded) first
  const TraceEvent& parent = events[1];
  EXPECT_EQ(child.name, "child");
  EXPECT_EQ(parent.name, "parent");
  EXPECT_EQ(parent.parent_span_id, 0u);
  EXPECT_EQ(child.parent_span_id, parent.span_id);
  EXPECT_EQ(child.trace_id_hi, context.trace_id_hi);
  EXPECT_NE(child.tid, parent.tid);

  std::string json = TraceBuffer::Global().ToChromeJson();
  EXPECT_TRUE(json::Parse(json).ok()) << json;
  // Dense tids in first-appearance order: the child (recorded first) gets 1.
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos) << json;
  // Parent linkage args.
  EXPECT_NE(json.find("\"id\":\"" + SpanIdHex(parent.span_id) + "\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"parent\":\"" + SpanIdHex(parent.span_id) + "\""),
            std::string::npos)
      << json;
  EXPECT_NE(
      json.find("\"trace_id\":\"11112222333344445555666677778888\""),
      std::string::npos)
      << json;
  // The cross-thread edge gets a flow pair keyed by the child's span id.
  std::string flow_id = "\"id\":\"" + SpanIdHex(child.span_id) + "\"";
  EXPECT_NE(json.find("\"ph\":\"s\"," + flow_id), std::string::npos) << json;
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\"," + flow_id),
            std::string::npos)
      << json;
}

TEST_F(TelemetryTest, FoldedStacksMergeByParentChainWithSelfTime) {
  TraceBuffer buffer(16);
  auto make_event = [](const char* name, uint64_t span, uint64_t parent,
                       int64_t dur) {
    TraceEvent event;
    event.name = name;
    event.trace_id_hi = 7;
    event.trace_id_lo = 9;
    event.span_id = span;
    event.parent_span_id = parent;
    event.dur_us = dur;
    return event;
  };
  buffer.Record(make_event("leaf", 3, 2, 10));
  buffer.Record(make_event("child", 2, 1, 60));
  buffer.Record(make_event("root", 1, 0, 100));
  // Frame names are sanitized: delimiters in a span name become '_'.
  buffer.Record(make_event("odd;name x", 5, 1, 5));
  // A span from another trace must be filtered out entirely.
  TraceEvent other = make_event("other", 4, 0, 50);
  other.trace_id_lo = 8;
  buffer.Record(other);

  EXPECT_EQ(buffer.Profile(7, 9).Folded(),
            "root 35\nroot;child 50\nroot;child;leaf 10\nroot;odd_name_x 5\n");
  EXPECT_EQ(buffer.Profile(1, 2).Folded(), "");
}

// --- PlanProfiler -----------------------------------------------------------

Table SmallTable() {
  return TableBuilder()
      .AddInt64Column("id", {0, 1, 2, 3})
      .AddInt64Column("x", {5, 15, 25, 35})
      .Build();
}

TEST_F(TelemetryTest, PlanProfilerCollectsPerOperatorStats) {
  PlanNodePtr plan = MakeProject(
      MakeFilter(MakeSource(0, "rows", SmallTable()), "x > 10",
                 [](const RowView& row) {
                   return row.GetOrDie("x").as_int64() > 10;
                 }),
      {"id"});
  PlanProfiler profiler;
  AnnotatedTable out = plan->Execute().value();
  ASSERT_EQ(out.table.num_rows(), 3u);

  const OperatorStats* stats = profiler.StatsFor(*plan);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->invocations, 1u);
  EXPECT_EQ(stats->rows_out, 3u);
  EXPECT_GE(stats->wall_ms, 0.0);

  std::string annotated = profiler.AnnotatedPlan(*plan);
  EXPECT_NE(annotated.find("Project"), std::string::npos);
  EXPECT_NE(annotated.find("Filter"), std::string::npos);
  EXPECT_NE(annotated.find("4 -> 3 rows"), std::string::npos);
  EXPECT_NE(annotated.find("ms total"), std::string::npos);
}

TEST_F(TelemetryTest, PlanProfilerScopesNestAndRestore) {
  PlanNodePtr plan = MakeSource(0, "rows", SmallTable());
  PlanProfiler outer;
  (void)plan->Execute().value();
  {
    PlanProfiler inner;
    (void)plan->Execute().value();
    (void)plan->Execute().value();
    const OperatorStats* stats = inner.StatsFor(*plan);
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->invocations, 2u);
  }
  // The outer profiler resumes after the inner scope closes.
  (void)plan->Execute().value();
  const OperatorStats* stats = outer.StatsFor(*plan);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->invocations, 2u);
}

}  // namespace
}  // namespace nde
