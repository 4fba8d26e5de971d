#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/status.h"
#include "common/trace_context.h"

namespace nde {
namespace {

// --- Thread-count policy ----------------------------------------------------

TEST(ThreadPolicyTest, HardwareConcurrencyIsPositive) {
  EXPECT_GE(HardwareConcurrency(), 1u);
}

TEST(ThreadPolicyTest, SetDefaultOverridesAndZeroRestores) {
  SetDefaultNumThreads(3);
  EXPECT_EQ(DefaultNumThreads(), 3u);
  EXPECT_EQ(ResolveNumThreads(0), 3u);
  EXPECT_EQ(ResolveNumThreads(7), 7u);
  SetDefaultNumThreads(0);
  EXPECT_EQ(DefaultNumThreads(), HardwareConcurrency());
}

TEST(ThreadPolicyTest, PlannedNeverExceedsRange) {
  EXPECT_EQ(PlannedNumThreads(/*range=*/2, /*num_threads=*/8), 2u);
  EXPECT_EQ(PlannedNumThreads(/*range=*/100, /*num_threads=*/4), 4u);
  EXPECT_EQ(PlannedNumThreads(/*range=*/0, /*num_threads=*/4), 1u);
}

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  std::atomic<int> counter{0};
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(ThreadPoolTest, DrainsOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // No WaitIdle: the destructor must still run every queued task.
  }
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, WaitIdleRethrowsTaskException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(pool.WaitIdle(), std::runtime_error);
  // The error is consumed: the pool stays usable afterwards.
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 1);
}

// --- ParallelFor ------------------------------------------------------------

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  size_t used = ParallelFor(
      0, hits.size(), [&](size_t i) { hits[i].fetch_add(1); }, 4);
  EXPECT_GE(used, 1u);
  EXPECT_LE(used, 4u);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, EmptyRangeRunsNothing) {
  std::atomic<int> counter{0};
  ParallelFor(5, 5, [&](size_t) { counter.fetch_add(1); }, 4);
  EXPECT_EQ(counter.load(), 0);
}

TEST(ParallelForTest, SingleThreadRunsInline) {
  std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  size_t used =
      ParallelFor(0, seen.size(),
                  [&](size_t i) { seen[i] = std::this_thread::get_id(); }, 1);
  EXPECT_EQ(used, 1u);
  for (const std::thread::id& id : seen) EXPECT_EQ(id, caller);
}

TEST(ParallelForTest, PropagatesBodyException) {
  EXPECT_THROW(ParallelFor(
                   0, 100,
                   [](size_t i) {
                     if (i == 17) throw std::runtime_error("body failed");
                   },
                   4),
               std::runtime_error);
}

// --- SeedSequence -----------------------------------------------------------

TEST(SeedSequenceTest, SeedsAreDistinctAndStable) {
  SeedSequence seeds(42);
  EXPECT_EQ(seeds.base_seed(), 42u);
  std::set<uint64_t> unique;
  for (uint64_t t = 0; t < 1000; ++t) unique.insert(seeds.SeedFor(t));
  EXPECT_EQ(unique.size(), 1000u);  // No collisions among nearby tasks.
  // Same (base seed, task index) always maps to the same seed.
  EXPECT_EQ(seeds.SeedFor(7), SeedSequence(42).SeedFor(7));
  EXPECT_NE(seeds.SeedFor(7), SeedSequence(43).SeedFor(7));
}

TEST(SeedSequenceTest, RngForMatchesManualConstruction) {
  SeedSequence seeds(99);
  Rng derived = seeds.RngFor(5);
  Rng manual(seeds.SeedFor(5));
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(derived.NextUint64(), manual.NextUint64());
  }
}

TEST(SeedSequenceTest, StreamsAreUncorrelatedAcrossTasks) {
  // Adjacent task indices must not produce obviously related streams: the
  // first draws of tasks 0..63 should all differ.
  SeedSequence seeds(1);
  std::set<uint64_t> first_draws;
  for (uint64_t t = 0; t < 64; ++t) {
    first_draws.insert(seeds.RngFor(t).NextUint64());
  }
  EXPECT_EQ(first_draws.size(), 64u);
}

// --- Fault propagation ------------------------------------------------------

/// Scoped disarm: fault-injection tests must not leak armed points into the
/// rest of the suite.
struct FailpointGuard {
  FailpointGuard() {
    failpoint::DisarmAll();
    failpoint::ResetStats();
  }
  ~FailpointGuard() {
    failpoint::DisarmAll();
    failpoint::ResetStats();
  }
};

TEST(ThreadPoolTest, InjectedFaultPropagatesThroughWaitIdle) {
  // Kill exactly one task, the third submitted, with the exception an
  // injected fault throws.
  std::atomic<int> counter{0};
  ThreadPool pool(4);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&counter, i] {
      if (i == 2) {
        throw failpoint::InjectedFault(Status::Unavailable("worker fault"));
      }
      counter.fetch_add(1);
    });
  }
  bool threw = false;
  try {
    pool.WaitIdle();
  } catch (const failpoint::InjectedFault& fault) {
    threw = true;
    EXPECT_EQ(fault.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(fault.status().message(), "worker fault");
  }
  EXPECT_TRUE(threw);
  // The killed task never counted; the other seven drained normally.
  EXPECT_EQ(counter.load(), 7);
  // The error latch is one-shot: the pool is healthy again and keeps
  // accepting work.
  pool.WaitIdle();
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPoolTest, DrainsCleanlyOnDestructionAfterFault) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&counter, i] {
        if (i == 0) throw failpoint::InjectedFault(Status::Internal("boom"));
        counter.fetch_add(1);
      });
    }
    // No WaitIdle: the destructor must drain every remaining task and must
    // not terminate on the latched exception.
  }
  EXPECT_EQ(counter.load(), 31);
}

TEST(TryParallelForTest, MapsInjectedFaultToTypedStatus) {
  FailpointGuard guard;
  ASSERT_TRUE(
      failpoint::Arm("threadpool.task=error(unavailable:worker fault)").ok());
  std::vector<int> out(64, 0);
  Result<size_t> used = TryParallelFor(
      0, out.size(), [&](size_t i) { out[i] = 1; }, 4, "fault_test");
  ASSERT_FALSE(used.ok());
  EXPECT_EQ(used.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(used.status().message(), "worker fault");
  // Disarmed, the same call succeeds and completes every index.
  failpoint::DisarmAll();
  Result<size_t> clean = TryParallelFor(
      0, out.size(), [&](size_t i) { out[i] = 1; }, 4, "fault_test");
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(std::count(out.begin(), out.end(), 1),
            static_cast<ptrdiff_t>(out.size()));
}

// --- Trace-context propagation ----------------------------------------------

TEST(ThreadPoolTest, SubmitPropagatesTraceContextToWorkers) {
  ThreadPool pool(2);
  TraceContext context;
  context.trace_id_hi = 0xaaULL;
  context.trace_id_lo = 0xbbULL;
  context.span_id = 42;
  context.job_id = "job-9";
  context.algorithm = "tmc";
  TraceContext seen;
  {
    ScopedTraceContext scope{context};
    pool.Submit([&seen] { seen = CurrentTraceContext(); });
    pool.WaitIdle();
  }
  EXPECT_EQ(seen.trace_id_hi, 0xaaULL);
  EXPECT_EQ(seen.trace_id_lo, 0xbbULL);
  EXPECT_EQ(seen.span_id, 42u);
  EXPECT_EQ(seen.job_id, "job-9");
  EXPECT_EQ(seen.algorithm, "tmc");
  // A task submitted outside any context runs without one.
  bool worker_had_context = true;
  pool.Submit([&worker_had_context] { worker_had_context = HasTraceContext(); });
  pool.WaitIdle();
  EXPECT_FALSE(worker_had_context);
}

TEST(ParallelForTest, BodiesInheritTheCallersTraceContext) {
  TraceContext context;
  context.trace_id_hi = 1;
  context.trace_id_lo = 2;
  context.job_id = "job-x";
  ScopedTraceContext scope{context};
  std::vector<int> attributed(32, 0);
  ParallelFor(
      0, attributed.size(),
      [&](size_t i) {
        const TraceContext& current = CurrentTraceContext();
        attributed[i] = current.trace_id_hi == 1 && current.trace_id_lo == 2 &&
                                current.job_id == "job-x"
                            ? 1
                            : 0;
      },
      4, "ctx_test");
  EXPECT_EQ(std::count(attributed.begin(), attributed.end(), 1),
            static_cast<ptrdiff_t>(attributed.size()));
}

TEST(TryParallelForTest, MapsBodyExceptionToInternalStatus) {
  Result<size_t> used = TryParallelFor(
      0, 16,
      [](size_t i) {
        if (i == 7) throw std::runtime_error("index 7 exploded");
      },
      4, "throw_test");
  ASSERT_FALSE(used.ok());
  EXPECT_EQ(used.status().code(), StatusCode::kInternal);
  EXPECT_NE(used.status().message().find("index 7 exploded"),
            std::string::npos);
}

}  // namespace
}  // namespace nde
