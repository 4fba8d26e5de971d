#include "common/parallel.h"

#include <algorithm>
#include <atomic>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/string_util.h"
#include "common/trace_context.h"
#include "telemetry/telemetry.h"

namespace nde {

namespace {

std::atomic<size_t> g_default_num_threads{0};  ///< 0 = hardware concurrency

}  // namespace

size_t HardwareConcurrency() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

size_t DefaultNumThreads() {
  size_t configured = g_default_num_threads.load(std::memory_order_relaxed);
  return configured == 0 ? HardwareConcurrency() : configured;
}

void SetDefaultNumThreads(size_t num_threads) {
  g_default_num_threads.store(num_threads, std::memory_order_relaxed);
}

size_t ResolveNumThreads(size_t num_threads) {
  return num_threads == 0 ? DefaultNumThreads() : num_threads;
}

size_t PlannedNumThreads(size_t range, size_t num_threads) {
  return std::max<size_t>(1, std::min(ResolveNumThreads(num_threads), range));
}

ThreadPool::ThreadPool(size_t num_threads) {
  size_t count = ResolveNumThreads(num_threads);
  workers_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  NDE_CHECK(task != nullptr);
  // Explicit context hop: capture the submitter's TraceContext so spans,
  // logs, and labeled metrics produced by the worker attribute to the
  // submitting request/job. Purely observational (the wrapper adds no
  // synchronization and never touches task results), so the bit-determinism
  // contract is unaffected. Tasks submitted outside any context skip the
  // wrapper entirely.
  if (HasTraceContext()) {
    task = [context = CurrentTraceContext(),
            inner = std::move(task)]() mutable {
      ScopedTraceContext scope(std::move(context));
      inner();
    };
  }
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    NDE_CHECK(!shutdown_) << "Submit after ThreadPool destruction began";
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  NDE_METRIC_GAUGE_SET("parallel.queue_depth", depth);
  (void)depth;  // Only consumed by the metric when telemetry is compiled in.
  work_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_tasks_ == 0; });
  if (first_error_ != nullptr) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return !queue_.empty() || shutdown_; });
      // Drain-on-destruction: keep popping until the queue is empty even
      // after shutdown began; only an empty queue ends the loop.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_tasks_;
      NDE_METRIC_GAUGE_SET("parallel.queue_depth", queue_.size());
    }
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (first_error_ == nullptr) first_error_ = std::current_exception();
    }
    NDE_METRIC_COUNT("parallel.tasks_executed", 1);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_tasks_;
      if (queue_.empty() && active_tasks_ == 0) idle_cv_.notify_all();
    }
  }
}

size_t ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& body, size_t num_threads,
                   const char* label) {
  if (end <= begin) return 1;
  size_t range = end - begin;
  size_t threads = PlannedNumThreads(range, num_threads);
  if (threads <= 1) {
    NDE_TRACE_SPAN_VAR(span, label, "parallel");
    NDE_SPAN_ARG(span, "tasks", static_cast<int64_t>(range));
    NDE_SPAN_ARG(span, "threads", int64_t{1});
    for (size_t i = begin; i < end; ++i) body(i);
    return 1;
  }

  NDE_TRACE_SPAN_VAR(span, label, "parallel");
  NDE_SPAN_ARG(span, "tasks", static_cast<int64_t>(range));
  NDE_SPAN_ARG(span, "threads", static_cast<int64_t>(threads));
  std::atomic<size_t> next{begin};
  std::atomic<bool> failed{false};
  ThreadPool pool(threads);
  for (size_t t = 0; t < threads; ++t) {
    pool.Submit([&next, &failed, &body, end, label] {
      // Chaos hook: an armed `threadpool.task` failpoint loses this worker
      // task before it claims an index. The throw takes the path a body
      // exception takes (the pool's latch, rethrown by WaitIdle below), and
      // the other workers still claim every index.
      if (failpoint::AnyArmed()) {
        failpoint::Outcome fp = failpoint::Fire("threadpool.task");
        if (fp.fired()) throw failpoint::InjectedFault(fp.status);
      }
      NDE_TRACE_SPAN_VAR(worker_span, label, "parallel");
      size_t executed = 0;
      for (;;) {
        if (failed.load(std::memory_order_relaxed)) break;
        size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= end) break;
        try {
          body(i);
        } catch (...) {
          failed.store(true, std::memory_order_relaxed);
          throw;  // Captured by the pool, re-thrown from WaitIdle below.
        }
        ++executed;
      }
      NDE_SPAN_ARG(worker_span, "tasks_executed",
                   static_cast<int64_t>(executed));
    });
  }
  pool.WaitIdle();  // Re-throws the first body exception, if any.
  return threads;
}

Result<size_t> TryParallelFor(size_t begin, size_t end,
                              const std::function<void(size_t)>& body,
                              size_t num_threads, const char* label) {
  try {
    return ParallelFor(begin, end, body, num_threads, label);
  } catch (...) {
    return CurrentExceptionStatus(StrFormat("parallel task '%s'", label));
  }
}

Status CurrentExceptionStatus(const std::string& what) {
  try {
    throw;
  } catch (const failpoint::InjectedFault& fault) {
    return fault.status();
  } catch (const std::exception& e) {
    return Status::Internal(what + " failed: " + e.what());
  } catch (...) {
    return Status::Internal(what + " failed with a non-exception throw");
  }
}

uint64_t SeedSequence::SeedFor(uint64_t task_index) const {
  // Mix seed ⊕ (odd-constant · index) through two splitmix64 rounds: nearby
  // task indices land in unrelated regions of splitmix64's state space, so
  // per-task xoshiro streams seeded from this are mutually independent.
  uint64_t state = base_seed_ ^ (0x9e3779b97f4a7c15ULL * (task_index + 1));
  internal::SplitMix64(&state);
  return internal::SplitMix64(&state);
}

}  // namespace nde
