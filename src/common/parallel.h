#ifndef NDE_COMMON_PARALLEL_H_
#define NDE_COMMON_PARALLEL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace nde {

/// --- Thread-count policy ----------------------------------------------------
///
/// Every parallel entry point takes a `num_threads` knob where 0 means "use
/// the process-wide default". The default starts at HardwareConcurrency()
/// and can be overridden once (e.g. by the CLI's global `--threads N` flag).

/// std::thread::hardware_concurrency(), clamped to at least 1.
size_t HardwareConcurrency();

/// The process-wide default worker count used when a caller passes 0.
size_t DefaultNumThreads();

/// Overrides DefaultNumThreads(); passing 0 restores HardwareConcurrency().
void SetDefaultNumThreads(size_t num_threads);

/// Maps a caller-supplied `num_threads` (0 = default) to a concrete count.
size_t ResolveNumThreads(size_t num_threads);

/// The worker count ParallelFor will actually use for `range` items: never
/// more threads than items, never fewer than 1. Exposed so estimators can
/// report `num_threads_used` without duplicating the policy.
size_t PlannedNumThreads(size_t range, size_t num_threads);

/// Rows per task of a fan-out over the rows of a table or matrix (the column
/// transformer, influence's Newton passes). A constant, not an option: those
/// results never depend on it, so there is nothing to tune. An input of b
/// blocks fans out over at most b tasks, so one of at most kRowBlock rows
/// runs inline and pays for no pool.
inline constexpr size_t kRowBlock = 4096;

/// Blocks of kRowBlock rows covering `rows` rows.
inline constexpr size_t NumRowBlocks(size_t rows) {
  return (rows + kRowBlock - 1) / kRowBlock;
}

/// --- ThreadPool -------------------------------------------------------------

/// Fixed-size FIFO thread pool: no work stealing, no task priorities — tasks
/// run in submission order, each on whichever worker frees up first.
///
/// Lifetime contract: the destructor *drains* the pool — every task submitted
/// before destruction runs to completion before the workers are joined.
///
/// Error contract: a task that throws does not take down the process; the
/// first exception is captured and re-thrown by the next WaitIdle() call
/// (an exception still pending at destruction is dropped).
///
/// Telemetry: submissions and pops update the `parallel.queue_depth` gauge
/// and each executed task bumps `parallel.tasks_executed`. The pool records
/// no span of its own: a task opens spans under the submitter's trace
/// context (below), so ParallelFor's per-worker span shows worker occupancy
/// in `--trace` and counts once in the span profile.
///
/// Trace-context propagation: Submit captures the submitting thread's
/// TraceContext (common/trace_context.h) and installs it around the task on
/// the worker, so spans/logs/metrics emitted by pool work attach to the
/// submitter's trace and job. ParallelFor inherits this automatically (its
/// workers are pool tasks; the single-thread path runs inline on the caller).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = DefaultNumThreads()).
  explicit ThreadPool(size_t num_threads = 0);

  /// Drains the queue (all submitted tasks run), then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Must not be called after destruction has begun.
  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is running, then re-throws
  /// the first exception any task raised since the last WaitIdle().
  void WaitIdle();

  size_t num_threads() const { return workers_.size(); }

  /// Tasks currently queued (not yet claimed by a worker).
  size_t queue_depth() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait here for tasks
  std::condition_variable idle_cv_;  ///< WaitIdle waits here
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t active_tasks_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_error_;
};

/// --- ParallelFor ------------------------------------------------------------

/// Runs `body(i)` for every i in [begin, end) across up to `num_threads`
/// workers (0 = DefaultNumThreads()); returns the worker count actually used.
/// Indices are claimed dynamically (an atomic cursor), so the *assignment* of
/// indices to threads is nondeterministic — determinism is the caller's job:
/// write results into storage addressed by `i` and reduce sequentially
/// afterwards, and results are bit-for-bit independent of the thread count.
///
/// Exceptions thrown by `body` stop further index claims and the first one is
/// re-thrown on the calling thread after all workers stop. With one thread
/// (or a single-item range) the body runs inline on the calling thread.
///
/// Each pooled worker task is a hit of the `threadpool.task` failpoint
/// (DESIGN.md §11): on a fire the task throws failpoint::InjectedFault before
/// it claims an index, so the call throws after the other workers drain the
/// range. The inline path never reaches it.
///
/// `label` names the per-worker trace spans in `--trace` output.
size_t ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& body,
                   size_t num_threads = 0, const char* label = "parallel_for");

/// ParallelFor with the exception path converted to a typed Status: an
/// injected fault (failpoint::InjectedFault, e.g. the `threadpool.task`
/// failpoint killing a worker task) returns the Status it carries, and any
/// other exception becomes Status::Internal with the exception text. The
/// pool still drains fully before this returns — no task is left running —
/// so estimators can abort a wave without leaking workers. On success,
/// returns the worker count used, like ParallelFor.
Result<size_t> TryParallelFor(size_t begin, size_t end,
                              const std::function<void(size_t)>& body,
                              size_t num_threads = 0,
                              const char* label = "parallel_for");

/// The typed Status of the exception being handled; call only inside a catch
/// block. An injected fault returns the Status it carries; any other
/// exception becomes Status::Internal("<what> failed: <exception text>").
/// TryParallelFor and the job runner convert their exceptions through it.
Status CurrentExceptionStatus(const std::string& what);

/// --- SeedSequence -----------------------------------------------------------

/// Derives statistically independent per-task RNG streams from one base seed
/// by splitmix64-mixing `seed ⊕ g(task_index)`. Task index — not thread id —
/// keys the stream, so a task draws the same randomness no matter which
/// worker runs it or how many workers exist: the foundation of the parallel
/// estimators' "same (seed), any thread count → identical results" contract.
class SeedSequence {
 public:
  explicit SeedSequence(uint64_t base_seed) : base_seed_(base_seed) {}

  /// A decorrelated 64-bit seed for task `task_index`.
  uint64_t SeedFor(uint64_t task_index) const;

  /// Convenience: an Rng seeded with SeedFor(task_index). Construct it on the
  /// thread that will draw from it (Rng is single-thread-owned in debug
  /// builds).
  Rng RngFor(uint64_t task_index) const { return Rng(SeedFor(task_index)); }

  uint64_t base_seed() const { return base_seed_; }

 private:
  uint64_t base_seed_;
};

}  // namespace nde

#endif  // NDE_COMMON_PARALLEL_H_
