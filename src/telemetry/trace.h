#ifndef NDE_TELEMETRY_TRACE_H_
#define NDE_TELEMETRY_TRACE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace nde {
namespace telemetry {

/// Runtime on/off switch for span recording and metric macros. Defaults to
/// off so instrumented hot paths cost a single relaxed atomic load until a
/// caller (CLI flag, bench harness, test) opts in.
bool Enabled();
void SetEnabled(bool enabled);

/// Small dense id for the calling thread (1, 2, ... in first-use order);
/// stable for the thread's lifetime. Used as the Chrome-trace `tid`.
uint32_t CurrentThreadId();

/// Microseconds since the process's trace epoch (steady clock; first call
/// pins the epoch).
int64_t NowMicros();

/// One completed span, matching a Chrome `trace_event` complete event
/// (`"ph":"X"`).
struct TraceEvent {
  std::string name;
  std::string category;
  /// Extra args as (key, already-JSON-encoded value) pairs.
  std::vector<std::pair<std::string, std::string>> args;
  int64_t ts_us = 0;   ///< span start, relative to the trace epoch
  int64_t dur_us = 0;  ///< span duration
  uint32_t tid = 0;
  uint32_t depth = 0;  ///< span nesting depth on its thread (0 = top level)
  /// Request attribution, copied from the opening thread's TraceContext
  /// (common/trace_context.h): the owning 128-bit trace id (0 when the span
  /// opened outside any request), this span's own id, and its parent's
  /// (0 for a root span). Parent linkage crosses thread hops because
  /// ThreadPool::Submit propagates the submitting context to its workers.
  uint64_t trace_id_hi = 0;
  uint64_t trace_id_lo = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
};

/// An exact profile folded from recorded spans (TraceBuffer::Profile). A
/// span's stack is its chain of parents, followed across threads by span id;
/// a span whose parent is not among the folded spans is a root. Its self
/// time is its duration minus that of its recorded children, clamped at 0
/// (parallel children can sum to more than their parent's wall time).
struct SpanProfile {
  /// One root-to-leaf stack of span names joined with ';'. Space, ';', tab
  /// and newline in a name become '_', so every stack is one folded frame
  /// list whatever the span names hold.
  struct Stack {
    std::string stack;
    int64_t self_us = 0;
  };
  /// Totals over every folded span of one name.
  struct Name {
    std::string name;
    uint64_t count = 0;
    int64_t self_us = 0;
    int64_t total_us = 0;
    int64_t max_us = 0;
  };

  std::vector<Stack> stacks;  ///< identical stacks merged; sorted by stack
  std::vector<Name> names;    ///< sorted by self_us descending, then name
  size_t spans = 0;           ///< spans folded
  size_t dropped = 0;         ///< spans the buffer dropped when full

  /// Flamegraph input (flamegraph.pl, speedscope): one "stack self_us" line
  /// per stack, in `stacks` order. Empty when no span was folded.
  std::string Folded() const;
};

/// Bounded in-memory store of completed spans. When full, new events are
/// dropped (and counted) so a long run keeps its earliest — structurally most
/// interesting — spans and memory stays bounded.
class TraceBuffer {
 public:
  static TraceBuffer& Global();

  explicit TraceBuffer(size_t capacity = 1 << 16);

  void Record(TraceEvent event);

  std::vector<TraceEvent> Snapshot() const;
  size_t size() const;
  size_t dropped() const;
  size_t capacity() const;

  /// Drops all buffered events and zeroes the dropped counter.
  void Clear();
  /// Also truncates the buffer if it is over the new capacity.
  void SetCapacity(size_t capacity);

  /// Chrome `trace_event` JSON (the `{"traceEvents": [...]}` object form),
  /// loadable in about:tracing / Perfetto. Thread ids are remapped to small
  /// dense values in first-appearance order (stable across runs with the
  /// same span structure); spans carry `id`/`parent` args, and a flow event
  /// pair (`"ph":"s"` / `"ph":"f"`) links every parent/child edge that
  /// crosses threads, so pool work renders attached to its submitter
  /// instead of as flat unparented boxes.
  std::string ToChromeJson() const;

  /// Folds every buffered span into one exact profile: /profilez and
  /// `nde_cli --profile` render this.
  SpanProfile Profile() const;
  /// Folds the spans of one trace only: a job's /jobs/<id>/tracez?folded=1
  /// and a run report's "profile" block.
  SpanProfile Profile(uint64_t trace_id_hi, uint64_t trace_id_lo) const;

  TraceBuffer(const TraceBuffer&) = delete;
  TraceBuffer& operator=(const TraceBuffer&) = delete;

 private:
  mutable std::mutex mu_;
  std::deque<TraceEvent> events_;
  size_t capacity_;
  size_t dropped_ = 0;
};

/// RAII span: records one complete event into TraceBuffer::Global() at scope
/// exit. Construction is a no-op (no clock reads, no allocations beyond the
/// moved-in name) when telemetry is disabled at the time the span opens.
///
/// An active span mints its own span id, records the current TraceContext's
/// span id as its parent, and installs itself as the thread's current span
/// for its scope — so nested spans (including spans opened by pool tasks the
/// scope submits) parent to it, restoring the previous span on destruction.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, std::string category = "nde");
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches an arg shown in the trace viewer's detail pane.
  void AddArg(const std::string& key, int64_t value);
  void AddArg(const std::string& key, double value);
  void AddArg(const std::string& key, const std::string& value);

  /// Elapsed time since the span opened (0 when recording is off).
  double ElapsedMs() const;

  bool active() const { return active_; }

 private:
  bool active_;
  /// The thread's previous current-span id, restored at destruction.
  uint64_t saved_span_id_ = 0;
  TraceEvent event_;
};

}  // namespace telemetry
}  // namespace nde

#endif  // NDE_TELEMETRY_TRACE_H_
