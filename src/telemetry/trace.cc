#include "telemetry/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <sstream>
#include <unordered_map>

#include "common/json.h"
#include "common/string_util.h"
#include "common/trace_context.h"
#include "telemetry/metrics.h"

namespace nde {
namespace telemetry {

namespace {

std::atomic<bool> g_enabled{false};

std::chrono::steady_clock::time_point TraceEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

uint32_t NextThreadId() {
  static std::atomic<uint32_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

thread_local uint32_t t_span_depth = 0;

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
  if (enabled) {
    // Surface the span budget as soon as recording starts, so /metrics and
    // run reports can show how close the buffer is to silently dropping.
    MetricsRegistry::Global().GetGauge("trace.buffer_capacity")
        .Set(static_cast<double>(TraceBuffer::Global().capacity()));
  }
}

uint32_t CurrentThreadId() {
  thread_local uint32_t id = NextThreadId();
  return id;
}

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - TraceEpoch())
      .count();
}

TraceBuffer& TraceBuffer::Global() {
  static TraceBuffer* buffer = new TraceBuffer();
  return *buffer;
}

TraceBuffer::TraceBuffer(size_t capacity) : capacity_(capacity) {}

void TraceBuffer::Record(TraceEvent event) {
  bool dropped = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (events_.size() >= capacity_) {
      ++dropped_;
      dropped = true;
    } else {
      events_.push_back(std::move(event));
    }
  }
  // Saturation must be visible, not silent: the global buffer mirrors its
  // drops into a counter that /metrics and run reports expose. Local buffers
  // (tests) stay off the global registry. Incremented outside mu_ — the
  // registry has its own lock and no path back into the trace buffer.
  if (dropped && this == &Global()) {
    MetricsRegistry::Global().GetCounter("trace.dropped_spans").Increment();
  }
}

std::vector<TraceEvent> TraceBuffer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {events_.begin(), events_.end()};
}

size_t TraceBuffer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

size_t TraceBuffer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

size_t TraceBuffer::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void TraceBuffer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_ = 0;
}

void TraceBuffer::SetCapacity(size_t capacity) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    capacity_ = capacity;
    while (events_.size() > capacity_) {
      events_.pop_back();
      ++dropped_;
    }
  }
  if (this == &Global()) {
    MetricsRegistry::Global().GetGauge("trace.buffer_capacity")
        .Set(static_cast<double>(capacity));
  }
}

std::string TraceBuffer::ToChromeJson() const {
  std::vector<TraceEvent> events = Snapshot();
  // Remap raw thread ids to small dense ones in first-appearance order:
  // process-lifetime ids depend on which unrelated threads ran first, so
  // remapping makes exports with the same span structure byte-comparable.
  std::unordered_map<uint32_t, uint32_t> tid_map;
  auto dense_tid = [&tid_map](uint32_t tid) {
    auto [it, inserted] =
        tid_map.emplace(tid, static_cast<uint32_t>(tid_map.size() + 1));
    return it->second;
  };
  // Span-id -> recording tid, for cross-thread flow linkage below.
  std::unordered_map<uint64_t, uint32_t> span_tid;
  for (const TraceEvent& event : events) {
    if (event.span_id != 0) span_tid.emplace(event.span_id, event.tid);
  }
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << JsonEscape(event.name) << "\",\"cat\":\""
       << JsonEscape(event.category) << "\",\"ph\":\"X\",\"ts\":"
       << event.ts_us << ",\"dur\":" << event.dur_us
       << ",\"pid\":1,\"tid\":" << dense_tid(event.tid)
       << ",\"args\":{\"depth\":" << event.depth;
    if (event.span_id != 0) {
      os << ",\"id\":\"" << SpanIdHex(event.span_id) << "\"";
    }
    if (event.parent_span_id != 0) {
      os << ",\"parent\":\"" << SpanIdHex(event.parent_span_id) << "\"";
    }
    if ((event.trace_id_hi | event.trace_id_lo) != 0) {
      TraceContext id_only;
      id_only.trace_id_hi = event.trace_id_hi;
      id_only.trace_id_lo = event.trace_id_lo;
      os << ",\"trace_id\":\"" << TraceIdHex(id_only) << "\"";
    }
    for (const auto& [key, value] : event.args) {
      os << ",\"" << JsonEscape(key) << "\":" << value;
    }
    os << "}}";
  }
  // Flow events stitch parent/child edges that cross threads (a pool task
  // parented to the submitting span): an "s" at the parent's recorded tid
  // and an "f" at the child's start, both keyed by the child's span id.
  for (const TraceEvent& event : events) {
    if (event.parent_span_id == 0 || event.span_id == 0) continue;
    auto parent = span_tid.find(event.parent_span_id);
    if (parent == span_tid.end() || parent->second == event.tid) continue;
    std::string id = "\"" + SpanIdHex(event.span_id) + "\"";
    os << ",{\"name\":\"submit\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":" << id
       << ",\"ts\":" << event.ts_us << ",\"pid\":1,\"tid\":"
       << dense_tid(parent->second) << "}"
       << ",{\"name\":\"submit\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\","
       << "\"id\":" << id << ",\"ts\":" << event.ts_us
       << ",\"pid\":1,\"tid\":" << dense_tid(event.tid) << "}";
  }
  os << "]}";
  return os.str();
}

namespace {

/// Appends one frame to a folded stack. Folded lines are ';'-joined frames,
/// a space and the self time, so span names like "fit numeric(score)" have
/// their delimiter characters turned into '_'.
void AppendFrame(const std::string& name, std::string* stack) {
  if (!stack->empty()) stack->push_back(';');
  for (char c : name) {
    bool delimiter = c == ' ' || c == ';' || c == '\t' || c == '\n';
    stack->push_back(delimiter ? '_' : c);
  }
}

SpanProfile FoldSpans(const std::vector<TraceEvent>& events, size_t dropped) {
  std::unordered_map<uint64_t, const TraceEvent*> by_span;
  for (const TraceEvent& event : events) {
    if (event.span_id != 0) by_span.emplace(event.span_id, &event);
  }
  std::unordered_map<uint64_t, int64_t> children_us;
  for (const TraceEvent& event : events) {
    if (event.parent_span_id != 0 &&
        by_span.count(event.parent_span_id) != 0) {
      children_us[event.parent_span_id] += event.dur_us;
    }
  }
  std::map<std::string, int64_t> stacks;  // sorted -> deterministic output
  std::map<std::string, SpanProfile::Name> names;
  std::vector<const TraceEvent*> chain;
  for (const TraceEvent& event : events) {
    // Walk parent pointers to the root; a span whose parent fell outside the
    // folded set becomes the root of its own stack.
    chain.assign(1, &event);
    const TraceEvent* cursor = &event;
    while (cursor->parent_span_id != 0) {
      auto it = by_span.find(cursor->parent_span_id);
      if (it == by_span.end() || it->second == &event) break;
      cursor = it->second;
      chain.push_back(cursor);
      if (chain.size() > events.size()) break;  // malformed linkage guard
    }
    std::string stack;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      AppendFrame((*it)->name, &stack);
    }
    int64_t self_us = event.dur_us;
    auto consumed = children_us.find(event.span_id);
    if (consumed != children_us.end()) {
      self_us = std::max<int64_t>(0, self_us - consumed->second);
    }
    stacks[stack] += self_us;
    SpanProfile::Name& name = names[event.name];
    ++name.count;
    name.self_us += self_us;
    name.total_us += event.dur_us;
    name.max_us = std::max(name.max_us, event.dur_us);
  }

  SpanProfile profile;
  profile.spans = events.size();
  profile.dropped = dropped;
  profile.stacks.reserve(stacks.size());
  for (const auto& [stack, self_us] : stacks) {
    profile.stacks.push_back({stack, self_us});
  }
  profile.names.reserve(names.size());
  for (auto& [key, name] : names) {
    name.name = key;
    profile.names.push_back(std::move(name));
  }
  std::sort(profile.names.begin(), profile.names.end(),
            [](const SpanProfile::Name& a, const SpanProfile::Name& b) {
              if (a.self_us != b.self_us) return a.self_us > b.self_us;
              return a.name < b.name;
            });
  return profile;
}

}  // namespace

std::string SpanProfile::Folded() const {
  std::string out;
  for (const Stack& entry : stacks) {
    out += entry.stack;
    out += ' ';
    out += std::to_string(entry.self_us);
    out += '\n';
  }
  return out;
}

SpanProfile TraceBuffer::Profile() const {
  return FoldSpans(Snapshot(), dropped());
}

SpanProfile TraceBuffer::Profile(uint64_t trace_id_hi,
                                 uint64_t trace_id_lo) const {
  // Copy only the trace's spans, not the whole buffer: a job's view and its
  // report fold one trace out of up to 65,536 buffered spans.
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const TraceEvent& event : events_) {
      if (event.trace_id_hi == trace_id_hi &&
          event.trace_id_lo == trace_id_lo) {
        events.push_back(event);
      }
    }
  }
  return FoldSpans(events, dropped());
}

ScopedSpan::ScopedSpan(std::string name, std::string category)
    : active_(Enabled()) {
  if (!active_) return;
  event_.name = std::move(name);
  event_.category = std::move(category);
  event_.tid = CurrentThreadId();
  event_.depth = t_span_depth++;
  // Parent linkage: adopt the thread's current TraceContext (trace id and
  // parent span), then install this span as the current one so children —
  // on this thread or on pool workers it submits to — parent here. The
  // span-id push/pop mutates only the id field in place, so the context's
  // job attribution strings are never copied on this hot path.
  TraceContext* context = nde::internal::MutableCurrentTraceContext();
  event_.trace_id_hi = context->trace_id_hi;
  event_.trace_id_lo = context->trace_id_lo;
  event_.parent_span_id = context->span_id;
  event_.span_id = MintSpanId();
  saved_span_id_ = context->span_id;
  context->span_id = event_.span_id;
  event_.ts_us = NowMicros();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  event_.dur_us = NowMicros() - event_.ts_us;
  nde::internal::MutableCurrentTraceContext()->span_id = saved_span_id_;
  --t_span_depth;
  TraceBuffer::Global().Record(std::move(event_));
}

void ScopedSpan::AddArg(const std::string& key, int64_t value) {
  if (!active_) return;
  event_.args.emplace_back(key, StrFormat("%lld", static_cast<long long>(value)));
}

void ScopedSpan::AddArg(const std::string& key, double value) {
  if (!active_) return;
  event_.args.emplace_back(key, StrFormat("%.6g", value));
}

void ScopedSpan::AddArg(const std::string& key, const std::string& value) {
  if (!active_) return;
  event_.args.emplace_back(key, "\"" + JsonEscape(value) + "\"");
}

double ScopedSpan::ElapsedMs() const {
  if (!active_) return 0.0;
  return static_cast<double>(NowMicros() - event_.ts_us) / 1000.0;
}

}  // namespace telemetry
}  // namespace nde
