#ifndef NDE_TELEMETRY_PROFILER_H_
#define NDE_TELEMETRY_PROFILER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/trace.h"

namespace nde {
namespace telemetry {

// Rendering of the exact span profile (TraceBuffer::Profile) plus
// allocation accounting.
//
// The profile folds the spans the trace buffer already holds, so every
// number in it is a recorded duration. Spans only exist while
// `telemetry::SetEnabled(true)`; the CLI's --profile turns telemetry and
// allocation accounting on together.

/// The /profilez text: a "profile: <n> spans, <d> dropped, <m> stacks"
/// header, the per-name table (self, total and max microseconds, count;
/// heaviest self time first), then AllocStatsTable().
std::string ProfileText(const SpanProfile& profile);

/// The RunReport "profile" block:
/// {"spans":..,"dropped_spans":..,"unique_stacks":..,
///  "folded":[{"stack":..,"self_us":..}],
///  "flat":[{"name":..,"count":..,"self_us":..,"total_us":..,"max_us":..}],
///  "alloc":{"compiled_in":..,"enabled":..,"global":{..},"phases":{..}}}.
/// "folded" keeps the `max_stacks` heaviest stacks, sorted by stack.
std::string ProfileJson(const SpanProfile& profile, size_t max_stacks = 25);

// ---------------------------------------------------------------------------
// Allocation accounting
// ---------------------------------------------------------------------------

/// Point-in-time allocation counters. Bytes are actual heap bytes
/// (malloc_usable_size) where the platform provides them, else the requested
/// size. Counters accumulate from the moment accounting is enabled; `live`
/// can go negative when memory allocated before enabling is freed after.
struct AllocStats {
  uint64_t alloc_count = 0;
  uint64_t alloc_bytes = 0;
  uint64_t free_count = 0;
  uint64_t free_bytes = 0;
  int64_t live_bytes = 0;
  int64_t peak_live_bytes = 0;
};

/// Whether operator new/delete interposition was compiled in. False under
/// NDE_TELEMETRY=OFF and under ASan/TSan/MSan builds (the sanitizers own the
/// allocator there); everything below degrades to no-ops in that case.
bool AllocAccountingCompiledIn();

/// Runtime gate. While disabled, the interposed operators cost one relaxed
/// atomic load over plain malloc/free.
void SetAllocAccountingEnabled(bool enabled);
bool AllocAccountingEnabled();

/// Process-wide counters since the last ResetAllocStats().
AllocStats GlobalAllocStats();

/// Per-phase totals accumulated by AllocationScope, sorted by phase name.
std::vector<std::pair<std::string, AllocStats>> AllocPhaseStats();

/// Zeroes the global counters and drops every recorded phase.
void ResetAllocStats();

/// RAII phase tag: while the innermost scope on a thread is alive, that
/// thread's allocations and frees are attributed to `phase` (self-only:
/// nested scopes do not roll up into their parents). On destruction the
/// scope's tally is folded into the process-wide per-phase table, merging
/// with earlier scopes of the same phase. `phase` must outlive the scope
/// (string literals, in practice). Construction and destruction are no-ops
/// while accounting is disabled or compiled out.
class AllocationScope {
 public:
  explicit AllocationScope(const char* phase);
  ~AllocationScope();

  AllocationScope(const AllocationScope&) = delete;
  AllocationScope& operator=(const AllocationScope&) = delete;

  /// Internal: per-scope running tally, updated by the allocation hooks.
  struct Tally {
    const char* phase = nullptr;
    uint64_t alloc_count = 0;
    uint64_t alloc_bytes = 0;
    uint64_t free_count = 0;
    uint64_t free_bytes = 0;
    int64_t live_bytes = 0;
    int64_t peak_live_bytes = 0;
    Tally* parent = nullptr;
  };

 private:
  Tally tally_;
  bool active_ = false;
};

/// Text table of global + per-phase allocation counters (the tail of
/// ProfileText and /profilez).
std::string AllocStatsTable();

}  // namespace telemetry
}  // namespace nde

#endif  // NDE_TELEMETRY_PROFILER_H_
