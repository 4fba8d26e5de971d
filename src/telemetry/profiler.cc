#include "telemetry/profiler.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <mutex>
#include <new>
#include <sstream>

#include "common/json.h"
#include "common/string_util.h"
#include "telemetry/telemetry.h"

#if defined(__GLIBC__)
#include <malloc.h>  // malloc_usable_size
#endif

// Allocation interposition is compiled out under NDE_TELEMETRY=OFF (the
// zero-cost contract) and under sanitizer builds: ASan/TSan/MSan replace the
// global allocator themselves, and a second replacement would either lose
// their redzones/race instrumentation or fail to link.
#if !defined(NDE_PROFILER_SANITIZED)
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define NDE_PROFILER_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define NDE_PROFILER_SANITIZED 1
#endif
#endif
#endif
#if !defined(NDE_PROFILER_SANITIZED)
#define NDE_PROFILER_SANITIZED 0
#endif

#define NDE_ALLOC_INTERPOSE (NDE_TELEMETRY_ENABLED && !NDE_PROFILER_SANITIZED)

namespace nde {
namespace telemetry {

namespace {

void AppendAllocStatsJson(std::ostringstream& os, const AllocStats& stats) {
  os << "{\"alloc_count\":" << stats.alloc_count
     << ",\"alloc_bytes\":" << stats.alloc_bytes
     << ",\"free_count\":" << stats.free_count
     << ",\"free_bytes\":" << stats.free_bytes
     << ",\"live_bytes\":" << stats.live_bytes
     << ",\"peak_live_bytes\":" << stats.peak_live_bytes << "}";
}

}  // namespace

std::string ProfileText(const SpanProfile& profile) {
  std::ostringstream os;
  os << "profile: " << profile.spans << " spans, " << profile.dropped
     << " dropped, " << profile.stacks.size() << " stacks\n";
  if (profile.names.empty()) {
    os << "(no spans recorded; is telemetry enabled?)\n";
  } else {
    os << StrFormat("%12s %12s %12s %8s  %s\n", "self_us", "total_us",
                    "max_us", "count", "span");
    for (const SpanProfile::Name& name : profile.names) {
      os << StrFormat("%12lld %12lld %12lld %8llu  %s\n",
                      static_cast<long long>(name.self_us),
                      static_cast<long long>(name.total_us),
                      static_cast<long long>(name.max_us),
                      static_cast<unsigned long long>(name.count),
                      name.name.c_str());
    }
  }
  os << "\n" << AllocStatsTable();
  return os.str();
}

std::string ProfileJson(const SpanProfile& profile, size_t max_stacks) {
  // Keep the heaviest stacks; re-sort the survivors by stack for stable diffs.
  std::vector<SpanProfile::Stack> folded = profile.stacks;
  std::sort(folded.begin(), folded.end(),
            [](const SpanProfile::Stack& a, const SpanProfile::Stack& b) {
              if (a.self_us != b.self_us) return a.self_us > b.self_us;
              return a.stack < b.stack;
            });
  if (folded.size() > max_stacks) folded.resize(max_stacks);
  std::sort(folded.begin(), folded.end(),
            [](const SpanProfile::Stack& a, const SpanProfile::Stack& b) {
              return a.stack < b.stack;
            });

  std::ostringstream os;
  os << "{\"spans\":" << profile.spans
     << ",\"dropped_spans\":" << profile.dropped
     << ",\"unique_stacks\":" << profile.stacks.size() << ",\"folded\":[";
  bool first = true;
  for (const SpanProfile::Stack& stack : folded) {
    if (!first) os << ",";
    first = false;
    os << "{\"stack\":\"" << JsonEscape(stack.stack)
       << "\",\"self_us\":" << stack.self_us << "}";
  }
  os << "],\"flat\":[";
  first = true;
  for (const SpanProfile::Name& name : profile.names) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << JsonEscape(name.name)
       << "\",\"count\":" << name.count << ",\"self_us\":" << name.self_us
       << ",\"total_us\":" << name.total_us << ",\"max_us\":" << name.max_us
       << "}";
  }
  os << "],\"alloc\":{\"compiled_in\":"
     << (AllocAccountingCompiledIn() ? "true" : "false") << ",\"enabled\":"
     << (AllocAccountingEnabled() ? "true" : "false") << ",\"global\":";
  AppendAllocStatsJson(os, GlobalAllocStats());
  os << ",\"phases\":{";
  first = true;
  for (const auto& [phase, stats] : AllocPhaseStats()) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(phase) << "\":";
    AppendAllocStatsJson(os, stats);
  }
  os << "}}}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Allocation accounting
//
// The hooks below run inside operator new/delete, so they must never
// allocate and must tolerate being called before main() and during static
// destruction. They therefore touch only constant-initialized namespace
// atomics and one trivially-initialized thread_local pointer. The per-phase
// table (which does allocate) is only touched by AllocationScope's
// destructor, after the thread's innermost-scope pointer has been restored —
// so its own allocations are attributed to the parent scope, not to a
// dangling tally.
// ---------------------------------------------------------------------------

namespace {

std::atomic<bool> g_alloc_enabled{false};
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_alloc_bytes{0};
std::atomic<uint64_t> g_free_count{0};
std::atomic<uint64_t> g_free_bytes{0};
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_live_bytes{0};

thread_local AllocationScope::Tally* t_alloc_scope = nullptr;

std::mutex& PhaseMu() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

std::map<std::string, AllocStats>& PhaseMap() {
  static std::map<std::string, AllocStats>* map =
      new std::map<std::string, AllocStats>();
  return *map;
}

#if NDE_ALLOC_INTERPOSE

size_t HeapBytes(void* ptr, size_t requested) {
  (void)ptr;
  (void)requested;
#if defined(__GLIBC__)
  return malloc_usable_size(ptr);
#else
  return requested;
#endif
}

void NoteAlloc(void* ptr, size_t requested) {
  if (!g_alloc_enabled.load(std::memory_order_relaxed)) return;
  int64_t bytes = static_cast<int64_t>(HeapBytes(ptr, requested));
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(static_cast<uint64_t>(bytes),
                          std::memory_order_relaxed);
  int64_t live =
      g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  int64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_live_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  if (AllocationScope::Tally* tally = t_alloc_scope) {
    ++tally->alloc_count;
    tally->alloc_bytes += static_cast<uint64_t>(bytes);
    tally->live_bytes += bytes;
    if (tally->live_bytes > tally->peak_live_bytes) {
      tally->peak_live_bytes = tally->live_bytes;
    }
  }
}

// Must run BEFORE the underlying free(): malloc_usable_size on freed memory
// would be use-after-free.
void NoteFree(void* ptr, size_t requested) {
  if (ptr == nullptr) return;
  if (!g_alloc_enabled.load(std::memory_order_relaxed)) return;
  int64_t bytes = static_cast<int64_t>(HeapBytes(ptr, requested));
  g_free_count.fetch_add(1, std::memory_order_relaxed);
  g_free_bytes.fetch_add(static_cast<uint64_t>(bytes),
                         std::memory_order_relaxed);
  g_live_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  if (AllocationScope::Tally* tally = t_alloc_scope) {
    ++tally->free_count;
    tally->free_bytes += static_cast<uint64_t>(bytes);
    tally->live_bytes -= bytes;
  }
}

#endif  // NDE_ALLOC_INTERPOSE

}  // namespace

bool AllocAccountingCompiledIn() {
#if NDE_ALLOC_INTERPOSE
  return true;
#else
  return false;
#endif
}

void SetAllocAccountingEnabled(bool enabled) {
#if NDE_ALLOC_INTERPOSE
  g_alloc_enabled.store(enabled, std::memory_order_relaxed);
#else
  (void)enabled;
#endif
}

bool AllocAccountingEnabled() {
  return g_alloc_enabled.load(std::memory_order_relaxed);
}

AllocStats GlobalAllocStats() {
  AllocStats stats;
  stats.alloc_count = g_alloc_count.load(std::memory_order_relaxed);
  stats.alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed);
  stats.free_count = g_free_count.load(std::memory_order_relaxed);
  stats.free_bytes = g_free_bytes.load(std::memory_order_relaxed);
  stats.live_bytes = g_live_bytes.load(std::memory_order_relaxed);
  stats.peak_live_bytes = g_peak_live_bytes.load(std::memory_order_relaxed);
  return stats;
}

std::vector<std::pair<std::string, AllocStats>> AllocPhaseStats() {
  std::lock_guard<std::mutex> lock(PhaseMu());
  return {PhaseMap().begin(), PhaseMap().end()};
}

void ResetAllocStats() {
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_alloc_bytes.store(0, std::memory_order_relaxed);
  g_free_count.store(0, std::memory_order_relaxed);
  g_free_bytes.store(0, std::memory_order_relaxed);
  g_live_bytes.store(0, std::memory_order_relaxed);
  g_peak_live_bytes.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(PhaseMu());
  PhaseMap().clear();
}

AllocationScope::AllocationScope(const char* phase) {
  if (!AllocAccountingCompiledIn() ||
      !g_alloc_enabled.load(std::memory_order_relaxed)) {
    return;
  }
  tally_.phase = phase;
  tally_.parent = t_alloc_scope;
  t_alloc_scope = &tally_;
  active_ = true;
}

AllocationScope::~AllocationScope() {
  if (!active_) return;
  // Restore the parent first: the flush below allocates (map node, string),
  // and those allocations must not land on the tally being flushed.
  t_alloc_scope = tally_.parent;
  std::lock_guard<std::mutex> lock(PhaseMu());
  AllocStats& stats = PhaseMap()[tally_.phase];
  stats.alloc_count += tally_.alloc_count;
  stats.alloc_bytes += tally_.alloc_bytes;
  stats.free_count += tally_.free_count;
  stats.free_bytes += tally_.free_bytes;
  stats.live_bytes += tally_.live_bytes;
  stats.peak_live_bytes =
      std::max(stats.peak_live_bytes, tally_.peak_live_bytes);
}

std::string AllocStatsTable() {
  std::ostringstream os;
  os << "alloc accounting: "
     << (AllocAccountingCompiledIn() ? "compiled in" : "compiled out") << ", "
     << (AllocAccountingEnabled() ? "enabled" : "disabled") << "\n";
  auto row = [&os](const std::string& name, const AllocStats& stats) {
    os << StrFormat("%-28s %10llu %14llu %10llu %14llu %14lld %14lld\n",
                    name.c_str(),
                    static_cast<unsigned long long>(stats.alloc_count),
                    static_cast<unsigned long long>(stats.alloc_bytes),
                    static_cast<unsigned long long>(stats.free_count),
                    static_cast<unsigned long long>(stats.free_bytes),
                    static_cast<long long>(stats.live_bytes),
                    static_cast<long long>(stats.peak_live_bytes));
  };
  os << StrFormat("%-28s %10s %14s %10s %14s %14s %14s\n", "phase", "allocs",
                  "alloc_bytes", "frees", "free_bytes", "live_bytes",
                  "peak_live");
  row("(global)", GlobalAllocStats());
  for (const auto& [phase, stats] : AllocPhaseStats()) row(phase, stats);
  return os.str();
}

}  // namespace telemetry
}  // namespace nde

// ---------------------------------------------------------------------------
// Global operator new/delete interposition (telemetry builds, non-sanitizer).
// Always malloc/free-backed so mixed new/delete across TUs stays consistent;
// when accounting is disabled the hooks reduce to one relaxed atomic load.
// ---------------------------------------------------------------------------

#if NDE_ALLOC_INTERPOSE

// GCC flags free() inside a replaced operator delete as a mismatched pair; it
// cannot see that the matching operator new above is malloc-backed.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {

void* AllocOrNull(std::size_t size) {
  return std::malloc(size ? size : 1);
}

void* AlignedAllocOrNull(std::size_t size, std::size_t alignment) {
  if (alignment < sizeof(void*)) alignment = sizeof(void*);
  void* ptr = nullptr;
  if (posix_memalign(&ptr, alignment, size ? size : 1) != 0) return nullptr;
  return ptr;
}

}  // namespace

void* operator new(std::size_t size) {
  void* ptr = AllocOrNull(size);
  if (ptr == nullptr) throw std::bad_alloc();
  nde::telemetry::NoteAlloc(ptr, size);
  return ptr;
}

void* operator new[](std::size_t size) {
  void* ptr = AllocOrNull(size);
  if (ptr == nullptr) throw std::bad_alloc();
  nde::telemetry::NoteAlloc(ptr, size);
  return ptr;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* ptr = AllocOrNull(size);
  if (ptr != nullptr) nde::telemetry::NoteAlloc(ptr, size);
  return ptr;
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  void* ptr = AllocOrNull(size);
  if (ptr != nullptr) nde::telemetry::NoteAlloc(ptr, size);
  return ptr;
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  void* ptr = AlignedAllocOrNull(size, static_cast<std::size_t>(alignment));
  if (ptr == nullptr) throw std::bad_alloc();
  nde::telemetry::NoteAlloc(ptr, size);
  return ptr;
}

void* operator new[](std::size_t size, std::align_val_t alignment) {
  void* ptr = AlignedAllocOrNull(size, static_cast<std::size_t>(alignment));
  if (ptr == nullptr) throw std::bad_alloc();
  nde::telemetry::NoteAlloc(ptr, size);
  return ptr;
}

void* operator new(std::size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  void* ptr = AlignedAllocOrNull(size, static_cast<std::size_t>(alignment));
  if (ptr != nullptr) nde::telemetry::NoteAlloc(ptr, size);
  return ptr;
}

void* operator new[](std::size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  void* ptr = AlignedAllocOrNull(size, static_cast<std::size_t>(alignment));
  if (ptr != nullptr) nde::telemetry::NoteAlloc(ptr, size);
  return ptr;
}

void operator delete(void* ptr) noexcept {
  nde::telemetry::NoteFree(ptr, 0);
  std::free(ptr);
}

void operator delete[](void* ptr) noexcept {
  nde::telemetry::NoteFree(ptr, 0);
  std::free(ptr);
}

void operator delete(void* ptr, std::size_t size) noexcept {
  nde::telemetry::NoteFree(ptr, size);
  std::free(ptr);
}

void operator delete[](void* ptr, std::size_t size) noexcept {
  nde::telemetry::NoteFree(ptr, size);
  std::free(ptr);
}

void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  nde::telemetry::NoteFree(ptr, 0);
  std::free(ptr);
}

void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  nde::telemetry::NoteFree(ptr, 0);
  std::free(ptr);
}

void operator delete(void* ptr, std::align_val_t) noexcept {
  nde::telemetry::NoteFree(ptr, 0);
  std::free(ptr);
}

void operator delete[](void* ptr, std::align_val_t) noexcept {
  nde::telemetry::NoteFree(ptr, 0);
  std::free(ptr);
}

void operator delete(void* ptr, std::size_t size, std::align_val_t) noexcept {
  nde::telemetry::NoteFree(ptr, size);
  std::free(ptr);
}

void operator delete[](void* ptr, std::size_t size,
                       std::align_val_t) noexcept {
  nde::telemetry::NoteFree(ptr, size);
  std::free(ptr);
}

void operator delete(void* ptr, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  nde::telemetry::NoteFree(ptr, 0);
  std::free(ptr);
}

void operator delete[](void* ptr, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  nde::telemetry::NoteFree(ptr, 0);
  std::free(ptr);
}

#endif  // NDE_ALLOC_INTERPOSE
