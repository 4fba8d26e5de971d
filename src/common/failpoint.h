#ifndef NDE_COMMON_FAILPOINT_H_
#define NDE_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "common/status.h"

namespace nde {
namespace failpoint {

/// --- Failpoint fault injection ----------------------------------------------
///
/// Named injection sites threaded through the engine's failure-prone layers
/// (CSV reader, plan operators, encoders, utility evaluation, parallel
/// fan-out, HTTP exporter). Each site is a no-op until a spec arms it:
///
///   NDE_FAILPOINTS="csv.record=error(io_error:disk gone)#3" nde_cli ...
///
/// or programmatically: `failpoint::Arm("utility.evaluate=nan@0.25/7")`.
///
/// Spec grammar (one per failpoint, ';' or ',' separated in a list):
///
///   name=action[(args)][@prob[/seed]][#N][xM]
///
///   action    off                       disarm (same as Disarm(name))
///             error                     return Status::Internal
///             error(code)               return Status with that code
///             error(code:message)       ... and a custom message
///             delay(ms)                 sleep, then continue normally
///             nan                       poison the value path with a NaN
///   @prob[/seed]  fire with probability `prob` in [0, 1]. The decision is a
///             pure function of (seed, site name, key) — see Fire(name, key)
///             — so keyed sites replay bit-identically for any thread count.
///             Unkeyed sites fall back to the site's hit ordinal as the key,
///             which is deterministic only single-threaded. Default seed 0.
///   #N        first fire on the Nth hit of the site (1-based).
///   xM        fire at most M times, then never again.
///
/// Zero-cost-when-off contract: every site is guarded by AnyArmed(), a single
/// relaxed atomic load of the process-wide armed-point count; the registry,
/// counters, and spec evaluation live entirely behind that branch.
///
/// Error codes accepted by `error(...)` are the canonical lowercase names
/// from StatusCodeToString: "internal", "unavailable", "io_error",
/// "resource_exhausted", "invalid_argument", ...

namespace internal {
/// Number of currently armed failpoints. Sites read this through AnyArmed();
/// everything else about the framework hides behind the non-zero branch.
extern std::atomic<int> g_armed_count;
}  // namespace internal

/// True when at least one failpoint is armed. One relaxed atomic load: this
/// is the only cost a site pays when fault injection is off.
inline bool AnyArmed() {
  return internal::g_armed_count.load(std::memory_order_relaxed) != 0;
}

/// What an armed failpoint decided for one hit.
struct Outcome {
  enum Kind {
    kNone = 0,    ///< not armed / did not fire / delay already served
    kError,       ///< return `status` to the caller
    kNanPoison,   ///< value paths should produce a quiet NaN
  };
  Kind kind = kNone;
  /// Non-OK whenever the point fired: the injected error for kError, and a
  /// typed internal error for kNanPoison so Status-only sites (which cannot
  /// represent a poisoned value) still degrade cleanly.
  Status status;

  bool fired() const { return kind != kNone; }
};

/// Evaluates the failpoint `name` for one hit. Call only behind AnyArmed().
/// Probabilistic specs use the site's hit ordinal as the key (deterministic
/// replay only single-threaded); prefer the keyed overload in parallel code.
Outcome Fire(const char* name);

/// Keyed evaluation: the fire decision for a probabilistic spec is a pure
/// function of (spec seed, site name, key), independent of thread schedule
/// and hit order. Pass a stable, schedule-invariant key (subset hash,
/// permutation×position, record index) and a fixed seed replays the exact
/// same injections for any thread count.
Outcome Fire(const char* name, uint64_t key);

/// Deterministic 64-bit combiner for building stable failpoint keys out of
/// two coordinates (e.g. permutation index and position).
uint64_t MixKey(uint64_t a, uint64_t b);

/// Arms one failpoint from a single spec ("name=action..."). Re-arming an
/// armed name replaces its spec; hit/fire counters persist.
Status Arm(const std::string& spec);

/// Arms every spec in a ';'- or ','-separated list. Stops at the first bad
/// spec and returns its parse error (earlier specs stay armed).
Status ArmFromList(const std::string& specs);

/// Arms from the NDE_FAILPOINTS environment variable, if set. Bad specs are
/// reported on stderr and skipped — an operator typo must not abort the run
/// it was trying to observe. Called once automatically at process start.
void ArmFromEnv();

/// Disarms one failpoint; returns false when it was not armed. Counters are
/// kept (and still reported by Stats()).
bool Disarm(const std::string& name);

/// Disarms everything. Counters are kept.
void DisarmAll();

/// Zeroes every failpoint's hit/fire counters (armed state is unchanged).
void ResetStats();

/// Point-in-time counters for one failpoint that was armed at some time in
/// this process (hits = times an armed site was reached, fires = times it
/// injected). Exported by the telemetry registry as `failpoint.<name>.hits`
/// and `failpoint.<name>.fires`.
struct PointStats {
  std::string name;
  uint64_t hits = 0;
  uint64_t fires = 0;
  bool armed = false;
};

/// Stats for every failpoint ever armed in this process, sorted by name.
std::vector<PointStats> Stats();

/// The catalog of failpoint sites compiled into the engine (DESIGN.md §11).
/// Chaos tests iterate this list to prove every site degrades to a typed
/// error; arming a name outside it is allowed (the spec just never fires).
const std::vector<std::string>& KnownSites();

/// Exception form of an injected fault, for sites that cannot return a
/// Status (ParallelFor's worker tasks). TryParallelFor unwraps it back into
/// the carried Status on the coordinating thread.
class InjectedFault : public std::exception {
 public:
  explicit InjectedFault(Status status)
      : status_(std::move(status)), what_(status_.ToString()) {}

  const char* what() const noexcept override { return what_.c_str(); }
  const Status& status() const { return status_; }

 private:
  Status status_;
  std::string what_;
};

}  // namespace failpoint
}  // namespace nde

/// Evaluates failpoint `name` and returns its injected Status on fire.
/// Usable in functions returning Status or Result<T>. Exactly one relaxed
/// atomic load when nothing is armed.
#define NDE_FAILPOINT(name)                                             \
  do {                                                                  \
    if (::nde::failpoint::AnyArmed()) {                                 \
      ::nde::failpoint::Outcome nde_fp_out_ =                           \
          ::nde::failpoint::Fire(name);                                 \
      if (nde_fp_out_.fired()) return nde_fp_out_.status;               \
    }                                                                   \
  } while (false)

/// Keyed variant for parallel code paths (see Fire(name, key)).
#define NDE_FAILPOINT_KEYED(name, key)                                  \
  do {                                                                  \
    if (::nde::failpoint::AnyArmed()) {                                 \
      ::nde::failpoint::Outcome nde_fp_out_ =                           \
          ::nde::failpoint::Fire(name, (key));                          \
      if (nde_fp_out_.fired()) return nde_fp_out_.status;               \
    }                                                                   \
  } while (false)

#endif  // NDE_COMMON_FAILPOINT_H_
