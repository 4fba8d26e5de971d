#ifndef NDE_TELEMETRY_HEALTH_H_
#define NDE_TELEMETRY_HEALTH_H_

#include <string>

namespace nde {
namespace telemetry {

/// Process-wide health flag feeding the HTTP exporter's /healthz endpoint.
///
/// A failed utility evaluation or an aborted estimator run flips it to
/// degraded, and the job service's next successful job flips it back to
/// healthy, so an external prober sees a long-running serve flip
/// 200 -> 503 -> 200 across a fault window instead of the process dying. Like the rest of the class-level
/// telemetry API this exists in both build modes (NDE_TELEMETRY=OFF only
/// compiles out the macros).
///
/// Thread-safe; the healthy bit is a relaxed atomic and the reason string is
/// mutex-guarded (read only on the scrape path).

/// Marks the process healthy again (the initial state).
void SetHealthy();

/// Marks the process degraded with a human-readable reason.
void SetDegraded(const std::string& reason);

/// Current health bit.
bool IsHealthy();

/// The most recent degradation reason; empty while healthy.
std::string HealthReason();

}  // namespace telemetry
}  // namespace nde

#endif  // NDE_TELEMETRY_HEALTH_H_
