#include "importance/waves.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/log.h"
#include "common/parallel.h"
#include "common/progress.h"
#include "telemetry/health.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry.h"

namespace nde {

namespace {

/// The one abort record behind RunWaves and PrepareUtility: counts
/// `estimator.aborted`, marks health degraded unless the cause is a cancel
/// (not a fault), and logs where `phase` stopped.
void RecordAbort(const char* phase, const std::string& where,
                 const Status& cause) {
  NDE_METRIC_COUNT("estimator.aborted", 1);
  if (cause.code() != StatusCode::kCancelled) {
    telemetry::SetDegraded(cause.ToString());
  }
  NDE_LOG(WARNING) << phase << " aborted " << where << ": "
                   << cause.ToString();
}

}  // namespace

Status PrepareUtility(const UtilityFunction& utility,
                      const EstimatorOptions& options, const char* phase) {
  NDE_TRACE_SPAN("scorer_context", "importance");
  telemetry::AllocationScope context_alloc("scorer_context");
  Status prepared = utility.Prepare(options.num_threads);
  // No wave ran, so there is no partial estimate: the cause is the run's
  // Status (DESIGN.md §11).
  if (!prepared.ok()) RecordAbort(phase, "before its first wave", prepared);
  return prepared;
}

WaveOutcome RunWaves(const EstimatorOptions& options, const char* phase,
                     const char* label, size_t num_tasks, size_t wave_size,
                     const std::function<Status(size_t)>& task,
                     const std::function<WaveTally(size_t, size_t)>& fold) {
  WaveOutcome outcome;
  std::vector<Status> errors(std::min(wave_size, num_tasks));
  size_t waves_done = 0;
  for (size_t begin = 0; begin < num_tasks; begin += wave_size) {
    // Polled on this thread at wave boundaries only, so a cancelled run keeps
    // exactly the waves a clean smaller-budget run would have.
    if (options.cancel != nullptr &&
        options.cancel->load(std::memory_order_relaxed)) {
      outcome.abort_cause = Status::Cancelled(std::string(phase) +
                                              " cancelled");
      break;
    }
    size_t end = std::min(begin + wave_size, num_tasks);
    telemetry::AllocationScope wave_alloc(label);
    int64_t wave_start_us = telemetry::Enabled() ? telemetry::NowMicros() : 0;
    Result<size_t> used = TryParallelFor(
        begin, end, [&](size_t i) { errors[i - begin] = task(i); },
        options.num_threads, label);
    if (!used.ok()) {
      outcome.abort_cause = used.status();
      break;
    }
    outcome.threads_used = std::max(outcome.threads_used, *used);
    if (telemetry::Enabled()) {
      telemetry::MetricsRegistry::Global()
          .GetHistogramWithLabels("estimator.wave_ms",
                                  telemetry::CurrentJobLabels())
          .Record(static_cast<double>(telemetry::NowMicros() - wave_start_us) /
                  1000.0);
    }
    for (size_t i = 0; i < end - begin && outcome.abort_cause.ok(); ++i) {
      outcome.abort_cause = errors[i];
    }
    if (!outcome.abort_cause.ok()) break;

    WaveTally tally = fold(begin, end);
    ++waves_done;
    if (options.progress) {
      ProgressUpdate update;
      update.phase = phase;
      update.completed = tally.completed;
      update.total = tally.total;
      update.utility_evaluations = tally.utility_evaluations;
      update.max_std_error = tally.max_std_error;
      options.progress(update);
    }
    if (tally.converged) {
      NDE_LOG(INFO) << phase << " converged after " << tally.completed << "/"
                    << tally.total << " (max std error "
                    << tally.max_std_error
                    << " <= " << options.convergence_tolerance << ")";
      break;
    }
  }
  if (!outcome.abort_cause.ok()) {
    size_t num_waves = (num_tasks + wave_size - 1) / wave_size;
    RecordAbort(phase,
                "after " + std::to_string(waves_done) + "/" +
                    std::to_string(num_waves) + " waves",
                outcome.abort_cause);
  }
  return outcome;
}

Result<double> EvaluateChecked(const UtilityFunction& utility,
                               const std::vector<size_t>& subset) {
  Result<double> value = utility.TryEvaluate(subset);
  if (value.ok() && !std::isfinite(*value)) {
    value = Status::Internal("utility produced a non-finite value");
  }
  if (!value.ok()) telemetry::SetDegraded(value.status().ToString());
  return value;
}

void CountForJob(const char* name, uint64_t delta) {
  if (!telemetry::Enabled()) return;
  telemetry::MetricsRegistry::Global()
      .GetCounterWithLabels(name, telemetry::CurrentJobLabels())
      .Increment(delta);
}

}  // namespace nde
