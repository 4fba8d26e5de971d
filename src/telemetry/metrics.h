#ifndef NDE_TELEMETRY_METRICS_H_
#define NDE_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace nde {
namespace telemetry {

/// Monotonically increasing event counter. Increments are lock-free; reads
/// may race with writers and return a slightly stale value, which is fine
/// for reporting.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (e.g. "rows currently buffered").
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. `upper_bounds` (strictly increasing) define the
/// buckets (-inf, b0], (b0, b1], ..., (b_last, +inf); recording and reading
/// are thread-safe and lock-free. Quantiles are estimated by linear
/// interpolation inside the bucket containing the target rank, so their
/// resolution is the bucket width (the standard Prometheus semantics).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Record(double value);

  uint64_t count() const;
  double sum() const;
  /// Count of values landing in bucket `i` (0 .. num_buckets()-1).
  uint64_t bucket_count(size_t i) const;
  size_t num_buckets() const { return counts_.size(); }
  const std::vector<double>& upper_bounds() const { return upper_bounds_; }

  /// Quantile estimate for q in [0, 1]; 0 when the histogram is empty.
  /// Values in the overflow bucket are reported as the largest finite bound.
  double Quantile(double q) const;

  /// Zeroes all buckets; the bucket layout is kept.
  void Reset();

 private:
  std::vector<double> upper_bounds_;
  std::vector<std::atomic<uint64_t>> counts_;  ///< one per bucket, + overflow
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Default latency buckets in milliseconds: 1us .. ~100s, x4 per bucket.
const std::vector<double>& DefaultLatencyBucketsMs();

/// --- Labeled metrics --------------------------------------------------------
///
/// A label set is a small sorted (key, value) list. Labeled series are stored
/// in the registry under the full series key `name{k="v",k2="v2"}`, so every
/// export path (table, Prometheus, JSON, snapshots/run reports) carries them
/// with no extra plumbing. Cardinality is bounded by a process-wide hard cap:
/// once the cap is reached, new label sets are refused (the unlabeled base
/// metric still counts them) and `telemetry.labels_dropped` ticks — a scrape
/// target can never be blown up by unbounded label values.

using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Canonicalizes a label list: sorted by key (stable series keys regardless
/// of call-site order). Usage: WithLabels({{"job_id", id}, {"algorithm", a}}).
MetricLabels WithLabels(MetricLabels labels);

/// Labels {{"algorithm",...},{"job_id",...}} from the calling thread's
/// TraceContext; empty (=> unlabeled metrics) outside any job.
MetricLabels CurrentJobLabels();

/// The full series key: `name` when labels is empty, else
/// `name{k="v",...}` with values escaped for Prometheus/JSON embedding.
std::string LabeledSeriesName(const std::string& name,
                              const MetricLabels& labels);

/// A resolved (base, labeled-series) counter pair: Increment hits both, so
/// unlabeled aggregates stay exact while the labeled breakdown accumulates.
/// Either pointer may be null (no-op half): `series` is null when the label
/// set was refused by the cardinality cap or the label list was empty, and a
/// default-constructed instance is a full no-op — hot paths resolve once and
/// increment unconditionally.
struct LabeledCounter {
  Counter* base = nullptr;
  Counter* series = nullptr;
  void Increment(uint64_t delta = 1) {
    if (base != nullptr) base->Increment(delta);
    if (series != nullptr) series->Increment(delta);
  }
};

/// Histogram companion to LabeledCounter, same null/no-op semantics.
struct LabeledHistogram {
  Histogram* base = nullptr;
  Histogram* series = nullptr;
  void Record(double value) {
    if (base != nullptr) base->Record(value);
    if (series != nullptr) series->Record(value);
  }
};

/// Point-in-time copy of one histogram's reporting summary.
struct HistogramSummary {
  uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// Point-in-time copy of every registered metric, used by run reports and
/// the /varz endpoint. Values may be slightly stale relative to concurrent
/// writers (the usual relaxed-read reporting semantics).
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;

  /// {"counters":{...},"gauges":{...},"histograms":{name:{"count","sum",
  /// "p50","p95","p99"}}}, keys sorted: /varz and a run report's "metrics".
  std::string ToJson() const;
};

/// Process-wide named-metric registry. Getters create on first use and
/// return references that stay valid for the registry's lifetime, so hot
/// paths may cache them. All operations are thread-safe.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  /// `upper_bounds` is honored on first registration only; later callers
  /// with different bounds share the originally created histogram.
  Histogram& GetHistogram(const std::string& name,
                          const std::vector<double>& upper_bounds =
                              DefaultLatencyBucketsMs());

  /// Resolves the (base, labeled) counter pair for `name` + `labels`. The
  /// base counter is always created; the labeled series is created on first
  /// use unless the process-wide labeled-series cap is reached, in which
  /// case it stays null and `telemetry.labels_dropped` is incremented once
  /// per refused resolution. Returned pointers stay valid for the registry's
  /// lifetime — resolve once per run/instance, not per increment.
  LabeledCounter GetCounterWithLabels(const std::string& name,
                                      const MetricLabels& labels);
  /// Histogram twin of GetCounterWithLabels (bounds honored on first
  /// registration of each series, like GetHistogram).
  LabeledHistogram GetHistogramWithLabels(
      const std::string& name, const MetricLabels& labels,
      const std::vector<double>& upper_bounds = DefaultLatencyBucketsMs());

  /// Hard cap on distinct labeled series across all metric kinds; refused
  /// label sets fall back to base-only counting. Default 128.
  void SetLabelCardinalityCap(size_t cap);
  size_t label_cardinality_cap() const;
  /// Distinct labeled series currently registered (always <= the cap).
  size_t labeled_series_count() const;

  /// Copies every registered metric's current value.
  MetricsSnapshot Snapshot() const;

  /// Human-readable fixed-width table of every registered metric, sorted by
  /// metric name across kinds so two dumps diff cleanly.
  std::string ToTable() const;

  /// Prometheus text exposition format (counters, gauges, and histograms
  /// with cumulative `_bucket{le=...}` series), sorted by metric name across
  /// kinds for diffable scrapes.
  std::string ToPrometheusText() const;

  /// Zeroes every registered metric (the metrics stay registered).
  void Reset();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

 private:
  /// Lock-held twins of the public getters, for compound operations.
  Counter& CounterLocked(const std::string& name);
  Histogram& HistogramLocked(const std::string& name,
                             const std::vector<double>& upper_bounds);
  /// True when a new labeled series under `key` may be created; counts the
  /// drop otherwise. Call with mu_ held.
  bool AdmitLabeledSeriesLocked(bool exists);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  size_t label_cardinality_cap_ = 128;  ///< guarded by mu_
  size_t labeled_series_ = 0;           ///< series admitted so far
};

}  // namespace telemetry
}  // namespace nde

#endif  // NDE_TELEMETRY_METRICS_H_
