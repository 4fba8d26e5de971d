#include "telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/json.h"
#include "common/string_util.h"
#include "common/trace_context.h"

namespace nde {
namespace telemetry {

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; our dotted names map '.'
/// (and anything else) to '_'. Also applied to label keys at series-creation
/// time, so exported label names are always legal.
std::string PrometheusName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

/// Escapes a label value for the `name{key="value"}` series key. The same
/// escapes are valid in Prometheus label values and (after JsonEscape at
/// export time) in JSON object keys.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

/// Failpoint hit/fire counters, exported as `failpoint.<name>.hits` and
/// `failpoint.<name>.fires`. The failpoint framework lives below telemetry
/// (nde_common must not depend on this library), so the merge happens here at
/// export time instead of through the macro API. Empty — and therefore
/// export-invisible — unless a failpoint was armed at some point.
std::vector<std::pair<std::string, uint64_t>> FailpointCounterValues() {
  std::vector<std::pair<std::string, uint64_t>> values;
  for (const failpoint::PointStats& point : failpoint::Stats()) {
    values.emplace_back("failpoint." + point.name + ".hits", point.hits);
    values.emplace_back("failpoint." + point.name + ".fires", point.fires);
  }
  return values;
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      counts_(upper_bounds_.size() + 1) {
  NDE_CHECK(!upper_bounds_.empty()) << "histogram needs at least one bound";
  NDE_CHECK(std::is_sorted(upper_bounds_.begin(), upper_bounds_.end()))
      << "histogram bounds must be increasing";
}

void Histogram::Record(double value) {
  // First bucket whose upper bound contains `value`; the extra final slot
  // catches everything above the largest bound.
  size_t bucket = std::lower_bound(upper_bounds_.begin(), upper_bounds_.end(),
                                   value) -
                  upper_bounds_.begin();
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

uint64_t Histogram::count() const {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

uint64_t Histogram::bucket_count(size_t i) const {
  NDE_CHECK_LT(i, counts_.size());
  return counts_[i].load(std::memory_order_relaxed);
}

double Histogram::Quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  uint64_t total = count();
  if (total == 0) return 0.0;
  double target = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts_.size(); ++i) {
    uint64_t in_bucket = counts_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      // Interpolate the rank's position inside this bucket's range. The
      // underflow bucket's lower edge is 0 (all recorded values are expected
      // to be non-negative durations/counts); the overflow bucket collapses
      // to the largest finite bound.
      if (i == counts_.size() - 1) return upper_bounds_.back();
      double lo = i == 0 ? std::min(0.0, upper_bounds_.front())
                         : upper_bounds_[i - 1];
      double hi = upper_bounds_[i];
      double fraction = (target - static_cast<double>(cumulative)) /
                        static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::clamp(fraction, 0.0, 1.0);
    }
    cumulative += in_bucket;
  }
  return upper_bounds_.back();
}

void Histogram::Reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

const std::vector<double>& DefaultLatencyBucketsMs() {
  static const std::vector<double>* buckets = [] {
    auto* b = new std::vector<double>();
    for (double bound = 0.001; bound < 2e5; bound *= 4.0) b->push_back(bound);
    return b;
  }();
  return *buckets;
}

MetricLabels WithLabels(MetricLabels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

MetricLabels CurrentJobLabels() {
  const TraceContext& context = CurrentTraceContext();
  if (context.job_id.empty()) return {};
  MetricLabels labels;
  if (!context.algorithm.empty()) {
    labels.emplace_back("algorithm", context.algorithm);
  }
  labels.emplace_back("job_id", context.job_id);
  return labels;  // already key-sorted: "algorithm" < "job_id"
}

std::string LabeledSeriesName(const std::string& name,
                              const MetricLabels& labels) {
  if (labels.empty()) return name;
  MetricLabels sorted = WithLabels(labels);
  std::string key = name + "{";
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) key += ",";
    key += PrometheusName(sorted[i].first) + "=\"" +
           EscapeLabelValue(sorted[i].second) + "\"";
  }
  key += "}";
  return key;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::CounterLocked(const std::string& name) {
  std::unique_ptr<Counter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& MetricsRegistry::HistogramLocked(
    const std::string& name, const std::vector<double>& upper_bounds) {
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(upper_bounds);
  return *slot;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return CounterLocked(name);
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(
    const std::string& name, const std::vector<double>& upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  return HistogramLocked(name, upper_bounds);
}

bool MetricsRegistry::AdmitLabeledSeriesLocked(bool exists) {
  if (exists) return true;
  if (labeled_series_ >= label_cardinality_cap_) {
    // Refused: the caller falls back to base-only counting, and the drop is
    // visible instead of silent. Incrementing under mu_ is safe — the
    // counter op is a plain atomic add with no registry re-entry.
    CounterLocked("telemetry.labels_dropped").Increment();
    return false;
  }
  ++labeled_series_;
  return true;
}

LabeledCounter MetricsRegistry::GetCounterWithLabels(
    const std::string& name, const MetricLabels& labels) {
  std::lock_guard<std::mutex> lock(mu_);
  LabeledCounter result;
  result.base = &CounterLocked(name);
  if (labels.empty()) return result;
  // Pre-register the drop counter so scrapes list it (at zero) as soon as
  // any labeled series exists, making "nothing was dropped" observable.
  CounterLocked("telemetry.labels_dropped");
  std::string key = LabeledSeriesName(name, labels);
  bool exists = counters_.find(key) != counters_.end();
  if (!AdmitLabeledSeriesLocked(exists)) return result;
  result.series = &CounterLocked(key);
  return result;
}

LabeledHistogram MetricsRegistry::GetHistogramWithLabels(
    const std::string& name, const MetricLabels& labels,
    const std::vector<double>& upper_bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  LabeledHistogram result;
  result.base = &HistogramLocked(name, upper_bounds);
  if (labels.empty()) return result;
  CounterLocked("telemetry.labels_dropped");
  std::string key = LabeledSeriesName(name, labels);
  bool exists = histograms_.find(key) != histograms_.end();
  if (!AdmitLabeledSeriesLocked(exists)) return result;
  result.series = &HistogramLocked(key, upper_bounds);
  return result;
}

void MetricsRegistry::SetLabelCardinalityCap(size_t cap) {
  std::lock_guard<std::mutex> lock(mu_);
  label_cardinality_cap_ = cap;
}

size_t MetricsRegistry::label_cardinality_cap() const {
  std::lock_guard<std::mutex> lock(mu_);
  return label_cardinality_cap_;
}

size_t MetricsRegistry::labeled_series_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return labeled_series_;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snapshot;
  for (const auto& [name, counter] : counters_) {
    snapshot.counters[name] = counter->value();
  }
  for (const auto& [name, value] : FailpointCounterValues()) {
    snapshot.counters[name] = value;
  }
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges[name] = gauge->value();
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSummary summary;
    summary.count = histogram->count();
    summary.sum = histogram->sum();
    summary.p50 = histogram->Quantile(0.5);
    summary.p95 = histogram->Quantile(0.95);
    summary.p99 = histogram->Quantile(0.99);
    snapshot.histograms[name] = summary;
  }
  return snapshot;
}

std::string MetricsRegistry::ToTable() const {
  std::lock_guard<std::mutex> lock(mu_);
  // One (name, line) entry per metric regardless of kind, sorted by name, so
  // two dumps of the same process state are byte-identical and diffable.
  std::vector<std::pair<std::string, std::string>> lines;
  lines.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, counter] : counters_) {
    lines.emplace_back(
        name, StrFormat("%-44s %-10s %llu\n", name.c_str(), "counter",
                        static_cast<unsigned long long>(counter->value())));
  }
  for (const auto& [name, value] : FailpointCounterValues()) {
    lines.emplace_back(
        name, StrFormat("%-44s %-10s %llu\n", name.c_str(), "counter",
                        static_cast<unsigned long long>(value)));
  }
  for (const auto& [name, gauge] : gauges_) {
    lines.emplace_back(name, StrFormat("%-44s %-10s %.6g\n", name.c_str(),
                                       "gauge", gauge->value()));
  }
  for (const auto& [name, histogram] : histograms_) {
    lines.emplace_back(
        name,
        StrFormat(
            "%-44s %-10s count=%llu sum=%.3f p50=%.4g p95=%.4g p99=%.4g\n",
            name.c_str(), "histogram",
            static_cast<unsigned long long>(histogram->count()),
            histogram->sum(), histogram->Quantile(0.5),
            histogram->Quantile(0.95), histogram->Quantile(0.99)));
  }
  std::sort(lines.begin(), lines.end());
  std::ostringstream os;
  os << StrFormat("%-44s %-10s %s\n", "metric", "kind", "value");
  for (const auto& [name, line] : lines) os << line;
  return os.str();
}

namespace {

/// One export block: the series' sort key, the `# TYPE` declarations its
/// body relies on (emitted once per metric family after sorting — a base
/// metric and its labeled series share one declaration), and the sample
/// lines themselves.
struct PromBlock {
  std::string sort_key;
  std::vector<std::pair<std::string, std::string>> types;  ///< (name, kind)
  std::string body;
};

/// Splits a registry key `name{labels}` into the Prometheus family name and
/// the label block's inner text ("" when unlabeled). Label keys/values were
/// sanitized at series creation, so they pass through untouched.
void SplitSeriesKey(const std::string& key, std::string* family,
                    std::string* labels_inner) {
  size_t brace = key.find('{');
  if (brace == std::string::npos) {
    *family = PrometheusName(key);
    labels_inner->clear();
    return;
  }
  *family = PrometheusName(key.substr(0, brace));
  *labels_inner = key.substr(brace + 1, key.size() - brace - 2);
}

/// `family{inner,extra}` with correct brace handling for any combination of
/// empty `inner` / `extra`.
std::string SampleName(const std::string& family, const std::string& inner,
                       const std::string& extra = "") {
  std::string all = inner;
  if (!extra.empty()) {
    if (!all.empty()) all += ",";
    all += extra;
  }
  if (all.empty()) return family;
  return family + "{" + all + "}";
}

}  // namespace

std::string MetricsRegistry::ToPrometheusText() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Blocks are sorted by series key across kinds (Prometheus ignores order,
  // but sorted scrapes diff cleanly and scrape tests can be byte-stable);
  // labeled series sort directly after their base metric.
  std::vector<PromBlock> blocks;
  blocks.reserve(counters_.size() + gauges_.size() + histograms_.size());
  auto counter_block = [&blocks](const std::string& name, uint64_t value) {
    std::string family, labels;
    SplitSeriesKey(name, &family, &labels);
    blocks.push_back({name,
                      {{family, "counter"}},
                      SampleName(family, labels) + " " +
                          std::to_string(value) + "\n"});
  };
  for (const auto& [name, counter] : counters_) {
    counter_block(name, counter->value());
  }
  for (const auto& [name, value] : FailpointCounterValues()) {
    counter_block(name, value);
  }
  for (const auto& [name, gauge] : gauges_) {
    std::string family, labels;
    SplitSeriesKey(name, &family, &labels);
    blocks.push_back({name,
                      {{family, "gauge"}},
                      SampleName(family, labels) + " " +
                          StrFormat("%.6g", gauge->value()) + "\n"});
  }
  for (const auto& [name, histogram] : histograms_) {
    std::string family, labels;
    SplitSeriesKey(name, &family, &labels);
    std::ostringstream body;
    uint64_t cumulative = 0;
    for (size_t i = 0; i < histogram->num_buckets(); ++i) {
      cumulative += histogram->bucket_count(i);
      std::string le =
          i < histogram->upper_bounds().size()
              ? StrFormat("%g", histogram->upper_bounds()[i])
              : std::string("+Inf");
      body << SampleName(family + "_bucket", labels, "le=\"" + le + "\"")
           << " " << cumulative << "\n";
    }
    body << SampleName(family + "_sum", labels) << " "
         << StrFormat("%.6f", histogram->sum()) << "\n"
         << SampleName(family + "_count", labels) << " " << histogram->count()
         << "\n";
    // Companion summary with precomputed quantiles: dashboards get p50/p90/p99
    // without a histogram_quantile() over coarse buckets. Same sort key, so
    // the block stays adjacent to its histogram.
    std::string sname = family + "_quantiles";
    for (double q : {0.5, 0.9, 0.99}) {
      body << SampleName(sname, labels,
                         "quantile=\"" + StrFormat("%g", q) + "\"")
           << " " << StrFormat("%.9g", histogram->Quantile(q)) << "\n";
    }
    body << SampleName(sname + "_sum", labels) << " "
         << StrFormat("%.6f", histogram->sum()) << "\n"
         << SampleName(sname + "_count", labels) << " " << histogram->count()
         << "\n";
    blocks.push_back(
        {name, {{family, "histogram"}, {sname, "summary"}}, body.str()});
  }
  std::sort(blocks.begin(), blocks.end(),
            [](const PromBlock& a, const PromBlock& b) {
              return a.sort_key < b.sort_key;
            });
  std::ostringstream os;
  std::set<std::string> declared;
  for (const PromBlock& block : blocks) {
    for (const auto& [family, kind] : block.types) {
      if (declared.insert(family).second) {
        os << "# TYPE " << family << " " << kind << "\n";
      }
    }
    os << block.body;
  }
  return os.str();
}

std::string MetricsRegistry::ToJson() const {
  MetricsSnapshot snapshot = Snapshot();
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(name) << "\":" << value;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(name) << "\":" << StrFormat("%.9g", value);
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(name) << "\":"
       << StrFormat("{\"count\":%llu,\"sum\":%.9g,\"p50\":%.9g,"
                    "\"p95\":%.9g,\"p99\":%.9g}",
                    static_cast<unsigned long long>(h.count), h.sum, h.p50,
                    h.p95, h.p99);
  }
  os << "}}";
  return os.str();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace telemetry
}  // namespace nde
