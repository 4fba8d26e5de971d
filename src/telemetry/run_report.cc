#include "telemetry/run_report.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <sstream>
#include <utility>

#include "common/json.h"
#include "common/string_util.h"
#include "common/trace_context.h"
#include "telemetry/profiler.h"
#include "telemetry/trace.h"

namespace nde {
namespace telemetry {

namespace {

int64_t SteadyMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

RunReport::RunReport(std::string name)
    : name_(std::move(name)),
      start_steady_us_(SteadyMicros()),
      start_cpu_clock_(static_cast<int64_t>(std::clock())),
      trace_id_hi_(CurrentTraceContext().trace_id_hi),
      trace_id_lo_(CurrentTraceContext().trace_id_lo) {}

void RunReport::SetConfig(const std::string& key, const std::string& value) {
  config_.emplace_back(key, "\"" + JsonEscape(value) + "\"");
}

void RunReport::SetConfig(const std::string& key, const char* value) {
  SetConfig(key, std::string(value));
}

void RunReport::SetConfig(const std::string& key, int64_t value) {
  config_.emplace_back(key,
                       StrFormat("%lld", static_cast<long long>(value)));
}

void RunReport::SetConfig(const std::string& key, double value) {
  config_.emplace_back(key, FormatDouble(value));
}

void RunReport::SetConfig(const std::string& key, bool value) {
  config_.emplace_back(key, value ? "true" : "false");
}

void RunReport::RecordProgress(const ProgressUpdate& update) {
  ConvergencePoint point;
  point.completed = update.completed;
  point.total = update.total;
  point.utility_evaluations = update.utility_evaluations;
  point.max_std_error = update.max_std_error;
  // Envelope: running minimum over estimable (> 0) errors. Points before the
  // first estimable error carry 0, matching "nothing known yet".
  double prev = curve_.empty() ? 0.0 : curve_.back().envelope;
  if (update.max_std_error > 0.0) {
    point.envelope =
        prev > 0.0 ? std::min(prev, update.max_std_error) : update.max_std_error;
  } else {
    point.envelope = prev;
  }
  curve_.push_back(point);
}

ProgressCallback RunReport::MakeProgressCallback() {
  return [this](const ProgressUpdate& update) { RecordProgress(update); };
}

void RunReport::SetError(const Status& status, int exit_code) {
  has_error_ = true;
  error_ = status;
  error_exit_code_ = exit_code;
}

void RunReport::Finish() {
  if (finished_) return;
  finished_ = true;
  wall_ms_ = static_cast<double>(SteadyMicros() - start_steady_us_) / 1000.0;
  cpu_ms_ = (static_cast<double>(std::clock()) -
             static_cast<double>(start_cpu_clock_)) *
            1000.0 / CLOCKS_PER_SEC;
  metrics_ = MetricsRegistry::Global().Snapshot();
  TraceBuffer& buffer = TraceBuffer::Global();
  trace_json_ = StrFormat(
      "{\"buffered_spans\":%zu,\"dropped_spans\":%zu,"
      "\"buffer_capacity\":%zu}",
      buffer.size(), buffer.dropped(), buffer.capacity());
  profile_json_ = ProfileJson((trace_id_hi_ | trace_id_lo_) != 0
                                  ? buffer.Profile(trace_id_hi_, trace_id_lo_)
                                  : buffer.Profile());
}

std::string RunReport::ToJson() {
  Finish();
  std::ostringstream os;
  os << "{\"name\":\"" << JsonEscape(name_) << "\",\"config\":{";
  // Last write wins per key, preserving first-seen order (the CLI records
  // flags in parse order, which is what a human wants to read back).
  std::vector<std::pair<std::string, std::string>> config;
  for (const auto& [key, value] : config_) {
    auto it = std::find_if(config.begin(), config.end(),
                           [&](const auto& e) { return e.first == key; });
    if (it == config.end()) {
      config.emplace_back(key, value);
    } else {
      it->second = value;
    }
  }
  bool first = true;
  for (const auto& [key, value] : config) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(key) << "\":" << value;
  }
  os << "},\"timing\":{\"wall_ms\":" << FormatDouble(wall_ms_)
     << ",\"cpu_ms\":" << FormatDouble(cpu_ms_) << "},\"convergence_curve\":[";
  first = true;
  for (const ConvergencePoint& point : curve_) {
    if (!first) os << ",";
    first = false;
    os << "{\"completed\":" << point.completed << ",\"total\":" << point.total
       << ",\"utility_evaluations\":" << point.utility_evaluations
       << ",\"max_std_error\":" << FormatDouble(point.max_std_error)
       << ",\"envelope\":" << FormatDouble(point.envelope) << "}";
  }
  os << "],\"metrics\":";
  // Re-render the snapshot taken at Finish() time (not the live registry, so
  // serializing later does not smuggle in post-run metric churn).
  std::ostringstream metrics;
  metrics << "{\"counters\":{";
  first = true;
  for (const auto& [name, value] : metrics_.counters) {
    if (!first) metrics << ",";
    first = false;
    metrics << "\"" << JsonEscape(name) << "\":" << value;
  }
  metrics << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : metrics_.gauges) {
    if (!first) metrics << ",";
    first = false;
    metrics << "\"" << JsonEscape(name) << "\":" << FormatDouble(value);
  }
  metrics << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : metrics_.histograms) {
    if (!first) metrics << ",";
    first = false;
    metrics << "\"" << JsonEscape(name) << "\":"
            << StrFormat("{\"count\":%llu,\"sum\":%.9g,\"p50\":%.9g,"
                         "\"p95\":%.9g,\"p99\":%.9g}",
                         static_cast<unsigned long long>(h.count), h.sum,
                         h.p50, h.p95, h.p99);
  }
  metrics << "}}";
  os << metrics.str();
  if (has_error_) {
    os << ",\"error\":{\"code\":\""
       << JsonEscape(StatusCodeToString(error_.code())) << "\",\"message\":\""
       << JsonEscape(error_.message())
       << "\",\"exit_code\":" << error_exit_code_ << "}";
  }
  os << ",\"profile\":" << profile_json_;
  os << ",\"trace\":" << trace_json_ << "}";
  return os.str();
}

Status RunReport::WriteFile(const std::string& path) {
  std::string json = ToJson();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::IOError("cannot open run-report file: " + path);
  }
  json.push_back('\n');
  size_t written = std::fwrite(json.data(), 1, json.size(), file);
  int close_rc = std::fclose(file);
  if (written != json.size() || close_rc != 0) {
    return Status::IOError("short write to run-report file: " + path);
  }
  return Status();
}

}  // namespace telemetry
}  // namespace nde
