#include "common/log.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>

#include "common/json.h"
#include "common/string_util.h"
#include "common/trace_context.h"

namespace nde {
namespace log {

namespace internal {

std::atomic<int> g_min_level{static_cast<int>(Level::kWarning)};

uint64_t NextOccurrenceEveryN(SiteState* site, uint64_t n) {
  uint64_t occurrence =
      site->occurrences.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n <= 1 || (occurrence - 1) % n == 0) return occurrence;
  Logger::Global().CountSuppressed(1);
  return 0;
}

uint64_t NextOccurrenceFirstN(SiteState* site, uint64_t n) {
  uint64_t occurrence =
      site->occurrences.fetch_add(1, std::memory_order_relaxed) + 1;
  if (occurrence <= n) return occurrence;
  Logger::Global().CountSuppressed(1);
  return 0;
}

uint64_t NextOccurrenceEveryMs(SiteState* site, int64_t ms) {
  uint64_t occurrence =
      site->occurrences.fetch_add(1, std::memory_order_relaxed) + 1;
  int64_t now_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now().time_since_epoch())
                       .count();
  int64_t last = site->last_emit_ms.load(std::memory_order_relaxed);
  // Racy-but-safe: two threads passing the window together may both log once;
  // the limiter bounds the *rate*, it is not an exactness contract.
  if (now_ms - last >= ms &&
      site->last_emit_ms.compare_exchange_strong(last, now_ms,
                                                 std::memory_order_relaxed)) {
    return occurrence;
  }
  Logger::Global().CountSuppressed(1);
  return 0;
}

namespace {

/// Same dense-id scheme as telemetry::CurrentThreadId, implemented locally:
/// nde_common cannot depend on nde_telemetry (link cycle), and the ids only
/// need to be stable within a process, not shared across the two subsystems.
uint32_t CurrentLogThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

int64_t WallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash == nullptr ? path : slash + 1;
}

/// Copies the emitting thread's trace/job identity onto the record, so every
/// sink — text, JSON, test sinks — sees the same attribution. Records emitted
/// outside any context keep empty fields and format exactly as before.
void StampTraceContext(LogRecord* record) {
  const TraceContext& context = CurrentTraceContext();
  if (context.has_trace()) record->trace_id = TraceIdHex(context);
  record->job_id = context.job_id;
}

}  // namespace
}  // namespace internal

const char* LevelName(Level level) {
  switch (level) {
    case Level::kDebug: return "DEBUG";
    case Level::kInfo: return "INFO";
    case Level::kWarning: return "WARNING";
    case Level::kError: return "ERROR";
  }
  return "UNKNOWN";
}

bool ParseLevel(const std::string& text, Level* level) {
  std::string lower = ToLowerAscii(text);
  if (lower == "debug") {
    *level = Level::kDebug;
  } else if (lower == "info") {
    *level = Level::kInfo;
  } else if (lower == "warning" || lower == "warn") {
    *level = Level::kWarning;
  } else if (lower == "error" || lower == "err") {
    *level = Level::kError;
  } else {
    return false;
  }
  return true;
}

void SetMinLevel(Level level) {
  internal::g_min_level.store(static_cast<int>(level),
                              std::memory_order_relaxed);
}

std::string FormatText(const LogRecord& record) {
  // glog-style prefix: "I0805 13:02:11.042187  3 file.cc:42] message".
  std::time_t seconds = static_cast<std::time_t>(record.wall_micros / 1000000);
  int64_t micros = record.wall_micros % 1000000;
  std::tm tm_utc{};
  gmtime_r(&seconds, &tm_utc);
  std::string line = StrFormat(
      "%c%02d%02d %02d:%02d:%02d.%06lld %2u %s:%d] ",
      LevelName(record.level)[0], tm_utc.tm_mon + 1, tm_utc.tm_mday,
      tm_utc.tm_hour, tm_utc.tm_min, tm_utc.tm_sec,
      static_cast<long long>(micros), record.tid, record.file, record.line);
  if (record.occurrence > 1) {
    line += StrFormat("[occurrence %llu] ",
                      static_cast<unsigned long long>(record.occurrence));
  }
  line += record.message;
  if (!record.trace_id.empty()) line += " trace=" + record.trace_id;
  if (!record.job_id.empty()) line += " job=" + record.job_id;
  return line;
}

std::string FormatJson(const LogRecord& record) {
  std::string json = StrFormat(
      "{\"ts_us\":%lld,\"level\":\"%s\",\"file\":\"%s\",\"line\":%d,"
      "\"tid\":%u",
      static_cast<long long>(record.wall_micros), LevelName(record.level),
      JsonEscape(record.file).c_str(), record.line, record.tid);
  if (record.occurrence > 1) {
    json += StrFormat(",\"occurrence\":%llu",
                      static_cast<unsigned long long>(record.occurrence));
  }
  if (!record.trace_id.empty()) {
    json += ",\"trace_id\":\"" + JsonEscape(record.trace_id) + "\"";
  }
  if (!record.job_id.empty()) {
    json += ",\"job_id\":\"" + JsonEscape(record.job_id) + "\"";
  }
  json += ",\"msg\":\"" + JsonEscape(record.message) + "\"}";
  return json;
}

Logger& Logger::Global() {
  static Logger* logger = new Logger();
  return *logger;
}

void Logger::Write(const LogRecord& record) {
  emitted_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_) {
    sink_(record);
    return;
  }
  std::string line = json() ? FormatJson(record) : FormatText(record);
  std::fprintf(stderr, "%s\n", line.c_str());
}

void Logger::SetJson(bool json) {
  json_.store(json, std::memory_order_relaxed);
}

void Logger::SetSink(Sink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  sink_ = std::move(sink);
}

LogStats Logger::stats() const {
  LogStats stats;
  stats.emitted = emitted_.load(std::memory_order_relaxed);
  stats.suppressed = suppressed_.load(std::memory_order_relaxed);
  return stats;
}

void Logger::ResetStats() {
  emitted_.store(0, std::memory_order_relaxed);
  suppressed_.store(0, std::memory_order_relaxed);
}

void Logger::CountSuppressed(uint64_t n) {
  suppressed_.fetch_add(n, std::memory_order_relaxed);
}

void Emit(Level level, const char* file, int line,
          const std::string& message) {
  if (!IsEnabled(level)) return;
  LogRecord record;
  record.level = level;
  record.file = internal::Basename(file);
  record.line = line;
  record.wall_micros = internal::WallMicros();
  record.tid = internal::CurrentLogThreadId();
  internal::StampTraceContext(&record);
  record.message = message;
  Logger::Global().Write(record);
}

LogMessage::LogMessage(Level level, const char* file, int line,
                       uint64_t occurrence) {
  record_.level = level;
  record_.file = internal::Basename(file);
  record_.line = line;
  record_.occurrence = occurrence;
}

LogMessage::~LogMessage() {
  record_.wall_micros = internal::WallMicros();
  record_.tid = internal::CurrentLogThreadId();
  internal::StampTraceContext(&record_);
  record_.message = stream_.str();
  Logger::Global().Write(record_);
}

}  // namespace log
}  // namespace nde
