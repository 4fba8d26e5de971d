#include "telemetry/http_exporter.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/failpoint.h"
#include "common/json.h"
#include "common/log.h"
#include "common/string_util.h"
#include "common/trace_context.h"
#include "telemetry/health.h"
#include "telemetry/metrics.h"
#include "telemetry/profiler.h"
#include "telemetry/trace.h"

namespace nde {
namespace telemetry {

std::string MakeHttpResponse(int status, const char* reason,
                             const std::string& content_type,
                             const std::string& body) {
  std::string response = StrFormat(
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      status, reason, content_type.c_str(), body.size());
  response.reserve(response.size() + body.size());
  response.append(body);
  return response;
}

namespace {

constexpr size_t kMaxHeaderBytes = 16384;

using Clock = std::chrono::steady_clock;

/// Bounds the next blocking read (SO_RCVTIMEO) or write (SO_SNDTIMEO) on
/// `fd` by what is left of `deadline`; false once it has passed.
bool ArmTimeout(int fd, int option, Clock::time_point deadline) {
  auto left = std::chrono::duration_cast<std::chrono::microseconds>(
                  deadline - Clock::now())
                  .count();
  if (left <= 0) return false;
  timeval timeout{static_cast<time_t>(left / 1000000),
                  static_cast<suseconds_t>(left % 1000000)};
  return ::setsockopt(fd, SOL_SOCKET, option, &timeout, sizeof(timeout)) == 0;
}

/// Appends the next bytes the peer sends to `out`. False at end of stream,
/// on error, or once `deadline` passes with nothing read.
bool ReadSome(int fd, Clock::time_point deadline, std::string* out) {
  char buf[4096];
  if (!ArmTimeout(fd, SO_RCVTIMEO, deadline)) return false;
  ssize_t n = ::read(fd, buf, sizeof(buf));
  if (n <= 0) return false;
  out->append(buf, static_cast<size_t>(n));
  return true;
}

/// Splits a request line ("POST /jobs?x=1 HTTP/1.1") into method + target +
/// query. Malformed lines leave fields empty, which Route answers with 405.
void ParseRequestLine(const std::string& line, HttpRequest* out) {
  std::istringstream is(line);
  is >> out->method >> out->target;
  size_t query = out->target.find('?');
  if (query != std::string::npos) {
    out->query = out->target.substr(query + 1);
    out->target.resize(query);
  }
}

/// Reads one HTTP request off the socket: request line, headers, and — when
/// Content-Length says so — the body. Bodyless methods keep the historical
/// single-read fast path (a complete request line is enough; clients may
/// never send the blank line). Every read gives up at `deadline`. Returns
/// false when there is nothing to answer (the client sent no bytes); a
/// non-empty `error_response` carries a 413/400 to send instead.
bool ReadHttpRequest(int fd, size_t max_body_bytes, Clock::time_point deadline,
                     HttpRequest* out, std::string* error_response) {
  std::string data;
  size_t body_start = std::string::npos;
  while (true) {
    size_t crlf = data.find("\r\n\r\n");
    size_t lflf = data.find("\n\n");
    if (crlf != std::string::npos &&
        (lflf == std::string::npos || crlf < lflf)) {
      body_start = crlf + 4;
      break;
    }
    if (lflf != std::string::npos) {
      body_start = lflf + 2;
      break;
    }
    if (data.size() >= kMaxHeaderBytes) break;  // cap; parse what we have
    if (data.find('\n') != std::string::npos) {
      std::string method = data.substr(0, data.find_first_of(" \r\n"));
      if (method != "POST" && method != "PUT") break;  // no body expected
    }
    if (!ReadSome(fd, deadline, &data)) break;
  }

  size_t eol = data.find('\n');
  if (eol == std::string::npos) {  // no request line at all
    if (!data.empty()) {
      *error_response = MakeHttpResponse(400, "Bad Request", "text/plain",
                                         "no request line\n");
    }
    return false;
  }
  std::string line = data.substr(0, eol);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  ParseRequestLine(line, out);

  if (body_start == std::string::npos) return true;  // headers never ended

  // Scan the header block for Content-Length (case-insensitive key).
  size_t content_length = 0;
  bool has_length = false;
  size_t cursor = eol + 1;
  while (cursor < body_start && cursor < data.size()) {
    size_t line_end = data.find('\n', cursor);
    if (line_end == std::string::npos || line_end >= body_start) break;
    std::string header = data.substr(cursor, line_end - cursor);
    cursor = line_end + 1;
    if (!header.empty() && header.back() == '\r') header.pop_back();
    size_t colon = header.find(':');
    if (colon == std::string::npos) continue;
    std::string key = ToLowerAscii(std::string_view(header).substr(0, colon));
    size_t value_begin = header.find_first_not_of(" \t", colon + 1);
    if (value_begin == std::string::npos) continue;
    std::string value = header.substr(value_begin);
    if (key == "traceparent") {
      out->traceparent = value;
      continue;
    }
    if (key != "content-length") continue;
    if (value.empty() ||
        value.find_first_not_of("0123456789") != std::string::npos) {
      *error_response = MakeHttpResponse(400, "Bad Request", "text/plain",
                                         "malformed Content-Length\n");
      return false;
    }
    content_length = static_cast<size_t>(std::strtoull(value.c_str(),
                                                       nullptr, 10));
    has_length = true;
  }
  if (!has_length || content_length == 0) return true;
  if (content_length > max_body_bytes) {
    *error_response = MakeHttpResponse(
        413, "Payload Too Large", "text/plain",
        StrFormat("request body of %zu bytes exceeds the %zu-byte cap\n",
                  content_length, max_body_bytes));
    return false;
  }
  std::string body =
      body_start < data.size() ? data.substr(body_start) : std::string();
  while (body.size() < content_length) {
    if (!ReadSome(fd, deadline, &body)) break;
  }
  if (body.size() < content_length) {
    *error_response =
        MakeHttpResponse(400, "Bad Request", "text/plain",
                         "request body shorter than Content-Length\n");
    return false;
  }
  body.resize(content_length);
  out->body = std::move(body);
  return true;
}

/// Collapses id-bearing paths to one label value per route shape, so the
/// `http.request_us` target label has a small fixed vocabulary no matter how
/// many jobs exist (the cardinality cap is for accidents, not for design).
std::string NormalizedTarget(const std::string& target) {
  if (target == "/healthz" || target == "/metrics" || target == "/varz" ||
      target == "/tracez" || target == "/profilez" || target == "/jobs" ||
      target == "/algorithmz") {
    return target;
  }
  if (StartsWith(target, "/jobs/")) {
    size_t slash = target.find('/', 6);
    if (slash == std::string::npos) return "/jobs/<id>";
    std::string suffix = target.substr(slash);
    if (suffix == "/tracez" || suffix == "/eventz") {
      return "/jobs/<id>" + suffix;
    }
    return "other";
  }
  return "other";
}

/// Request-latency buckets in microseconds: 1us .. ~18min, x4 per bucket.
/// (The default registry buckets are scaled for milliseconds.)
const std::vector<double>& RequestLatencyBucketsUs() {
  static const std::vector<double>* bounds = [] {
    auto* v = new std::vector<double>();
    for (double b = 1.0; b <= 1.2e9; b *= 4.0) v->push_back(b);
    return v;
  }();
  return *bounds;
}

/// Sends `data`, giving up at `deadline`: a peer that stops reading must not
/// hold the serving thread. MSG_NOSIGNAL makes a vanished peer an error
/// return instead of a SIGPIPE.
void WriteAll(int fd, const std::string& data, Clock::time_point deadline) {
  size_t sent = 0;
  while (sent < data.size() && ArmTimeout(fd, SO_SNDTIMEO, deadline)) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<size_t>(n);
  }
}

}  // namespace

std::string HttpExporter::Route(const HttpRequest& request,
                                const HttpHandler* handler) {
  MetricsRegistry::Global().GetCounter("http_exporter.requests").Increment();
  // Chaos hook: a scrape failure must produce a well-formed 500, never tear
  // down the serving thread.
  if (failpoint::AnyArmed()) {
    failpoint::Outcome fp = failpoint::Fire("http.handle_request");
    if (fp.fired()) {
      return MakeHttpResponse(500, "Internal Server Error", "text/plain",
                              fp.status.ToString() + "\n");
    }
  }
  // Serving-layer routes go to the installed handler with any method and the
  // request body; the built-ins below never do, so their responses stay
  // byte-identical whether or not a handler is installed.
  bool handled = handler != nullptr && *handler;
  if (handled &&
      (request.target == "/jobs" || StartsWith(request.target, "/jobs/") ||
       request.target == "/algorithmz")) {
    return (*handler)(request);
  }
  if (request.method != "GET") {
    return MakeHttpResponse(405, "Method Not Allowed", "text/plain",
                            "only GET is supported\n");
  }
  if (request.target == "/healthz") {
    // Degraded keeps serving scrapes: the process is alive but its current
    // work is failing (e.g. a utility evaluation failed), so probers see 503
    // while /metrics stays readable.
    if (!IsHealthy()) {
      return MakeHttpResponse(503, "Service Unavailable", "text/plain",
                              "degraded: " + HealthReason() + "\n");
    }
    return MakeHttpResponse(200, "OK", "text/plain", "ok\n");
  }
  if (request.target == "/metrics") {
    return MakeHttpResponse(200, "OK", "text/plain; version=0.0.4",
                            MetricsRegistry::Global().ToPrometheusText());
  }
  if (request.target == "/varz") {
    return MakeHttpResponse(200, "OK", "application/json",
                            MetricsRegistry::Global().Snapshot().ToJson() +
                                "\n");
  }
  if (request.target == "/tracez") {
    std::vector<TraceEvent> events = TraceBuffer::Global().Snapshot();
    constexpr size_t kMaxSpans = 100;
    size_t begin = events.size() > kMaxSpans ? events.size() - kMaxSpans : 0;
    json::Writer json;
    json.BeginObject().Key("buffered_spans").Uint(events.size())
        .Key("dropped_spans").Uint(TraceBuffer::Global().dropped())
        .Key("spans");
    WriteSpans(json, std::span<const TraceEvent>(events).subspan(begin));
    return MakeHttpResponse(200, "OK", "application/json",
                            json.EndObject().Take() + "\n");
  }
  if (request.target == "/profilez") {
    // Default: the per-name table + allocation accounting. ?folded=1
    // downloads the folded stacks for flamegraph.pl/speedscope.
    SpanProfile profile = TraceBuffer::Global().Profile();
    if (request.query.find("folded=1") != std::string::npos) {
      return MakeHttpResponse(200, "OK", "text/plain", profile.Folded());
    }
    return MakeHttpResponse(200, "OK", "text/plain", ProfileText(profile));
  }
  if (handled) {
    return MakeHttpResponse(404, "Not Found", "text/plain",
                            "unknown path; try /healthz /metrics /varz "
                            "/tracez /profilez /jobs /algorithmz\n");
  }
  return MakeHttpResponse(
      404, "Not Found", "text/plain",
      "unknown path; try /healthz /metrics /varz /tracez /profilez\n");
}

std::string HttpExporter::Dispatch(const HttpRequest& request) const {
  // Tracing ingress: honor a valid incoming traceparent (the caller's trace
  // id then flows through every span/log/metric this request produces), mint
  // a fresh context otherwise. Handlers that spawn work (the job API) copy
  // the ambient context before this scope ends.
  TraceContext context;
  if (!ParseTraceparent(request.traceparent, &context)) {
    context = MintTraceContext();
  }
  ScopedTraceContext scope(std::move(context));
  int64_t start_us = NowMicros();
  std::string response = Route(request, &handler_);
  int64_t elapsed_us = NowMicros() - start_us;
  // Per-endpoint latency, labeled by route shape + status class. Resolved
  // per request — requests are orders of magnitude rarer than the hot-path
  // metrics, so the map lookup is irrelevant here.
  char status_digit = response.size() > 9 ? response[9] : '5';
  MetricsRegistry::Global()
      .GetHistogramWithLabels(
          "http.request_us",
          WithLabels({{"target", NormalizedTarget(request.target)},
                      {"status", std::string(1, status_digit) + "xx"}}),
          RequestLatencyBucketsUs())
      .Record(static_cast<double>(elapsed_us));
  return response;
}

std::string HttpExporter::HandleRequest(const std::string& request_line) {
  HttpRequest request;
  ParseRequestLine(request_line, &request);
  return Route(request, nullptr);
}

Status HttpExporter::Start(uint16_t port) {
  if (running()) {
    return Status::FailedPrecondition("http exporter already running");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket(): ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("bind(127.0.0.1:" + std::to_string(port) +
                           "): " + err);
  }
  if (::listen(fd, 16) != 0) {
    std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("listen(): " + err);
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("getsockname(): " + err);
  }
  if (::pipe(wake_fds_) != 0) {
    std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("pipe(): " + err);
  }
  listen_fd_ = fd;
  port_.store(ntohs(addr.sin_port), std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { Serve(); });
  NDE_LOG(INFO) << "http exporter serving on 127.0.0.1:" << this->port();
  return Status();
}

void HttpExporter::Serve() {
  while (running()) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_fds_[0], POLLIN, 0};
    int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // Stop() wrote to the wake pipe
    if ((fds[0].revents & POLLIN) == 0) continue;
    int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(kConnectionDeadlineMs);
    HttpRequest request;
    std::string error_response;
    if (ReadHttpRequest(client, max_body_bytes_, deadline, &request,
                        &error_response)) {
      Clock::time_point dispatched = Clock::now();
      std::string response = Dispatch(request);
      // The handler's run time is the server's, not the client's.
      deadline += Clock::now() - dispatched;
      WriteAll(client, response, deadline);
    } else if (!error_response.empty()) {
      WriteAll(client, error_response, deadline);
    }
    ::close(client);
  }
}

void HttpExporter::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  // Wake the poll loop so it observes running_ == false and exits.
  char byte = 'x';
  [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &byte, 1);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
  wake_fds_[0] = wake_fds_[1] = -1;
  port_.store(0, std::memory_order_release);
}

HttpExporter::~HttpExporter() { Stop(); }

}  // namespace telemetry
}  // namespace nde
