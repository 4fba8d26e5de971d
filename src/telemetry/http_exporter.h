#ifndef NDE_TELEMETRY_HTTP_EXPORTER_H_
#define NDE_TELEMETRY_HTTP_EXPORTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "common/status.h"

namespace nde {
namespace telemetry {

/// One parsed HTTP request, as handed to a custom handler. `target` has the
/// query string already split off; `body` is empty unless the client sent a
/// Content-Length body (bounded by HttpExporter::max_body_bytes).
struct HttpRequest {
  std::string method;       ///< "GET", "POST", "DELETE", ... (as sent)
  std::string target;       ///< path with the query string stripped
  std::string query;        ///< raw query string ("" when absent)
  std::string body;         ///< request body ("" when none was sent)
  std::string traceparent;  ///< raw `traceparent` header value ("" if absent)
};

/// Maps a request to complete HTTP response bytes. Build responses with
/// MakeHttpResponse so headers stay consistent with the built-in endpoints.
using HttpHandler = std::function<std::string(const HttpRequest&)>;

/// Builds a complete HTTP/1.1 response (status line, Content-Type,
/// Content-Length, Connection: close). Exposed for custom handlers.
std::string MakeHttpResponse(int status, const char* reason,
                             const std::string& content_type,
                             const std::string& body);

/// Minimal embedded HTTP/1.1 server exposing process observability, designed
/// for `nde_cli --serve PORT` and scrape-style clients (curl, Prometheus).
/// No third-party dependencies: POSIX sockets, one serving thread, requests
/// handled serially (scrapes are rare and cheap; concurrency would buy
/// nothing but locking).
///
/// Built-in endpoints (GET only; anything else is 404/405):
///   /healthz  -> 200 "ok\n" liveness probe
///   /metrics  -> Prometheus text exposition of the global MetricsRegistry
///   /varz     -> the same registry as JSON (MetricsSnapshot::ToJson)
///   /tracez   -> the buffer's fill and its newest 100 spans (WriteSpans)
///   /profilez -> the exact profile of every buffered span (per-name
///                self/total/max table) + allocation accounting;
///                /profilez?folded=1 downloads its folded stacks
///                (flamegraph.pl / speedscope input, self microseconds)
///
/// Serving-layer routes: a handler installed via SetHandler receives every
/// request (any method, with its body) whose target is /jobs, /jobs/<id>, or
/// /algorithmz — the importance-job API mounts here (see src/nde/job_api.h).
/// Built-in endpoints are never routed to the handler, so their responses
/// stay byte-identical whether or not one is installed.
///
/// The server binds 127.0.0.1 only — this is an introspection port, not a
/// public service. Start(0) picks an ephemeral port, readable via port().
class HttpExporter {
 public:
  /// Time a connection gets, counted from accept, to send its request and
  /// take the response (the handler's own run time is not charged); past it
  /// the connection is closed. Requests are served one at a time, so an
  /// idle or trickling client delays the others by at most this long.
  static constexpr int kConnectionDeadlineMs = 2000;

  HttpExporter() = default;
  ~HttpExporter();

  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the serving thread.
  /// Fails if already running or the bind/listen fails.
  Status Start(uint16_t port);

  /// Stops the serving thread and closes the socket. Safe to call twice or
  /// when never started; also invoked by the destructor.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (the actual one when Start was given 0); 0 if stopped.
  uint16_t port() const { return port_.load(std::memory_order_acquire); }

  /// Installs the serving-layer handler for the /jobs and /algorithmz
  /// routes. Call before Start(); the serving thread reads it unlocked.
  void SetHandler(HttpHandler handler) { handler_ = std::move(handler); }

  /// Request-body cap: a Content-Length above this is answered with 413
  /// before the body is read. Call before Start(). Default 1 MiB.
  void set_max_body_bytes(size_t bytes) { max_body_bytes_ = bytes; }
  size_t max_body_bytes() const { return max_body_bytes_; }

  /// Routes a full request through the built-in endpoints and the installed
  /// handler — the serving thread uses exactly this function. Exposed so
  /// tests can cover routing deterministically without sockets.
  ///
  /// This is the tracing ingress: a valid `request.traceparent` is adopted
  /// as the request's TraceContext (the caller-supplied trace id propagates
  /// through every span/log/metric the request produces), otherwise a fresh
  /// context is minted. Either way the context is installed around Route and
  /// removed before returning. Each dispatch also records its latency in the
  /// `http.request_us` histogram, labeled by normalized target and status
  /// class (2xx/4xx/...), visible in /metrics.
  std::string Dispatch(const HttpRequest& request) const;

  /// Pure request-line router over the built-in endpoints only (no handler,
  /// no body). The pre-serving-layer entry point, kept byte-identical for
  /// GET scrapes; prefer Dispatch for anything new.
  static std::string HandleRequest(const std::string& request_line);

 private:
  static std::string Route(const HttpRequest& request,
                           const HttpHandler* handler);
  void Serve();

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<uint16_t> port_{0};
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< self-pipe so Stop() interrupts poll()
  HttpHandler handler_;
  size_t max_body_bytes_ = size_t{1} << 20;
};

}  // namespace telemetry
}  // namespace nde

#endif  // NDE_TELEMETRY_HTTP_EXPORTER_H_
