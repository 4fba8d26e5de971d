#include "telemetry/http_exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/trace_context.h"
#include "importance/game_values.h"
#include "importance/utility.h"
#include "json_checker.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace nde {
namespace {

// Writes `request` verbatim to 127.0.0.1:port and returns the raw response
// bytes ("" on connect failure).
std::string SendRaw(uint16_t port, const std::string& request) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// One blocking HTTP GET against 127.0.0.1:port.
std::string HttpGet(uint16_t port, const std::string& path) {
  return SendRaw(port,
                 "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

std::string Body(const std::string& response) {
  size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

// --- Socket-free router coverage: every endpoint, deterministically. --------

TEST(HttpExporterRoutingTest, HealthzIsOk) {
  std::string response =
      telemetry::HttpExporter::HandleRequest("GET /healthz HTTP/1.1");
  EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
  EXPECT_EQ(Body(response), "ok\n");
}

TEST(HttpExporterRoutingTest, MetricsIsPrometheusText) {
  telemetry::MetricsRegistry::Global()
      .GetCounter("http_test.scraped")
      .Increment();
  std::string response =
      telemetry::HttpExporter::HandleRequest("GET /metrics HTTP/1.1");
  EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
  EXPECT_NE(response.find("text/plain"), std::string::npos) << response;
  std::string body = Body(response);
  // Prometheus exposition: names mapped to [a-zA-Z0-9_:], HELP/TYPE lines.
  EXPECT_NE(body.find("# TYPE http_test_scraped counter"), std::string::npos)
      << body;
  EXPECT_NE(body.find("http_test_scraped "), std::string::npos) << body;
}

TEST(HttpExporterRoutingTest, VarzIsValidJson) {
  std::string response =
      telemetry::HttpExporter::HandleRequest("GET /varz HTTP/1.1");
  EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
  std::string body = Body(response);
  ASSERT_FALSE(body.empty());
  if (body.back() == '\n') body.pop_back();
  EXPECT_TRUE(JsonChecker(body).Valid()) << body;
}

TEST(HttpExporterRoutingTest, TracezIsValidJson) {
  std::string response =
      telemetry::HttpExporter::HandleRequest("GET /tracez HTTP/1.1");
  EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
  std::string body = Body(response);
  ASSERT_FALSE(body.empty());
  if (body.back() == '\n') body.pop_back();
  EXPECT_TRUE(JsonChecker(body).Valid()) << body;
}

TEST(HttpExporterRoutingTest, QueryStringsAreStripped) {
  std::string response = telemetry::HttpExporter::HandleRequest(
      "GET /healthz?probe=1 HTTP/1.1");
  EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
  EXPECT_EQ(Body(response), "ok\n");
}

TEST(HttpExporterRoutingTest, VarzMergesFailpointCounters) {
  // /varz must export failpoint hit/fire counters alongside the ordinary
  // metrics: arm a point, hit it, and pin the JSON keys.
  ASSERT_TRUE(failpoint::Arm("http_varz.pin=error(unavailable:pin)").ok());
  ASSERT_TRUE(failpoint::Fire("http_varz.pin").fired());
  failpoint::DisarmAll();

  std::string response =
      telemetry::HttpExporter::HandleRequest("GET /varz HTTP/1.1");
  std::string body = Body(response);
  EXPECT_NE(body.find("\"failpoint.http_varz.pin.hits\""), std::string::npos)
      << body;
  EXPECT_NE(body.find("\"failpoint.http_varz.pin.fires\""), std::string::npos)
      << body;
  // Name-sorted export: the counters object must list the failpoint keys in
  // lexicographic order (fires before hits).
  size_t fires = body.find("failpoint.http_varz.pin.fires");
  size_t hits = body.find("failpoint.http_varz.pin.hits");
  EXPECT_LT(fires, hits);
}

TEST(HttpExporterRoutingTest, ProfilezServesTextAndFoldedStacks) {
  telemetry::TraceBuffer& buffer = telemetry::TraceBuffer::Global();
  buffer.Clear();
  telemetry::TraceEvent parent;
  parent.name = "profilez frame";
  parent.span_id = 1;
  parent.dur_us = 40;
  telemetry::TraceEvent child = parent;
  child.name = "child";
  child.span_id = 2;
  child.parent_span_id = 1;
  child.dur_us = 15;
  buffer.Record(parent);
  buffer.Record(child);

  std::string response =
      telemetry::HttpExporter::HandleRequest("GET /profilez HTTP/1.1");
  EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
  EXPECT_NE(response.find("text/plain"), std::string::npos);
  EXPECT_EQ(Body(response).rfind("profile: 2 spans, 0 dropped, 2 stacks\n", 0),
            0u)
      << Body(response);
  EXPECT_NE(Body(response).find("profilez frame"), std::string::npos)
      << Body(response);

  // ?folded=1 downloads the folded stacks: exactly the "stack self_us" lines.
  std::string folded = telemetry::HttpExporter::HandleRequest(
      "GET /profilez?folded=1 HTTP/1.1");
  EXPECT_EQ(folded.rfind("HTTP/1.1 200", 0), 0u) << folded;
  EXPECT_EQ(Body(folded), "profilez_frame 25\nprofilez_frame;child 15\n");
  buffer.Clear();
}

TEST(HttpExporterRoutingTest, UnknownPathIs404AndNonGetIs405) {
  EXPECT_EQ(telemetry::HttpExporter::HandleRequest("GET /nope HTTP/1.1")
                .rfind("HTTP/1.1 404", 0),
            0u);
  EXPECT_EQ(telemetry::HttpExporter::HandleRequest("POST /metrics HTTP/1.1")
                .rfind("HTTP/1.1 405", 0),
            0u);
  EXPECT_EQ(
      telemetry::HttpExporter::HandleRequest("").rfind("HTTP/1.1 4", 0), 0u)
      << "garbage request lines must still get an error response";
}

TEST(HttpExporterRoutingTest, EveryRequestCountsInTheRegistry) {
  telemetry::Counter& requests =
      telemetry::MetricsRegistry::Global().GetCounter(
          "http_exporter.requests");
  uint64_t before = requests.value();
  telemetry::HttpExporter::HandleRequest("GET /healthz HTTP/1.1");
  telemetry::HttpExporter::HandleRequest("GET /nope HTTP/1.1");
  EXPECT_EQ(requests.value(), before + 2);
}

// --- Real sockets: the ISSUE acceptance scenario. ---------------------------

TEST(HttpExporterTest, ServesScrapesWhileAnEstimatorRuns) {
  telemetry::HttpExporter exporter;
  ASSERT_TRUE(exporter.Start(0).ok());
  ASSERT_TRUE(exporter.running());
  uint16_t port = exporter.port();
  ASSERT_NE(port, 0);

  // Profile the run too: spans only exist with telemetry on.
  telemetry::SetEnabled(true);
  telemetry::TraceBuffer::Global().Clear();

  // A deliberately slow game keeps the estimator busy on another thread
  // while we scrape.
  class SlowGame : public UtilityFunction {
   public:
    double Evaluate(const std::vector<size_t>& subset) const override {
      double sum = 0.0;
      for (size_t i : subset) sum += static_cast<double>(i + 1);
      // Slow enough that the whole estimate spans tens of milliseconds, so
      // the scrapes below land mid-run.
      for (int spin = 0; spin < 2000; ++spin) {
        sum = std::sqrt(sum * sum + 1e-9);
      }
      return std::sqrt(sum);
    }
    size_t num_units() const override { return 12; }
  };
  SlowGame game;
  ImportanceEstimate estimate;
  std::thread estimator([&game, &estimate] {
    TmcShapleyOptions options;
    options.num_permutations = 96;
    options.seed = 5;
    estimate = TmcShapleyValues(game, options).value();
  });

  std::string health = HttpGet(port, "/healthz");
  EXPECT_EQ(health.rfind("HTTP/1.1 200", 0), 0u) << health;
  EXPECT_EQ(Body(health), "ok\n");

  std::string metrics = HttpGet(port, "/metrics");
  EXPECT_EQ(metrics.rfind("HTTP/1.1 200", 0), 0u);
  EXPECT_NE(Body(metrics).find("# TYPE"), std::string::npos);

  // /profilez answers mid-run, folding the spans closed so far.
  std::string profilez = HttpGet(port, "/profilez");
  EXPECT_EQ(profilez.rfind("HTTP/1.1 200", 0), 0u) << profilez;
  EXPECT_EQ(Body(profilez).rfind("profile: ", 0), 0u) << Body(profilez);

  std::string missing = HttpGet(port, "/definitely-not-here");
  EXPECT_EQ(missing.rfind("HTTP/1.1 404", 0), 0u);

  estimator.join();
  EXPECT_EQ(estimate.values.size(), 12u);
#if NDE_TELEMETRY_ENABLED
  // Once the run is over every one of its spans is in the fold. (Without
  // telemetry compiled in there are no spans to fold.)
  std::string folded = "\n" + Body(HttpGet(port, "/profilez?folded=1"));
  EXPECT_NE(folded.find("\nTmcShapleyValues "), std::string::npos) << folded;
  size_t permutation = folded.find(";tmc_permutation ");
  ASSERT_NE(permutation, std::string::npos) << folded;
  EXPECT_EQ(folded.rfind("\nTmcShapleyValues;", permutation),
            folded.rfind('\n', permutation))
      << folded;
#endif
  telemetry::TraceBuffer::Global().Clear();
  telemetry::SetEnabled(false);

  exporter.Stop();
  EXPECT_FALSE(exporter.running());
  EXPECT_EQ(exporter.port(), 0);
  exporter.Stop();  // Idempotent.
  EXPECT_TRUE(HttpGet(port, "/healthz").empty())
      << "stopped server must not answer";
}

TEST(HttpExporterTest, StartTwiceFailsAndRestartWorks) {
  telemetry::HttpExporter exporter;
  ASSERT_TRUE(exporter.Start(0).ok());
  EXPECT_FALSE(exporter.Start(0).ok()) << "double Start must fail";
  uint16_t first_port = exporter.port();
  exporter.Stop();
  ASSERT_TRUE(exporter.Start(0).ok());
  EXPECT_NE(exporter.port(), 0);
  std::string health = HttpGet(exporter.port(), "/healthz");
  EXPECT_EQ(health.rfind("HTTP/1.1 200", 0), 0u);
  (void)first_port;
  exporter.Stop();
}

// --- Request bodies and the handler hook (the job-API transport). -----------

/// One blocking request with an arbitrary method and body.
std::string HttpSend(uint16_t port, const std::string& method,
                     const std::string& path, const std::string& body) {
  return SendRaw(port, method + " " + path +
                           " HTTP/1.1\r\nHost: localhost\r\n"
                           "Content-Length: " +
                           std::to_string(body.size()) + "\r\n\r\n" + body);
}

TEST(HttpExporterTest, HandlerReceivesMethodTargetAndBody) {
  telemetry::HttpExporter exporter;
  exporter.SetHandler([](const telemetry::HttpRequest& request) {
    return telemetry::MakeHttpResponse(
        200, "OK", "text/plain",
        request.method + " " + request.target + " [" + request.body + "]\n");
  });
  ASSERT_TRUE(exporter.Start(0).ok());
  uint16_t port = exporter.port();

  std::string response = HttpSend(port, "POST", "/jobs", "hello body");
  EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
  EXPECT_EQ(Body(response), "POST /jobs [hello body]\n");

  // The handler owns /jobs/<id> and /algorithmz too...
  EXPECT_EQ(Body(HttpSend(port, "DELETE", "/jobs/job-1", "")),
            "DELETE /jobs/job-1 []\n");
  EXPECT_EQ(Body(HttpGet(port, "/algorithmz")), "GET /algorithmz []\n");
  // ...but never the built-in observability endpoints.
  std::string health = HttpGet(port, "/healthz");
  EXPECT_EQ(health.rfind("HTTP/1.1 200", 0), 0u);
  EXPECT_EQ(Body(health), "ok\n");
  exporter.Stop();
}

TEST(HttpExporterTest, OversizedBodyIs413) {
  telemetry::HttpExporter exporter;
  exporter.SetHandler([](const telemetry::HttpRequest&) {
    return telemetry::MakeHttpResponse(200, "OK", "text/plain", "unreached\n");
  });
  exporter.set_max_body_bytes(16);
  ASSERT_TRUE(exporter.Start(0).ok());
  uint16_t port = exporter.port();

  std::string big(17, 'x');
  std::string response = HttpSend(port, "POST", "/jobs", big);
  EXPECT_EQ(response.rfind("HTTP/1.1 413", 0), 0u) << response;

  std::string small(16, 'x');
  std::string accepted = HttpSend(port, "POST", "/jobs", small);
  EXPECT_EQ(accepted.rfind("HTTP/1.1 200", 0), 0u) << accepted;
  exporter.Stop();
}

/// A socket connected to 127.0.0.1:port whose reads and writes time out
/// after `timeout_ms`, so a server that never answers fails the test instead
/// of hanging it; -1 when the connect fails.
int ConnectWithTimeout(uint16_t port, int timeout_ms) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout{timeout_ms / 1000, (timeout_ms % 1000) * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(HttpExporterTest, IdleAndTricklingClientsDoNotStallHealthz) {
  // The exporter serves one connection at a time, so every connection gets
  // a fixed deadline from accept. A client that connects and sends nothing,
  // or one that trickles its request a byte at a time, may delay /healthz
  // from another socket by at most that deadline.
  using Clock = std::chrono::steady_clock;
  const int deadline_ms = telemetry::HttpExporter::kConnectionDeadlineMs;
  telemetry::HttpExporter exporter;
  exporter.SetHandler([](const telemetry::HttpRequest&) {
    return telemetry::MakeHttpResponse(200, "OK", "text/plain", "job\n");
  });
  ASSERT_TRUE(exporter.Start(0).ok());
  const uint16_t port = exporter.port();

  // Milliseconds until /healthz answered 200 on a fresh socket (the budget
  // when it never did).
  const int budget_ms = deadline_ms + 1000;
  auto healthz_ms = [&]() -> double {
    Clock::time_point start = Clock::now();
    int fd = ConnectWithTimeout(port, budget_ms);
    if (fd < 0) return budget_ms;
    std::string request = "GET /healthz HTTP/1.1\r\n\r\n";
    std::string response;
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(request.size())) {
      char buffer[512];
      ssize_t n;
      while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
        response.append(buffer, static_cast<size_t>(n));
      }
    }
    ::close(fd);
    if (response.rfind("HTTP/1.1 200", 0) != 0) return budget_ms;
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };

  // Idle: connected first, so the serving thread takes it before /healthz.
  int idle = ConnectWithTimeout(port, budget_ms);
  ASSERT_GE(idle, 0);
  EXPECT_LT(healthz_ms(), budget_ms) << "an idle client stalled /healthz";
  ::close(idle);

  // Trickling: a complete POST /jobs, one byte every 50 ms, ~5.5 s in all.
  // Each byte arrives well inside any per-read timeout; only a deadline
  // counted from accept cuts it off.
  int trickle = ConnectWithTimeout(port, budget_ms);
  ASSERT_GE(trickle, 0);
  std::thread trickler([trickle] {
    std::string request =
        "POST /jobs HTTP/1.1\r\nContent-Length: 64\r\n\r\n" +
        std::string(64, 'x');
    for (char byte : request) {
      if (::send(trickle, &byte, 1, MSG_NOSIGNAL) != 1) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LT(healthz_ms(), budget_ms) << "a trickling client stalled /healthz";
  ::shutdown(trickle, SHUT_RDWR);  // Ends the trickle on a live server too.
  trickler.join();
  ::close(trickle);
  exporter.Stop();
}

TEST(HttpExporterTest, MalformedContentLengthIs400) {
  telemetry::HttpExporter exporter;
  ASSERT_TRUE(exporter.Start(0).ok());

  std::string response =
      SendRaw(exporter.port(),
              "POST /jobs HTTP/1.1\r\nContent-Length: lots\r\n\r\nx");
  EXPECT_EQ(response.rfind("HTTP/1.1 400", 0), 0u) << response;
  exporter.Stop();
}

TEST(HttpExporterTest, HeaderNamesWithHighBytesKeepContentLength) {
  // Header names are matched case-insensitively; a name carrying a byte
  // >= 0x80 must not disturb that for the headers around it.
  telemetry::HttpExporter exporter;
  exporter.SetHandler([](const telemetry::HttpRequest& request) {
    return telemetry::MakeHttpResponse(200, "OK", "text/plain",
                                       "[" + request.body + "]\n");
  });
  ASSERT_TRUE(exporter.Start(0).ok());

  std::string response = SendRaw(exporter.port(),
                                 "POST /jobs HTTP/1.1\r\nX-Caf\xC3"
                                 "\xA9: 1\r\nCONTENT-LENGTH: 2\r\n\r\nhi");
  EXPECT_EQ(response.rfind("HTTP/1.1 200", 0), 0u) << response;
  EXPECT_EQ(Body(response), "[hi]\n") << response;
  exporter.Stop();
}

TEST(HttpExporterRoutingTest, DispatchWithoutHandlerMatchesHandleRequest) {
  // The GET surface must be byte-identical whether a request arrives through
  // the legacy request-line entry point or the structured dispatch path.
  // (/metrics and /varz are excluded only because their bodies embed the
  // ever-incrementing request counter.)
  for (const char* path : {"/healthz", "/nope", "/jobs", "/algorithmz"}) {
    telemetry::HttpRequest request;
    request.method = "GET";
    request.target = path;
    telemetry::HttpExporter exporter;
    EXPECT_EQ(exporter.Dispatch(request),
              telemetry::HttpExporter::HandleRequest(
                  std::string("GET ") + path + " HTTP/1.1"))
        << path;
  }
}

// --- Tracing ingress and per-endpoint latency --------------------------------

TEST(HttpExporterRoutingTest, DispatchAdoptsValidTraceparentAndMintsOtherwise) {
  telemetry::HttpExporter exporter;
  exporter.SetHandler([](const telemetry::HttpRequest&) {
    return telemetry::MakeHttpResponse(
        200, "OK", "text/plain", TraceIdHex(CurrentTraceContext()) + "\n");
  });
  telemetry::HttpRequest request;
  request.method = "POST";
  request.target = "/jobs";
  request.traceparent =
      "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";
  EXPECT_EQ(Body(exporter.Dispatch(request)),
            "4bf92f3577b34da6a3ce929d0e0e4736\n");
  // An invalid header is never adopted: a fresh nonzero context is minted.
  request.traceparent = "not-a-traceparent";
  std::string minted = Body(exporter.Dispatch(request));
  ASSERT_EQ(minted.size(), 33u) << minted;
  EXPECT_NE(minted, "4bf92f3577b34da6a3ce929d0e0e4736\n");
  EXPECT_NE(minted, std::string(32, '0') + "\n");
  // The ingress context is uninstalled again once the dispatch returns.
  EXPECT_FALSE(HasTraceContext());
}

TEST(HttpExporterRoutingTest, DispatchRecordsLabeledRequestLatency) {
  telemetry::HttpExporter exporter;
  telemetry::HttpRequest request;
  request.method = "GET";
  request.target = "/healthz";
  exporter.Dispatch(request);
  request.target = "/jobs/job-123";  // id-bearing, no handler mounted -> 404
  exporter.Dispatch(request);

  telemetry::MetricsSnapshot snapshot =
      telemetry::MetricsRegistry::Global().Snapshot();
  // Labeled series collapse job ids to a fixed route-shape vocabulary, and
  // the unlabeled aggregate counts every dispatch.
  EXPECT_GE(snapshot.histograms
                .at("http.request_us{status=\"2xx\",target=\"/healthz\"}")
                .count,
            1u);
  EXPECT_GE(snapshot.histograms
                .at("http.request_us{status=\"4xx\",target=\"/jobs/<id>\"}")
                .count,
            1u);
  EXPECT_GE(snapshot.histograms.at("http.request_us").count, 2u);

  // Pinned Prometheus rendering: labeled samples merge their labels with the
  // le=/quantile= extras, under a single TYPE declaration per family.
  std::string prom = telemetry::MetricsRegistry::Global().ToPrometheusText();
  EXPECT_NE(
      prom.find("http_request_us_count{status=\"2xx\",target=\"/healthz\"}"),
      std::string::npos)
      << prom;
  EXPECT_NE(prom.find("http_request_us_bucket{status=\"2xx\","
                      "target=\"/healthz\",le=\"+Inf\"}"),
            std::string::npos)
      << prom;
  size_t first = prom.find("# TYPE http_request_us histogram");
  ASSERT_NE(first, std::string::npos) << prom;
  EXPECT_EQ(prom.find("# TYPE http_request_us histogram", first + 1),
            std::string::npos);
}

TEST(HttpExporterTest, TraceparentHeaderIsCapturedFromTheWire) {
  telemetry::HttpExporter exporter;
  exporter.SetHandler([](const telemetry::HttpRequest& request) {
    return telemetry::MakeHttpResponse(200, "OK", "text/plain",
                                       "[" + request.traceparent + "]\n");
  });
  ASSERT_TRUE(exporter.Start(0).ok());

  std::string tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";
  // Mixed-case header name: HTTP headers are case-insensitive on the wire.
  std::string response = SendRaw(
      exporter.port(),
      "POST /jobs HTTP/1.1\r\nHost: localhost\r\nTraceparent: " + tp +
          "\r\nContent-Length: 2\r\n\r\nhi");
  EXPECT_EQ(Body(response), "[" + tp + "]\n") << response;
  exporter.Stop();
}

TEST(HttpExporterRoutingTest, JobPathsWithoutHandlerAre404) {
  // Without a mounted job manager the serving paths fall through to the
  // pre-existing 404, not a crash or an empty response.
  std::string response =
      telemetry::HttpExporter::HandleRequest("GET /jobs HTTP/1.1");
  EXPECT_EQ(response.rfind("HTTP/1.1 404", 0), 0u);
  EXPECT_EQ(Body(response),
            "unknown path; try /healthz /metrics /varz /tracez /profilez\n");
}

}  // namespace
}  // namespace nde
