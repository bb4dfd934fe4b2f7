/// MetricsHttpServer route and error-path tests: /healthz, the 404 / 405 /
/// 400-oversized-request-line responses, /debug/traces.json with and
/// without an attached flight recorder, the before_scrape hook keeping
/// util::ProcessMetrics (dagsfc_build_info + dagsfc_uptime_seconds) fresh
/// in the exposition, and an idle client that must not stall later
/// scrapes or stop().

#include "serve/http.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>

#include "serve/trace.hpp"
#include "util/build_info.hpp"
#include "util/metrics.hpp"

namespace dagsfc::serve {
namespace {

/// Opens a loopback connection to \p port. Reads on it give up after 5 s,
/// so a server that never answers fails the test instead of hanging it.
int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  return fd;
}

/// Sends \p request verbatim and returns the whole response (headers+body).
std::string raw_request(std::uint16_t port, const std::string& request) {
  const int fd = connect_to(port);
  EXPECT_EQ(::write(fd, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  ::shutdown(fd, SHUT_WR);
  std::string out;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

std::string http_get(std::uint16_t port, const std::string& path) {
  return raw_request(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

std::string body_of(const std::string& response) {
  const std::size_t sep = response.find("\r\n\r\n");
  EXPECT_NE(sep, std::string::npos);
  return sep == std::string::npos ? std::string{} : response.substr(sep + 4);
}

TEST(MetricsHttp, HealthzReportsOkAndUptime) {
  const util::MetricRegistry registry;
  const MetricsHttpServer server(registry, 0);
  const std::string resp = http_get(server.port(), "/healthz");
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("Content-Type: application/json"), std::string::npos);
  const std::string body = body_of(resp);
  EXPECT_NE(body.find("{\"status\":\"ok\",\"uptime_seconds\":"),
            std::string::npos);
}

TEST(MetricsHttp, IdleClientDoesNotStallScrapesOrStop) {
  const util::MetricRegistry registry;
  MetricsHttpServer server(registry, 0);
  // Connects and never sends a byte. Connections are served in accept
  // order, so the scrape below queues behind it.
  const int idle = connect_to(server.port());
  const std::string resp = http_get(server.port(), "/healthz");
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);

  // stop() while the server is reading from another silent client.
  const int idle2 = connect_to(server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto stopped = std::async(std::launch::async, [&server] { server.stop(); });
  EXPECT_EQ(stopped.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  // Hanging up releases a server that would otherwise wait forever.
  ::close(idle);
  ::close(idle2);
  stopped.get();
}

TEST(MetricsHttp, UnknownPathIs404) {
  const util::MetricRegistry registry;
  const MetricsHttpServer server(registry, 0);
  const std::string resp = http_get(server.port(), "/nope");
  EXPECT_NE(resp.find("HTTP/1.0 404 Not Found"), std::string::npos);
  EXPECT_EQ(body_of(resp), "not found\n");
}

TEST(MetricsHttp, NonGetMethodIs405) {
  const util::MetricRegistry registry;
  const MetricsHttpServer server(registry, 0);
  const std::string resp =
      raw_request(server.port(), "POST /metrics HTTP/1.0\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.0 405 Method Not Allowed"), std::string::npos);
  EXPECT_EQ(body_of(resp), "method not allowed\n");
}

TEST(MetricsHttp, OversizedRequestLineIs400) {
  const util::MetricRegistry registry;
  const MetricsHttpServer server(registry, 0);
  // A request line that alone overflows the server's 4 KiB read buffer —
  // no "\r\n" anywhere in what the server can read.
  const std::string resp = raw_request(
      server.port(), "GET /" + std::string(8192, 'a') + " HTTP/1.0\r\n\r\n");
  EXPECT_NE(resp.find("HTTP/1.0 400 Bad Request"), std::string::npos);
  EXPECT_EQ(body_of(resp), "request line too long\n");
}

TEST(MetricsHttp, DebugTracesIs404WithoutAFlightRecorder) {
  const util::MetricRegistry registry;
  const MetricsHttpServer server(registry, 0);
  const std::string resp = http_get(server.port(), "/debug/traces.json");
  EXPECT_NE(resp.find("HTTP/1.0 404 Not Found"), std::string::npos);
}

TEST(MetricsHttp, DebugTracesServesTheFlightDump) {
  const util::MetricRegistry registry;
  FlightRecorder flight(4);
  FlightTrace t;
  t.trace_id = 42;
  t.triggers = kTriggerLatency;
  t.outcome = Outcome::Accepted;
  t.latency_ms = 12.5;
  flight.promote(std::move(t));

  MetricsHttpServer::Options opts;
  opts.flight = &flight;
  const MetricsHttpServer server(registry, 0, opts);
  const std::string resp = http_get(server.port(), "/debug/traces.json");
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("Content-Type: application/json"), std::string::npos);
  EXPECT_EQ(body_of(resp), flight.to_json());
  EXPECT_NE(body_of(resp).find("\"trace_id\":42"), std::string::npos);
}

TEST(MetricsHttp, BeforeScrapeHookKeepsProcessMetricsFresh) {
  util::MetricRegistry registry;
  const util::ProcessMetrics process(registry);

  std::atomic<int> scrapes{0};
  MetricsHttpServer::Options opts;
  opts.before_scrape = [&] {
    process.update();
    scrapes.fetch_add(1);
  };
  const MetricsHttpServer server(registry, 0, opts);

  const std::string prom = body_of(http_get(server.port(), "/metrics"));
  EXPECT_EQ(scrapes.load(), 1);
  // The info-metric idiom: build identity as labels, value pinned to 1.
  EXPECT_NE(prom.find("dagsfc_build_info{"), std::string::npos);
  EXPECT_NE(prom.find("version=\"" + util::build_info().version + "\""),
            std::string::npos);
  EXPECT_NE(prom.find("flags=\"" + util::build_info().flags + "\""),
            std::string::npos);
  EXPECT_NE(prom.find("dagsfc_uptime_seconds"), std::string::npos);

  (void)http_get(server.port(), "/metrics.json");
  EXPECT_EQ(scrapes.load(), 2);
  // The hook is a scrape-path concern: /healthz must not run it.
  (void)http_get(server.port(), "/healthz");
  EXPECT_EQ(scrapes.load(), 2);
}

}  // namespace
}  // namespace dagsfc::serve
