#pragma once
/// \file http.hpp
/// Minimal blocking HTTP/1.0 exposition endpoint for a MetricRegistry.
///
/// Deliberately tiny: plain POSIX sockets, one accept loop on a background
/// thread, one request per connection (`Connection: close`), four routes —
///
///   GET /metrics            → Prometheus text exposition (version 0.0.4)
///   GET /metrics.json       → the registry's JSON document
///   GET /healthz            → 200 + {"status":"ok","uptime_seconds":...}
///   GET /debug/traces.json  → the flight recorder's trace dump (404 when
///                             no recorder is attached)
///
/// Anything else is a 404; non-GET methods are a 405; a request line that
/// overflows the read buffer is a 400. Each connection gets a fixed 1 s
/// receive/send timeout, so a client that connects and sends nothing
/// delays later scrapes and stop() by at most that long. The server binds
/// 127.0.0.1 only —
/// this is an operator scrape port, not a public API — and `port 0` picks
/// an ephemeral port (read it back with port()), which is what the tests
/// use. Scrapes snapshot the registry per request, so a scrape never
/// blocks the solver hot path.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>

#include "util/metrics.hpp"

namespace dagsfc::serve {

class FlightRecorder;

class MetricsHttpServer {
 public:
  struct Options {
    /// Enables GET /debug/traces.json. The recorder must outlive the
    /// server (it normally belongs to the service the registry does).
    const FlightRecorder* flight = nullptr;
    /// Invoked before every /metrics and /metrics.json scrape — the hook
    /// for freshness work like util::ProcessMetrics::update().
    std::function<void()> before_scrape;
  };

  /// Binds and starts serving immediately; throws util::ContractViolation
  /// if the socket cannot be bound. The registry must outlive the server.
  MetricsHttpServer(const util::MetricRegistry& registry, std::uint16_t port);
  MetricsHttpServer(const util::MetricRegistry& registry, std::uint16_t port,
                    Options options);
  ~MetricsHttpServer();

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// The bound port — the actual one when constructed with port 0.
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Stops accepting and joins the serving thread. Idempotent.
  void stop();

 private:
  void serve_loop();
  void handle_connection(int client_fd);

  const util::MetricRegistry* registry_;
  Options opts_;
  std::chrono::steady_clock::time_point started_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace dagsfc::serve
