#include "serve/http.hpp"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>

#include "serve/trace.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace dagsfc::serve {

namespace {

/// Receive and send timeout on every accepted connection. Connections are
/// served one at a time on the accept thread, so a client that connects and
/// then goes quiet would otherwise hold up every later scrape and stop();
/// with the timeout it costs them at most this long. A scraper on loopback
/// sends its request line at once, so this is far above any honest wait.
constexpr auto kClientIoTimeout = std::chrono::seconds(1);

/// Writes the whole buffer, retrying on short writes and EINTR. Returns
/// false on a hard error (peer went away — nothing useful to do).
bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string make_response(int status, const char* reason,
                          const std::string& content_type,
                          const std::string& body) {
  std::ostringstream os;
  os << "HTTP/1.0 " << status << ' ' << reason << "\r\n"
     << "Content-Type: " << content_type << "\r\n"
     << "Content-Length: " << body.size() << "\r\n"
     << "Connection: close\r\n\r\n"
     << body;
  return os.str();
}

}  // namespace

MetricsHttpServer::MetricsHttpServer(const util::MetricRegistry& registry,
                                     std::uint16_t port)
    : MetricsHttpServer(registry, port, Options{}) {}

MetricsHttpServer::MetricsHttpServer(const util::MetricRegistry& registry,
                                     std::uint16_t port, Options options)
    : registry_(&registry),
      opts_(std::move(options)),
      started_(std::chrono::steady_clock::now()) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  DAGSFC_CHECK_MSG(listen_fd_ >= 0, "metrics endpoint: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // operator-only: loopback
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    DAGSFC_CHECK_MSG(false, "metrics endpoint: cannot listen on 127.0.0.1:" +
                                std::to_string(port) + " (" +
                                std::strerror(err) + ")");
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  thread_ = std::thread([this] { serve_loop(); });
  DAGSFC_INFO("metrics endpoint listening on 127.0.0.1:" << port_);
}

MetricsHttpServer::~MetricsHttpServer() { stop(); }

void MetricsHttpServer::stop() {
  if (stop_.exchange(true)) return;
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void MetricsHttpServer::serve_loop() {
  // Poll with a short timeout so stop() is observed promptly; the accept
  // itself never blocks indefinitely.
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/200);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the stop flag
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(kClientIoTimeout.count());
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    handle_connection(client);
    ::close(client);
  }
}

void MetricsHttpServer::handle_connection(int client_fd) {
  // One small request per connection; 4 KiB is plenty for "GET /metrics".
  // A client that sends nothing within kClientIoTimeout reads as n < 0
  // (EAGAIN) and is dropped without a response.
  char buf[4096];
  const ssize_t n = ::read(client_fd, buf, sizeof(buf) - 1);
  if (n <= 0) return;
  buf[n] = '\0';
  const std::string request(buf);

  const std::size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos &&
      static_cast<std::size_t>(n) == sizeof(buf) - 1) {
    // The request line alone overflowed the buffer — reject rather than
    // parse a truncated path.
    write_all(client_fd, make_response(400, "Bad Request", "text/plain",
                                       "request line too long\n"));
    return;
  }
  const std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);
  std::istringstream is(line);
  std::string method, path;
  is >> method >> path;

  std::string resp;
  if (method != "GET") {
    resp = make_response(405, "Method Not Allowed", "text/plain",
                         "method not allowed\n");
  } else if (path == "/metrics") {
    if (opts_.before_scrape) opts_.before_scrape();
    resp = make_response(200, "OK", "text/plain; version=0.0.4",
                         registry_->expose_prometheus());
  } else if (path == "/metrics.json") {
    if (opts_.before_scrape) opts_.before_scrape();
    resp = make_response(200, "OK", "application/json",
                         registry_->expose_json());
  } else if (path == "/healthz") {
    const double uptime = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - started_)
                              .count();
    resp = make_response(200, "OK", "application/json",
                         "{\"status\":\"ok\",\"uptime_seconds\":" +
                             util::json_number(uptime) + "}");
  } else if (path == "/debug/traces.json" && opts_.flight != nullptr) {
    resp = make_response(200, "OK", "application/json",
                         opts_.flight->to_json());
  } else {
    resp = make_response(404, "Not Found", "text/plain", "not found\n");
  }
  write_all(client_fd, resp);
}

}  // namespace dagsfc::serve
