/// Telemetry-plane tests: instrument semantics and identity, byte-stable
/// exposition independent of registration/increment order, the metric-name
/// lint over every registry the codebase actually populates, the zero-
/// allocation increment contract (counting global operator new), exact
/// multi-thread stripe merging (the TSan target of scripts/check.sh), the
/// delta reporter, and an HTTP round-trip: scrape a live /metrics endpoint
/// and parse the Prometheus text back into the same counter values as the
/// in-process MetricsSnapshot.

#include "util/metrics.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/backtracking.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"
#include "sim/runner.hpp"
#include "test_helpers.hpp"
#include "util/build_info.hpp"
#include "util/check.hpp"

namespace {
/// Counts every path into the global allocator. Only read as a delta
/// around single-threaded regions, so unrelated allocations don't matter.
std::atomic<std::size_t> g_news{0};

void* counted_alloc(std::size_t size) {
  ++g_news;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  ++g_news;
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dagsfc::util {
namespace {

// ---------------------------------------------------------- instruments --

TEST(Metrics, CounterGaugeHistogramBasics) {
  MetricRegistry reg;
  Counter c = reg.counter("dagsfc_test_events_total");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);

  Gauge g = reg.gauge("dagsfc_test_depth");
  g.set(3.0);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);

  HistogramMetric h = reg.histogram("dagsfc_test_ms", {}, 1e-3, 1e6);
  h.observe(2.0);
  h.observe(40.0);
  const Histogram snap = h.snapshot();
  EXPECT_EQ(snap.count(), 2u);
  EXPECT_DOUBLE_EQ(snap.sum(), 42.0);
  EXPECT_DOUBLE_EQ(snap.min(), 2.0);
  EXPECT_DOUBLE_EQ(snap.max(), 40.0);
}

TEST(Metrics, DefaultHandlesAreNoOpSinks) {
  Counter c;
  Gauge g;
  HistogramMetric h;
  c.inc();
  g.set(7.0);
  g.add(1.0);
  h.observe(1.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.snapshot().count(), 0u);
}

TEST(Metrics, SameIdentityReturnsSameInstrument) {
  MetricRegistry reg;
  Counter a = reg.counter("dagsfc_test_total", {{"k", "v"}});
  // Label order is canonicalized, so a permuted label list is the same
  // identity.
  Counter b = reg.counter("dagsfc_test_total", {{"k", "v"}});
  a.inc(2);
  b.inc(3);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 5u);
  EXPECT_EQ(reg.snapshot().samples.size(), 1u);
}

TEST(Metrics, KindAndLayoutMismatchesThrow) {
  MetricRegistry reg;
  (void)reg.counter("dagsfc_test_total");
  EXPECT_THROW((void)reg.gauge("dagsfc_test_total"), ContractViolation);
  (void)reg.histogram("dagsfc_test_ms", {}, 1e-3, 1e6);
  EXPECT_THROW((void)reg.histogram("dagssfc_bad name"), ContractViolation);
  // Same name, different bucket layout: a silent re-use would mix buckets.
  EXPECT_THROW((void)reg.histogram("dagsfc_test_ms", {}, 1e-1, 1e3),
               ContractViolation);
}

TEST(Metrics, NameLintRejectsNonConvention) {
  EXPECT_TRUE(valid_metric_name("dagsfc_serve_accepted_total"));
  EXPECT_TRUE(valid_metric_name("dagsfc_phase_seconds"));
  EXPECT_FALSE(valid_metric_name("serve_accepted_total"));  // missing prefix
  EXPECT_FALSE(valid_metric_name("dagsfc_Accepted_total"));  // uppercase
  EXPECT_FALSE(valid_metric_name("dagsfc_accepted-total"));  // dash
  EXPECT_FALSE(valid_metric_name("dagsfc_"));                // empty stem
  MetricRegistry reg;
  EXPECT_THROW((void)reg.counter("requests_total"), ContractViolation);
}

TEST(Metrics, DuplicateAndEmptyLabelKeysThrow) {
  MetricRegistry reg;
  EXPECT_THROW(
      (void)reg.counter("dagsfc_test_total", {{"k", "a"}, {"k", "b"}}),
      ContractViolation);
  EXPECT_THROW((void)reg.counter("dagsfc_test_total", {{"", "x"}}),
               ContractViolation);
}

TEST(Metrics, FormatPercent) {
  EXPECT_EQ(format_percent(0.0), "0.0%");
  EXPECT_EQ(format_percent(0.973), "97.3%");
  EXPECT_EQ(format_percent(1.0), "100.0%");
}

// ----------------------------------------------------------- exposition --

/// Two registries built with different registration order, label-list
/// order, and increment interleaving but identical final (identity, value)
/// sets must expose identical bytes in both formats.
TEST(Metrics, ExpositionBytesIndependentOfOrder) {
  MetricRegistry a;
  {
    Counter c1 = a.counter("dagsfc_alpha_total", {{"algo", "mbbe"}});
    Counter c2 = a.counter("dagsfc_alpha_total", {{"algo", "ranv"}});
    Gauge g = a.gauge("dagsfc_beta_ratio", {{"x", "1"}, {"y", "2"}});
    HistogramMetric h = a.histogram("dagsfc_gamma_ms", {}, 1e-3, 1e6);
    c1.inc(7);
    c2.inc(3);
    g.set(0.5);
    h.observe(1.0);
    h.observe(10.0);
  }
  MetricRegistry b;
  {
    HistogramMetric h = b.histogram("dagsfc_gamma_ms", {}, 1e-3, 1e6);
    // Labels handed over in reverse order: same identity after
    // canonicalization.
    Gauge g = b.gauge("dagsfc_beta_ratio", {{"y", "2"}, {"x", "1"}});
    Counter c2 = b.counter("dagsfc_alpha_total", {{"algo", "ranv"}});
    Counter c1 = b.counter("dagsfc_alpha_total", {{"algo", "mbbe"}});
    h.observe(1.0);
    c2.inc(1);
    c1.inc(7);
    c2.inc(2);
    h.observe(10.0);
    g.set(0.25);
    g.set(0.5);  // last write wins, same final value as registry a
  }
  EXPECT_EQ(a.expose_prometheus(), b.expose_prometheus());
  EXPECT_EQ(a.expose_json(), b.expose_json());
}

TEST(Metrics, PrometheusRendersAllThreeKinds) {
  MetricRegistry reg;
  reg.counter("dagsfc_events_total", {{"algo", "mbbe"}}).inc(5);
  reg.gauge("dagsfc_depth").set(2.5);
  HistogramMetric h = reg.histogram("dagsfc_lat_ms", {}, 1e-3, 1e6);
  h.observe(1.0);
  const std::string text = reg.expose_prometheus();
  EXPECT_NE(text.find("# TYPE dagsfc_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("dagsfc_events_total{algo=\"mbbe\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dagsfc_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("dagsfc_depth 2.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dagsfc_lat_ms histogram"), std::string::npos);
  EXPECT_NE(text.find("dagsfc_lat_ms_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("dagsfc_lat_ms_sum 1"), std::string::npos);
  EXPECT_NE(text.find("dagsfc_lat_ms_count 1"), std::string::npos);

  const std::string json = reg.expose_json();
  EXPECT_NE(json.find("\"name\":\"dagsfc_events_total\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
}

// ------------------------------------------------------------ exemplars --

TEST(Metrics, ExemplarTracksTheBucketsWorstValue) {
  MetricRegistry reg;
  HistogramMetric h = reg.histogram("dagsfc_lat_ms", {}, 1e-3, 1e6);
  // Two observations in one bucket: the larger one owns the exemplar.
  h.observe_exemplar(1.00, 7);
  h.observe_exemplar(1.05, 8);
  h.observe_exemplar(1.01, 9);  // smaller — must not steal it
  // And one far away, in its own bucket.
  h.observe_exemplar(500.0, 4);

  const RegistrySnapshot snap = reg.snapshot();
  const MetricSample* s = snap.find("dagsfc_lat_ms");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->exemplars.size(), 2u);  // only buckets that have one
  EXPECT_LT(s->exemplars[0].bucket, s->exemplars[1].bucket);  // bucket order
  EXPECT_DOUBLE_EQ(s->exemplars[0].value, 1.05);
  EXPECT_EQ(s->exemplars[0].trace_id, 8u);
  EXPECT_DOUBLE_EQ(s->exemplars[1].value, 500.0);
  EXPECT_EQ(s->exemplars[1].trace_id, 4u);

  // A repeat of the exact worst value refreshes the id (>= semantics): the
  // most recent worst request is the one worth grepping the flight dump
  // for.
  h.observe_exemplar(1.05, 12);
  const RegistrySnapshot snap2 = reg.snapshot();
  const MetricSample* s2 = snap2.find("dagsfc_lat_ms");
  ASSERT_NE(s2, nullptr);
  EXPECT_EQ(s2->exemplars[0].trace_id, 12u);

  // Counts are shared with plain observe(): the exemplar path is the same
  // histogram, not a parallel one.
  EXPECT_EQ(s2->histogram.count(), 5u);
}

TEST(Metrics, ExemplarsChangeJsonButNotPrometheusBytes) {
  // Two registries fed identical values, one tagging exemplars. The
  // Prometheus 0.0.4 text has no exemplar syntax, so its bytes must be
  // identical; the JSON document is where the exemplars surface.
  MetricRegistry plain;
  MetricRegistry tagged;
  HistogramMetric hp = plain.histogram("dagsfc_lat_ms", {}, 1e-3, 1e6);
  HistogramMetric ht = tagged.histogram("dagsfc_lat_ms", {}, 1e-3, 1e6);
  for (int i = 1; i <= 10; ++i) {
    hp.observe(static_cast<double>(i));
    ht.observe_exemplar(static_cast<double>(i),
                        static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(plain.expose_prometheus(), tagged.expose_prometheus());
  EXPECT_EQ(plain.expose_json().find("\"exemplars\""), std::string::npos);
  const std::string json = tagged.expose_json();
  const std::size_t at = json.find("\"exemplars\":[");
  ASSERT_NE(at, std::string::npos);
  // The largest observation's id rides the dump.
  EXPECT_NE(json.find("\"trace_id\":10", at), std::string::npos);
  // And the snapshots proper stay bitwise-comparable — exemplars live
  // registry-side only, never in util::Histogram.
  EXPECT_TRUE(hp.snapshot() == ht.snapshot());
}

TEST(Metrics, NoOpHistogramHandleIgnoresExemplars) {
  HistogramMetric h;
  h.observe_exemplar(1.0, 1);  // must not crash on the default handle
  EXPECT_EQ(h.snapshot().count(), 0u);
}

// ----------------------------------------------------------- name lint --

/// The Prometheus-clean namespace, ^dagsfc_[a-z0-9_]+$: the prefix, then
/// lower-case letters, digits and underscores (the unit suffixes _total,
/// _seconds, _bytes and _ratio are spelled in that alphabet). Hand-written
/// rather than std::regex, whose GCC 12 implementation trips
/// -Wmaybe-uninitialized inside <regex> under the ASan build's -Werror.
bool matches_convention(const std::string& name) {
  constexpr std::string_view prefix = "dagsfc_";
  return name.size() > prefix.size() && name.starts_with(prefix) &&
         std::all_of(name.begin() + prefix.size(), name.end(), [](char c) {
           return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_';
         });
}

/// Every name that actually lands in a registry — the serve layer's
/// instruments (a three-shard service's per-shard labelled families
/// included), the sim roll-up, and the phase meters — stays within the
/// Prometheus-clean namespace.
TEST(Metrics, AllRegisteredNamesMatchConvention) {
  std::vector<RegistrySnapshot> snapshots;

  serve::ServiceMetrics service_metrics;
  serve::Response r;
  r.outcome = serve::Outcome::Accepted;
  r.cost = 10.0;
  r.solves = 2;
  service_metrics.on_submitted();
  service_metrics.on_response(r);
  service_metrics.on_slow_solve();
  snapshots.push_back(service_metrics.registry().snapshot());

  MetricRegistry sim_registry;
  sim::AlgorithmStats stats;
  stats.name = "mbbe";
  stats.successes = 3;
  stats.failures = 1;
  stats.trace.decision_events = 5;  // force the trace family in too
  sim::fill_registry({stats}, sim_registry, "n=10");
  snapshots.push_back(sim_registry.snapshot());

  MetricRegistry phase_registry;
  {
    const PhaseMeter meter(phase_registry, "solve/mbbe");
    meter.record(0.001);
  }
  snapshots.push_back(phase_registry.snapshot());

  serve::ServiceMetrics shard_metrics(3);
  shard_metrics.on_submitted();
  shard_metrics.on_cross_region();
  shard::CommitResult commit;
  commit.ok = true;
  commit.path = shard::CommitPath::kStamp;
  commit.touched = {0, 2};
  shard_metrics.on_commit(commit);
  shard_metrics.set_queue_depth(1, 4);
  snapshots.push_back(shard_metrics.registry().snapshot());

  // Process identity (dagsfc_build_info{version=,flags=} +
  // dagsfc_uptime_seconds), linted through an injected registry — the CLIs
  // register the same pair on the global one.
  MetricRegistry process_registry;
  const ProcessMetrics process_metrics(process_registry);
  process_metrics.update();
  snapshots.push_back(process_registry.snapshot());

  std::size_t checked = 0;
  for (const RegistrySnapshot& snap : snapshots) {
    ASSERT_FALSE(snap.samples.empty());
    for (const MetricSample& s : snap.samples) {
      EXPECT_TRUE(matches_convention(s.name))
          << "metric name violates convention: " << s.name;
      ++checked;
    }
  }
  EXPECT_GE(checked, 25u);  // the serve layer alone registers 17

  // The process identity must actually be in what was linted.
  const auto linted = [&](const char* name) {
    for (const RegistrySnapshot& snap : snapshots) {
      for (const MetricSample& s : snap.samples) {
        if (s.name == name) return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(linted("dagsfc_build_info"));
  EXPECT_TRUE(linted("dagsfc_uptime_seconds"));
}

// ------------------------------------------------------------ hot path --

TEST(Metrics, IncrementHotPathAllocatesNothing) {
  MetricRegistry reg;
  Counter c = reg.counter("dagsfc_hot_total");
  Gauge g = reg.gauge("dagsfc_hot_depth");
  HistogramMetric h = reg.histogram("dagsfc_hot_ms", {}, 1e-3, 1e6);
  // Warm up: deal this thread its counter stripe and touch every cell.
  c.inc();
  g.set(1.0);
  g.add(1.0);
  h.observe(1.0);

  const std::size_t before = g_news.load();
  for (int i = 0; i < 1000; ++i) {
    c.inc();
    g.set(static_cast<double>(i));
    g.add(0.5);
    h.observe(static_cast<double>(i) + 0.25);
  }
  EXPECT_EQ(g_news.load() - before, 0u);
}

// ------------------------------------------------------------ threading --

/// The TSan shard-merge target: concurrent increments from 8 threads must
/// be exact (counters/bucket counts are integers; no lost updates), and the
/// histogram moments must see every observation.
TEST(MetricsThreads, EightThreadStripeMergeIsExact) {
  MetricRegistry reg;
  Counter c = reg.counter("dagsfc_stress_total");
  Gauge g = reg.gauge("dagsfc_stress_depth");
  HistogramMetric h = reg.histogram("dagsfc_stress_ms", {}, 1e-3, 1e6);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        g.add(1.0);
        h.observe(t + 1.0);  // exact in double: the sum has one true value
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kThreads) * kPerThread);
  const Histogram snap = h.snapshot();
  EXPECT_EQ(snap.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Σ t·kPerThread for t=1..8 — integers, so the float sum is exact
  // regardless of addition order.
  EXPECT_DOUBLE_EQ(snap.sum(), kPerThread * (1.0 + 2 + 3 + 4 + 5 + 6 + 7 + 8));
  EXPECT_DOUBLE_EQ(snap.min(), 1.0);
  EXPECT_DOUBLE_EQ(snap.max(), 8.0);
}

// -------------------------------------------------------- HTTP endpoint --

std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
      0);
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  EXPECT_EQ(::write(fd, req.data(), req.size()),
            static_cast<ssize_t>(req.size()));
  std::string out;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

/// "name value" and "name{labels} value" lines → value, ignoring comments.
std::uint64_t parse_prom_counter(const std::string& body,
                                 const std::string& name) {
  std::istringstream is(body);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    std::string id = line.substr(0, space);
    const std::size_t brace = id.find('{');
    if (brace != std::string::npos) id.resize(brace);
    if (id == name) {
      return static_cast<std::uint64_t>(
          std::strtoull(line.c_str() + space + 1, nullptr, 10));
    }
  }
  ADD_FAILURE() << "metric not found in exposition: " << name;
  return 0;
}

/// Drives real traffic through an EmbeddingService, scrapes the live
/// /metrics endpoint, and checks the Prometheus text parses back to the
/// same counter values as the in-process MetricsSnapshot.
TEST(MetricsHttp, ScrapeRoundTripsServiceCounters) {
  const net::Network network = test::NetBuilder(3, 1)
                                   .link(0, 1, 8.0, 10.0)
                                   .link(1, 2, 8.0, 10.0)
                                   .put(1, 1, 5.0, 8.0)
                                   .build();
  const core::MbbeEmbedder mbbe;
  serve::EmbeddingService service(network, mbbe, {});
  const serve::MetricsHttpServer server(service.metrics_registry(),
                                        /*port=*/0);
  ASSERT_GT(server.port(), 0);

  for (int i = 0; i < 6; ++i) {
    serve::Request req;
    req.id = static_cast<serve::RequestId>(i + 1);
    req.sfc = sfc::DagSfc({sfc::Layer{{1}}});
    // Rate 2 against capacity 8: four accepts, then two infeasible.
    req.flow = core::Flow{0, 2, 2.0, 1.0};
    (void)service.submit(std::move(req)).get();
  }
  const serve::MetricsSnapshot snap = service.metrics();
  EXPECT_EQ(snap.accepted, 4u);
  EXPECT_EQ(snap.rejected_infeasible, 2u);

  const std::string resp = http_get(server.port(), "/metrics");
  EXPECT_NE(resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(resp.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const std::string body = resp.substr(resp.find("\r\n\r\n") + 4);
  EXPECT_EQ(parse_prom_counter(body, "dagsfc_serve_submitted_total"),
            snap.submitted);
  EXPECT_EQ(parse_prom_counter(body, "dagsfc_serve_accepted_total"),
            snap.accepted);
  EXPECT_EQ(parse_prom_counter(body, "dagsfc_serve_rejected_infeasible_total"),
            snap.rejected_infeasible);
  EXPECT_EQ(parse_prom_counter(body, "dagsfc_serve_slow_solves_total"), 0u);
  EXPECT_EQ(parse_prom_counter(body, "dagsfc_serve_latency_ms_count"),
            snap.latency_ms.count());
  EXPECT_EQ(parse_prom_counter(body, "dagsfc_serve_cost_count"),
            snap.cost.count());

  const std::string json_resp = http_get(server.port(), "/metrics.json");
  EXPECT_NE(json_resp.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(json_resp.find("Content-Type: application/json"),
            std::string::npos);
  EXPECT_NE(json_resp.find("\"name\":\"dagsfc_serve_accepted_total\""),
            std::string::npos);

  EXPECT_NE(http_get(server.port(), "/nope").find("404"), std::string::npos);
}

}  // namespace
}  // namespace dagsfc::util
