/// Tail-sampled flight-recorder tests: the trigger predicate, trigger-name
/// rendering, FIFO eviction and byte-stable JSON dumps, and the end-to-end
/// promotion paths through both service planes — a forced commit-conflict
/// loser (LostConflict), a forced slow request (latency trigger, with its
/// trace id surfacing as a histogram exemplar in the JSON exposition and
/// its trace retrievable byte-stably via GET /debug/traces.json), a
/// watchdog-flagged request, and a shard-plane refusal.

#include "serve/trace.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <future>
#include <semaphore>
#include <string>
#include <thread>
#include <vector>

#include "core/backtracking.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"
#include "shard/service.hpp"
#include "shard/substrate.hpp"
#include "sim/regional.hpp"
#include "test_helpers.hpp"

namespace dagsfc::serve {
namespace {

using test::NetBuilder;

// ------------------------------------------------------------- triggers --

TEST(TraceTriggers, EvaluatePredicateMatchesSpec) {
  TracingOptions opts;  // defaults: lost_conflict + watchdog on
  EXPECT_EQ(evaluate_triggers(opts, Outcome::Accepted, 1.0, false), 0);
  EXPECT_EQ(evaluate_triggers(opts, Outcome::LostConflict, 1.0, false),
            kTriggerLostConflict);
  EXPECT_EQ(evaluate_triggers(opts, Outcome::Accepted, 1.0, true),
            kTriggerWatchdog);
  // Refusals are off by default...
  EXPECT_EQ(evaluate_triggers(opts, Outcome::RejectedInfeasible, 1.0, false),
            0);
  opts.on_refusal = true;
  for (const Outcome o :
       {Outcome::RejectedInfeasible, Outcome::RejectedQueueFull,
        Outcome::SheddedDeadline}) {
    EXPECT_EQ(evaluate_triggers(opts, o, 1.0, false), kTriggerRefusal);
  }
  // ...and the latency trigger only exists once a threshold is set.
  EXPECT_EQ(evaluate_triggers(opts, Outcome::Accepted, 1e9, false), 0);
  opts.latency_over = std::chrono::milliseconds(10);
  EXPECT_EQ(evaluate_triggers(opts, Outcome::Accepted, 9.99, false), 0);
  EXPECT_EQ(evaluate_triggers(opts, Outcome::Accepted, 10.0, false),
            kTriggerLatency);
  // Bits compose: a slow lost-conflict carries both.
  EXPECT_EQ(evaluate_triggers(opts, Outcome::LostConflict, 50.0, false),
            kTriggerLatency | kTriggerLostConflict);
  // Toggles mask their bits.
  opts.on_lost_conflict = false;
  opts.on_watchdog = false;
  EXPECT_EQ(evaluate_triggers(opts, Outcome::LostConflict, 1.0, true), 0);
}

TEST(TraceTriggers, NamesRenderInBitOrder) {
  EXPECT_EQ(trigger_names(0), "");
  EXPECT_EQ(trigger_names(kTriggerLatency), "latency");
  EXPECT_EQ(trigger_names(kTriggerLatency | kTriggerWatchdog),
            "latency,watchdog");
  EXPECT_EQ(trigger_names(kTriggerLostConflict | kTriggerRefusal),
            "lost_conflict,refusal");
}

// ------------------------------------------------------ flight recorder --

FlightTrace make_trace(RequestId id, std::uint8_t triggers) {
  FlightTrace t;
  t.trace_id = id;
  t.triggers = triggers;
  t.outcome = Outcome::LostConflict;
  t.latency_ms = 2.5;
  util::SpanRecord s;
  s.trace_id = id;
  s.kind = static_cast<std::uint8_t>(SpanKind::kCommit);
  s.detail = static_cast<std::uint8_t>(shard::CommitPath::kConflict);
  s.t0_ns = 100;
  s.t1_ns = 200;
  s.arg = 3;
  t.spans.push_back(s);
  return t;
}

TEST(FlightRecorder, EvictsFifoAndCountsEveryPromotion) {
  FlightRecorder rec(2);
  EXPECT_EQ(rec.capacity(), 2u);
  rec.promote(make_trace(1, kTriggerLostConflict));
  rec.promote(make_trace(2, kTriggerLostConflict));
  rec.promote(make_trace(3, kTriggerLatency));
  EXPECT_EQ(rec.promoted(), 3u);
  const std::vector<FlightTrace> kept = rec.snapshot();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].trace_id, 2u);  // oldest retained first; 1 was evicted
  EXPECT_EQ(kept[1].trace_id, 3u);
}

TEST(FlightRecorder, ToJsonIsByteStableAndStructured) {
  FlightRecorder rec(4);
  rec.promote(make_trace(9, kTriggerLatency | kTriggerLostConflict));
  const std::string a = rec.to_json();
  const std::string b = rec.to_json();
  EXPECT_EQ(a, b);  // same retained set → same bytes
  EXPECT_NE(a.find("\"promoted\":1"), std::string::npos);
  EXPECT_NE(a.find("\"capacity\":4"), std::string::npos);
  EXPECT_NE(a.find("\"trace_id\":9"), std::string::npos);
  EXPECT_NE(a.find("\"triggers\":[\"latency\",\"lost_conflict\"]"),
            std::string::npos);
  EXPECT_NE(a.find("\"outcome\":\"lost_conflict\""), std::string::npos);
  EXPECT_NE(a.find("\"kind\":\"commit\",\"detail\":\"conflict\""),
            std::string::npos);

  // The Chrome export holds one complete event per span.
  const std::string chrome = rec.to_chrome();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"commit/conflict\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
}

// ---------------------------------------------------- service promotion --

/// One-slot fixture shared with test_serve.cpp: a 3-node line whose single
/// f1 instance (capacity 1) admits exactly one rate-1 flow.
net::Network one_slot_network() {
  NetBuilder b(3, 1);
  b.link(0, 1, 1.0, 10.0).link(1, 2, 1.0, 10.0);
  b.put(1, 1, 5.0, 1.0);
  return b.build();
}

Request one_slot_request(RequestId id) {
  Request req;
  req.id = id;
  req.sfc = sfc::DagSfc({sfc::Layer{{1}}});
  req.flow = core::Flow{0, 2, 1.0, 1.0};
  return req;
}

/// The first two solves rendezvous *after* solving and *before* returning,
/// so both hold solutions from pre-commit snapshots — guaranteeing the
/// second commit faces a moved epoch (same device as test_serve.cpp).
class RendezvousEmbedder : public core::Embedder {
 public:
  explicit RendezvousEmbedder(const core::Embedder& inner) : inner_(&inner) {}

  [[nodiscard]] std::string name() const override { return "rendezvous"; }

 protected:
  [[nodiscard]] core::SolveResult do_solve(
      const core::ModelIndex& index, const net::CapacityLedger& ledger,
      Rng& rng, core::TraceSink*,
      graph::SearchWorkspace* workspace) const override {
    core::SolveResult r = inner_->solve(index, ledger, rng, nullptr, workspace);
    if (calls_.fetch_add(1) < 2) sync_.arrive_and_wait();
    return r;
  }

 private:
  const core::Embedder* inner_;
  mutable std::atomic<int> calls_{0};
  mutable std::barrier<> sync_{2};
};

/// Every solve signals entry, then blocks until released — holding the
/// request in flight for as long as the test wants.
class HoldEmbedder : public core::Embedder {
 public:
  explicit HoldEmbedder(const core::Embedder& inner) : inner_(&inner) {}

  [[nodiscard]] std::string name() const override { return "hold"; }

  void wait_entered() const { entered_.acquire(); }
  void release(std::ptrdiff_t permits = 1) const { gate_.release(permits); }

 protected:
  [[nodiscard]] core::SolveResult do_solve(
      const core::ModelIndex& index, const net::CapacityLedger& ledger,
      Rng& rng, core::TraceSink*,
      graph::SearchWorkspace* workspace) const override {
    entered_.release();
    gate_.acquire();
    return inner_->solve(index, ledger, rng, nullptr, workspace);
  }

 private:
  const core::Embedder* inner_;
  mutable std::counting_semaphore<64> entered_{0};
  mutable std::counting_semaphore<64> gate_{0};
};

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

/// The acceptance scenario in one test: a forced conflicted request lands
/// in the flight recorder with queue-wait, solve, and per-commit-attempt
/// spans, and GET /debug/traces.json serves the identical dump twice.
TEST(FlightPromotion, LostConflictTraceIsPromotedAndServed) {
  const net::Network network = one_slot_network();
  const core::MbbeEmbedder mbbe;
  const RendezvousEmbedder rendezvous(mbbe);
  EmbeddingService::Options opts;
  opts.workers = 2;
  opts.admission.max_retries = 0;  // the conflicted loser terminates at once
  opts.tracing.enabled = true;
  EmbeddingService service(network, rendezvous, opts);

  auto f1 = service.submit(one_slot_request(1));
  auto f2 = service.submit(one_slot_request(2));
  const Response r1 = f1.get();
  const Response r2 = f2.get();
  const Response& lost = r1.accepted() ? r2 : r1;
  ASSERT_EQ(lost.outcome, Outcome::LostConflict);

  const FlightRecorder* flight = service.flight_recorder();
  ASSERT_NE(flight, nullptr);
  EXPECT_EQ(flight->promoted(), 1u);  // the winner matched no trigger
  const std::vector<FlightTrace> traces = flight->snapshot();
  ASSERT_EQ(traces.size(), 1u);
  const FlightTrace& t = traces[0];
  EXPECT_EQ(t.trace_id, lost.id);
  EXPECT_EQ(t.triggers, kTriggerLostConflict);
  EXPECT_EQ(t.outcome, Outcome::LostConflict);
  EXPECT_EQ(t.dropped_spans, 0u);

  // queue wait → feasible solve → conflicted commit → lost outcome.
  ASSERT_EQ(t.spans.size(), 4u);
  EXPECT_EQ(t.spans[0].kind, static_cast<std::uint8_t>(SpanKind::kQueueWait));
  EXPECT_EQ(t.spans[1].kind, static_cast<std::uint8_t>(SpanKind::kSolve));
  EXPECT_EQ(t.spans[1].detail, 1);  // the losing solution was feasible
  EXPECT_EQ(t.spans[2].kind, static_cast<std::uint8_t>(SpanKind::kCommit));
  EXPECT_EQ(t.spans[2].detail,
            static_cast<std::uint8_t>(shard::CommitPath::kConflict));
  EXPECT_EQ(t.spans[3].kind, static_cast<std::uint8_t>(SpanKind::kOutcome));
  for (const util::SpanRecord& s : t.spans) EXPECT_EQ(s.trace_id, lost.id);

  // Byte-stable over HTTP: two scrapes of a quiescent recorder are
  // identical, and the body is exactly the recorder's own dump.
  MetricsHttpServer::Options hopts;
  hopts.flight = flight;
  const MetricsHttpServer server(service.metrics_registry(), 0, hopts);
  const std::string a = http_get(server.port(), "/debug/traces.json");
  const std::string b = http_get(server.port(), "/debug/traces.json");
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(a.find("Content-Type: application/json"), std::string::npos);
  EXPECT_EQ(a.substr(a.find("\r\n\r\n") + 4), flight->to_json());
}

TEST(FlightPromotion, SlowRequestTripsLatencyTriggerAndExemplar) {
  const net::Network network = one_slot_network();
  const core::MbbeEmbedder mbbe;
  const HoldEmbedder hold(mbbe);
  EmbeddingService::Options opts;
  opts.workers = 1;
  opts.tracing.enabled = true;
  opts.tracing.latency_over = std::chrono::milliseconds(5);
  EmbeddingService service(network, hold, opts);

  auto fut = service.submit(one_slot_request(1));
  hold.wait_entered();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  hold.release(8);  // permits for the solve plus any retries
  const Response r = fut.get();
  ASSERT_EQ(r.outcome, Outcome::Accepted);
  ASSERT_GE(r.queue_ms + r.solve_ms, 5.0);

  const FlightRecorder* flight = service.flight_recorder();
  ASSERT_EQ(flight->promoted(), 1u);
  const FlightTrace t = flight->snapshot().at(0);
  EXPECT_EQ(t.trace_id, 1u);
  EXPECT_TRUE(t.triggers & kTriggerLatency);
  EXPECT_GE(t.latency_ms, 5.0);

  // The worst request's trace id rides the latency histogram into the JSON
  // exposition as an exemplar.
  const std::string json = service.metrics_registry().expose_json();
  const std::size_t family = json.find("\"dagsfc_serve_latency_ms\"");
  ASSERT_NE(family, std::string::npos);
  const std::size_t exemplars = json.find("\"exemplars\":[", family);
  ASSERT_NE(exemplars, std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":1", exemplars), std::string::npos);
}

TEST(FlightPromotion, WatchdogFlagPromotesTheFlaggedRequest) {
  const net::Network network = one_slot_network();
  const core::MbbeEmbedder mbbe;
  const HoldEmbedder hold(mbbe);
  EmbeddingService::Options opts;
  opts.workers = 1;
  opts.slow_solve_threshold = std::chrono::milliseconds(5);
  opts.watchdog_period = std::chrono::milliseconds(1);
  opts.tracing.enabled = true;
  EmbeddingService service(network, hold, opts);

  auto fut = service.submit(one_slot_request(1));
  hold.wait_entered();
  // Hold until the watchdog has sampled the in-flight request.
  while (service.metrics().slow_solves == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  hold.release(8);
  const Response r = fut.get();
  ASSERT_EQ(r.outcome, Outcome::Accepted);
  EXPECT_TRUE(r.watchdog_flagged);

  const FlightRecorder* flight = service.flight_recorder();
  ASSERT_EQ(flight->promoted(), 1u);
  EXPECT_TRUE(flight->snapshot().at(0).triggers & kTriggerWatchdog);
}

// ---------------------------------------------------------- shard plane --

TEST(FlightPromotionShard, RefusalTraceCarriesPerCandidateSolves) {
  Rng rng(11);
  sim::RegionalConfig rcfg;
  rcfg.base.catalog_size = 8;
  rcfg.base.sfc_size = 3;
  rcfg.base.trials = 1;
  rcfg.regions.regions = 3;
  rcfg.regions.nodes_per_region = 8;
  const sim::RegionalScenario scenario = sim::make_regional_scenario(rng, rcfg);
  const shard::ShardedSubstrate substrate(
      scenario.network, shard::RegionPartition::from_labels(scenario.region_of));

  const core::MbbeEmbedder mbbe;
  EmbeddingService::Options opts;
  opts.tracing.enabled = true;
  opts.tracing.on_refusal = true;
  EmbeddingService service(substrate, mbbe, /*region_paths=*/4, opts);
  ASSERT_NE(service.span_recorder(), nullptr);
  // One span lane per (region, worker).
  EXPECT_EQ(service.span_recorder()->num_lanes(), substrate.num_regions());

  // A rate far above any capacity: every candidate solve is infeasible, so
  // the request refuses and — with on_refusal — promotes.
  Request req;
  req.id = 77;
  req.sfc = sfc::DagSfc({sfc::Layer{{1}}});
  req.flow = core::Flow{0, static_cast<graph::NodeId>(
                               scenario.network.num_nodes() - 1),
                        1e9, 1.0};
  const Response r = service.submit(std::move(req)).get();
  ASSERT_EQ(r.outcome, Outcome::RejectedInfeasible);

  const FlightRecorder* flight = service.flight_recorder();
  ASSERT_NE(flight, nullptr);
  ASSERT_EQ(flight->promoted(), 1u);
  const FlightTrace t = flight->snapshot().at(0);
  EXPECT_EQ(t.trace_id, 77u);
  EXPECT_EQ(t.triggers, kTriggerRefusal);
  EXPECT_EQ(t.outcome, Outcome::RejectedInfeasible);

  // queue wait, one infeasible solve per stage-one candidate (its index in
  // arg), and the outcome span; no commit was ever attempted.
  ASSERT_GE(t.spans.size(), 3u);
  EXPECT_EQ(t.spans.front().kind,
            static_cast<std::uint8_t>(SpanKind::kQueueWait));
  EXPECT_EQ(t.spans.back().kind,
            static_cast<std::uint8_t>(SpanKind::kOutcome));
  for (std::size_t i = 1; i + 1 < t.spans.size(); ++i) {
    EXPECT_EQ(t.spans[i].kind, static_cast<std::uint8_t>(SpanKind::kSolve));
    EXPECT_EQ(t.spans[i].detail, 0);  // infeasible
    EXPECT_EQ(t.spans[i].arg, static_cast<std::uint64_t>(i - 1));
  }
  EXPECT_EQ(static_cast<std::size_t>(r.solves), t.spans.size() - 2);
}

}  // namespace
}  // namespace dagsfc::serve
