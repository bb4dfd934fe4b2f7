/// dagsfc_serve — the online embedding service as a CLI demo.
///
/// Generates a seeded workload (Poisson arrivals of random DAG-SFCs with
/// exponential holding times) and serves it through serve::EmbeddingService
/// — flat (one region, one --algorithm solver) or, with --algorithm hier,
/// sharded (a regional substrate, one worker pool and ledger shard per
/// region, HIER stage one plus --hier-inner) — in one of two modes:
///
///   * open-loop (default): --producers submitting threads keep up to a
///     window of requests in flight each while releasing their oldest
///     accepted flows — workers race their optimistic commits, so the
///     validated-commit / conflict / retry counters come alive;
///   * --closed-loop: the deterministic driver (one request in flight,
///     virtual departures) whose metrics are bit-identical for any
///     --workers value.
///
/// Commits go through the sharded ledger's MVCC validation (incremental
/// per-worker views, footprint-stamp validation) — see DESIGN.md §7.
///
/// Prints a human-readable summary plus a machine-readable `JSON:` line
/// like the bench binaries.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>

#include "core/backtracking.hpp"
#include "core/baselines.hpp"
#include "core/layered.hpp"
#include "serve/driver.hpp"
#include "serve/http.hpp"
#include "serve/trace.hpp"
#include "shard/hier.hpp"
#include "util/build_info.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

namespace {

/// SIGUSR1 → dump the live flight recorder. A signal handler may only flip
/// a flag, so a tiny poller thread does the actual I/O; main publishes the
/// service's recorder through g_flight for the duration of the run.
volatile std::sig_atomic_t g_dump_requested = 0;
void on_sigusr1(int) { g_dump_requested = 1; }
std::atomic<const dagsfc::serve::FlightRecorder*> g_flight{nullptr};

/// Owns the poller thread and joins it on every exit path.
struct SignalPoller {
  std::atomic<bool> stop{false};
  std::thread thread;

  void start() {
    std::signal(SIGUSR1, on_sigusr1);
    thread = std::thread([this] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (g_dump_requested == 0) continue;
        g_dump_requested = 0;
        if (const auto* f = g_flight.load(std::memory_order_acquire)) {
          std::cerr << "SIGUSR1 flight dump: " << f->to_json() << "\n";
        }
      }
    });
  }
  ~SignalPoller() {
    stop.store(true, std::memory_order_relaxed);
    if (thread.joinable()) thread.join();
  }
};

/// --flight-dump: the retained traces as Chrome trace-event JSON, written
/// at exit while the service (and its recorder) is still alive.
void dump_flight(const std::string& path,
                 const dagsfc::serve::FlightRecorder* flight) {
  if (path.empty() || flight == nullptr) return;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "flight-dump: cannot open " << path << "\n";
    return;
  }
  out << flight->to_chrome();
  std::cerr << "flight-dump: " << flight->promoted()
            << " promoted trace(s); chrome trace written to " << path
            << " (open in Perfetto or chrome://tracing)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dagsfc;

  Flags flags;
  flags.define_workers(4)
      .define_int("arrivals", 400, "requests in the generated workload")
      .define_int("producers", 2, "submitting threads (open-loop mode)")
      .define_double("load", 24.0,
                     "target concurrent flows in service (open-loop) / "
                     "offered load in Erlangs (closed-loop)")
      .define_int("network-size", 60, "nodes in the generated network")
      .define_int("sfc-size", 4, "VNFs per request SFC")
      .define_double("vnf-capacity", 8.0, "per-instance capacity")
      .define_double("link-capacity", 10.0, "per-link capacity")
      .define_int("queue-cap", 256, "bounded request-queue capacity")
      .define_int("retries", 3, "re-solves after a commit conflict")
      .define_duration("backoff", "50us", "base retry backoff (doubles)")
      .define_duration("deadline", "0s",
                       "per-request deadline after submit; 0s disables")
      .define_bool("closed-loop", false,
                   "run the deterministic closed-loop driver instead")
      .define("algorithm", "mbbe",
              "worker solver: ranv|minv|bbe|mbbe|layered, or hier "
              "(sharded substrate, one worker pool per region)")
      .define_int("shards", 4, "regions of the sharded substrate (hier)")
      .define("partition", "labels",
              "node->region scheme for hier: labels|stripe|bfs (labels = "
              "the regional generator's own)")
      .define("hier-inner", "mbbe", "hier stage-two solver: bbe|mbbe|layered")
      .define_int("hier-paths", 4,
                  "hier stage-one candidates (k of k-shortest region paths)")
      .define_int("metrics-port", 0,
                  "serve GET /metrics (Prometheus) and /metrics.json on "
                  "127.0.0.1:<port> for the duration of the run; 0 disables")
      .define_duration("slow-solve-threshold", "0s",
                       "warn once (and count dagsfc_serve_slow_solves_total) "
                       "for any request processed longer than this; 0s "
                       "disables the watchdog")
      .define("flight-dump", "",
              "enable request-lifecycle tracing and write the flight "
              "recorder's retained traces as Chrome trace-event JSON to "
              "this path at exit (open in Perfetto / chrome://tracing)")
      .define_bool("trace", false,
                   "request-lifecycle tracing without a dump file (the "
                   "flight recorder serves on /debug/traces.json and "
                   "SIGUSR1 dumps it to stderr); implied by --flight-dump")
      .define_duration("trace-latency-over", "0s",
                       "also promote traces whose submit->finish latency "
                       "exceeds this; 0s disables the latency trigger")
      .define_bool("trace-refusals", false,
                   "also promote refused requests (infeasible, queue-full, "
                   "deadline-shed)")
      .define_log_level()
      .define_int("seed", 0x5eed5e, "workload + solver RNG seed");
  try {
    flags.parse(argc, argv);
    flags.apply_log_level();
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n\n" << flags.usage(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << "online embedding service demo\n\n" << flags.usage(argv[0]);
    return 0;
  }

  sim::DynamicConfig cfg;
  serve::AdmissionPolicy admission;
  std::size_t workers = 0, producers = 0, shards = 0, hier_paths = 0;
  try {
    cfg.base.network_size = flags.get_count("network-size");
    cfg.base.sfc_size = flags.get_count("sfc-size");
    cfg.num_arrivals = flags.get_count("arrivals");
    workers = flags.get_workers();
    producers = std::max<std::size_t>(1, flags.get_count("producers"));
    shards = std::max<std::size_t>(1, flags.get_count("shards"));
    hier_paths = std::max<std::size_t>(1, flags.get_count("hier-paths"));
    admission.queue_capacity = flags.get_count("queue-cap");
    admission.max_retries =
        static_cast<std::uint32_t>(flags.get_count("retries"));
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  cfg.base.catalog_size = 8;
  cfg.base.vnf_capacity = flags.get_double("vnf-capacity");
  cfg.base.link_capacity = flags.get_double("link-capacity");
  cfg.base.trials = 1;
  cfg.arrival_rate =
      std::max(0.1, flags.get_double("load")) / cfg.mean_holding_time;

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  admission.retry_backoff = flags.get_duration("backoff");

  // Process identity on the default registry (dagsfc_build_info +
  // dagsfc_uptime_seconds).
  const util::ProcessMetrics process_metrics;

  const std::string flight_dump = flags.get("flight-dump");
  serve::TracingOptions tracing;
  tracing.enabled = flags.get_bool("trace") || !flight_dump.empty();
  tracing.latency_over = flags.get_duration("trace-latency-over");
  tracing.on_refusal = flags.get_bool("trace-refusals");

  SignalPoller poller;
  if (tracing.enabled) poller.start();

  const std::string algo_name = flags.get("algorithm");
  const bool hier = algo_name == "hier";
  serve::EmbeddingService::Options opts;
  opts.workers = workers;  // per region
  opts.admission = admission;
  opts.seed = seed;
  opts.slow_solve_threshold = flags.get_duration("slow-solve-threshold");
  opts.tracing = tracing;

  // The workload, its substrate and the solver outlive the service.
  std::optional<serve::Workload> flat;
  std::optional<serve::RegionalWorkload> regional;
  std::unique_ptr<shard::ShardedSubstrate> substrate;
  std::unique_ptr<core::Embedder> algo;
  std::unique_ptr<serve::EmbeddingService> service;
  std::span<const serve::TimedRequest> arrivals;
  if (hier) {
    serve::RegionalWorkloadConfig rcfg;
    rcfg.regional.base = cfg.base;
    rcfg.regional.regions.regions = shards;
    rcfg.regional.regions.nodes_per_region =
        std::max<std::size_t>(2, cfg.base.network_size / shards);
    rcfg.arrival_rate = cfg.arrival_rate;
    rcfg.mean_holding_time = cfg.mean_holding_time;
    rcfg.num_arrivals = cfg.num_arrivals;
    std::cerr << "generating regional workload (" << rcfg.num_arrivals
              << " arrivals, " << rcfg.regional.total_nodes() << " nodes, "
              << shards << " regions)...\n";
    regional.emplace(serve::make_regional_workload(rcfg, seed));
    arrivals = regional->arrivals;
    try {
      const auto scheme =
          shard::partition_scheme_from_string(flags.get("partition"));
      substrate = std::make_unique<shard::ShardedSubstrate>(
          regional->scenario.network,
          shard::make_partition(regional->scenario.network.topology(), shards,
                                scheme, regional->scenario.region_of));
      algo = shard::make_inner_embedder(
          shard::inner_algorithm_from_string(flags.get("hier-inner")));
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return 1;
    }
    service = std::make_unique<serve::EmbeddingService>(*substrate, *algo,
                                                        hier_paths, opts);
  } else {
    if (algo_name == "ranv") {
      algo = std::make_unique<core::RanvEmbedder>();
    } else if (algo_name == "minv") {
      algo = std::make_unique<core::MinvEmbedder>();
    } else if (algo_name == "bbe") {
      algo = std::make_unique<core::BbeEmbedder>();
    } else if (algo_name == "mbbe") {
      algo = std::make_unique<core::MbbeEmbedder>();
    } else if (algo_name == "layered") {
      algo = std::make_unique<core::LayeredEmbedder>();
    } else {
      std::cerr << "unknown algorithm '" << algo_name
                << "' (ranv|minv|bbe|mbbe|layered|hier)\n";
      return 1;
    }
    std::cerr << "generating workload (" << cfg.num_arrivals << " arrivals, "
              << cfg.base.network_size << " nodes)...\n";
    flat.emplace(serve::make_workload(cfg, seed));
    arrivals = flat->arrivals;
    service = std::make_unique<serve::EmbeddingService>(flat->scenario.network,
                                                        *algo, opts);
  }
  const std::size_t regions = service->substrate().num_regions();

  // Observability for the whole run: the flight recorder for SIGUSR1, and
  // the /metrics endpoint on the service's registry with a second
  // ProcessMetrics registered there — the copy a scraper actually sees,
  // kept fresh via before_scrape.
  g_flight.store(service->flight_recorder(), std::memory_order_release);
  std::unique_ptr<util::ProcessMetrics> scrape_identity;
  std::unique_ptr<serve::MetricsHttpServer> endpoint;
  if (const int metrics_port = flags.get_int("metrics-port");
      metrics_port > 0) {
    scrape_identity =
        std::make_unique<util::ProcessMetrics>(service->metrics_registry());
    serve::MetricsHttpServer::Options mopts;
    mopts.flight = service->flight_recorder();
    mopts.before_scrape = [&scrape_identity] { scrape_identity->update(); };
    endpoint = std::make_unique<serve::MetricsHttpServer>(
        service->metrics_registry(), static_cast<std::uint16_t>(metrics_port),
        std::move(mopts));
    std::cerr << "metrics: curl http://127.0.0.1:" << endpoint->port()
              << "/metrics\n";
  }

  const bool closed = flags.get_bool("closed-loop");
  serve::OpenLoopConfig open;
  open.producers = producers;
  open.target_load =
      static_cast<std::size_t>(std::max(1.0, flags.get_double("load")));
  open.window = std::max<std::size_t>(4, 2 * workers / open.producers);
  open.deadline = flags.get_duration("deadline");
  serve::MetricsSnapshot m;
  bool conserved = false;
  std::uint64_t final_epoch = 0;
  double wall_s = 0.0, rps = 0.0;
  if (closed) {
    const serve::DriverResult r = serve::run_closed_loop(*service, arrivals);
    m = r.metrics;
    conserved = r.conserved;
    final_epoch = r.final_epoch;
  } else {
    const serve::OpenLoopResult r =
        serve::run_open_loop(*service, arrivals, open);
    m = r.metrics;
    conserved = r.conserved;
    wall_s = r.wall_seconds;
    rps = r.throughput_rps();
  }

  // The endpoint scrapes the service's registry and the flight dump reads
  // its recorder, so both must detach before the service is destroyed.
  g_flight.store(nullptr, std::memory_order_release);
  endpoint.reset();
  scrape_identity.reset();
  dump_flight(flight_dump, service->flight_recorder());

  std::cout << "== dagsfc_serve (" << (closed ? "closed" : "open")
            << " loop, " << algo_name << ", " << regions << " region(s) x "
            << workers << " workers";
  if (!closed) std::cout << ", " << open.producers << " producers";
  std::cout << ") ==\n";
  if (!closed) {
    std::cout << "served " << m.completed() << " requests in " << wall_s
              << "s (" << rps << " req/s)\n";
  }
  std::cout << "accepted " << m.accepted << " / " << m.submitted
            << " (ratio " << m.acceptance_ratio() << "), rejected "
            << m.rejected_infeasible << ", queue-full "
            << m.rejected_queue_full << ", shed " << m.shed_deadline
            << ", lost " << m.lost_conflict << ", cross-region "
            << m.cross_region_requests << "\n"
            << "commits: fast " << m.fast_commits << ", stamp "
            << m.stamp_commits << ", validated " << m.validated_commits
            << ", conflicts " << m.commit_conflicts << ", retries "
            << m.retries << "\n"
            << "latency ms p50/p95/p99: " << m.latency_ms.p50() << " / "
            << m.latency_ms.p95() << " / " << m.latency_ms.p99() << "\n"
            << "conserved after drain: " << (conserved ? "yes" : "no");
  if (closed) std::cout << ", final epoch " << final_epoch;
  std::cout << "\n";
  std::cout << "JSON: {\"mode\":\"" << (closed ? "closed-loop" : "open-loop")
            << "\",\"algorithm\":\"" << algo_name << "\",\"regions\":"
            << regions << ",\"workers\":" << workers;
  if (!closed) {
    std::cout << ",\"wall_s\":" << util::json_number(wall_s)
              << ",\"throughput_rps\":" << util::json_number(rps);
  }
  std::cout << ",\"conserved\":" << (conserved ? "true" : "false")
            << ",\"metrics\":" << m.to_json() << "}\n";
  return 0;
}
