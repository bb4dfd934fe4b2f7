/// Serving-layer bench: aggregate throughput, acceptance, commit-conflict
/// rate, and tail latency of serve::EmbeddingService across worker counts ×
/// offered loads.
///
/// Each cell replays the *same* seeded workload open-loop (producer threads
/// keep a window of requests in flight; each releases its oldest accepted
/// flows beyond the load target), so cells differ only in concurrency and
/// load. Expectations: throughput rises with workers at a fixed load, and
/// the stamp-commit counter is nonzero once concurrent commits overlap in
/// time but not in footprint. The default schedule is long enough that
/// every cell runs for over a second on a 4-vCPU host.

#include <algorithm>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/backtracking.hpp"
#include "serve/driver.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dagsfc;

  Flags flags;
  flags.define_workers(0)
      .define_int("arrivals", 50000, "requests replayed per cell")
      .define_int("producers", 4, "submitting threads per cell")
      .define_int("network-size", 40, "nodes in the generated network")
      .define_int("sfc-size", 4, "VNFs per request SFC")
      .define_double("vnf-capacity", 4.0, "per-instance capacity")
      .define_double("link-capacity", 6.0, "per-link capacity")
      .define_int("retries", 3, "re-solves after a commit conflict")
      .define("loads", "8,24,48", "comma-separated target in-service loads")
      .define("worker-counts", "1,2,4,8", "comma-separated worker counts")
      .define_int("seed", 0x5eedb0b, "workload + solver RNG seed");
  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n\n" << flags.usage(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << "serve throughput sweep\n\n" << flags.usage(argv[0]);
    return 0;
  }

  auto parse_list = [](const std::string& text) {
    std::vector<std::size_t> out;
    std::size_t pos = 0;
    while (pos < text.size()) {
      std::size_t used = 0;
      out.push_back(
          static_cast<std::size_t>(std::stoul(text.substr(pos), &used)));
      pos += used;
      if (pos < text.size() && text[pos] == ',') ++pos;
    }
    return out;
  };
  const std::vector<std::size_t> loads = parse_list(flags.get("loads"));
  const std::vector<std::size_t> worker_counts =
      parse_list(flags.get("worker-counts"));

  sim::DynamicConfig cfg;
  std::size_t producers = 0, retries = 0;
  try {
    cfg.base.network_size = flags.get_count("network-size");
    cfg.base.sfc_size = flags.get_count("sfc-size");
    cfg.num_arrivals = flags.get_count("arrivals");
    producers = std::max<std::size_t>(1, flags.get_count("producers"));
    retries = flags.get_count("retries");
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  cfg.base.catalog_size = 8;
  cfg.base.vnf_capacity = flags.get_double("vnf-capacity");
  cfg.base.link_capacity = flags.get_double("link-capacity");
  cfg.base.trials = 1;

  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const serve::Workload workload = serve::make_workload(cfg, seed);
  core::MbbeEmbedder embedder;

  Table table({"load", "workers", "throughput rps", "accept%",
               "conflicts", "retries", "stamp", "validated", "lat p50 ms",
               "lat p99 ms"});
  std::ostringstream json;
  json << "{\"bench\":\"serve_throughput\",\"arrivals\":" << cfg.num_arrivals
       << ",\"hw_threads\":" << std::thread::hardware_concurrency()
       << ",\"points\":[";
  bool first = true;

  for (std::size_t load : loads) {
    for (std::size_t workers : worker_counts) {
      serve::EmbeddingService::Options opts;
      opts.workers = workers;
      opts.admission.queue_capacity = cfg.num_arrivals;  // no queue rejects
      opts.admission.max_retries = static_cast<std::uint32_t>(retries);
      opts.admission.retry_backoff = std::chrono::microseconds(20);
      opts.seed = seed;
      serve::EmbeddingService service(workload.scenario.network, embedder,
                                      opts);
      serve::OpenLoopConfig open;
      open.producers = producers;
      open.target_load = load;
      open.window = std::max<std::size_t>(4, 2 * workers / open.producers);

      const serve::OpenLoopResult r =
          serve::run_open_loop(service, workload.arrivals, open);
      const auto& m = r.metrics;
      table.row()
          .cell(load)
          .cell(workers)
          .cell(r.throughput_rps(), 1)
          .cell(m.acceptance_ratio() * 100.0, 1)
          .cell(static_cast<std::size_t>(m.commit_conflicts))
          .cell(static_cast<std::size_t>(m.retries))
          .cell(static_cast<std::size_t>(m.stamp_commits))
          .cell(static_cast<std::size_t>(m.validated_commits))
          .cell(m.latency_ms.p50(), 2)
          .cell(m.latency_ms.p99(), 2);
      if (!first) json << ",";
      first = false;
      json << "{\"load\":" << load << ",\"workers\":" << workers
           << ",\"throughput_rps\":" << util::json_number(r.throughput_rps())
           << ",\"committed_rps\":"
           << util::json_number(
                  r.wall_seconds > 0.0
                      ? static_cast<double>(m.accepted) / r.wall_seconds
                      : 0.0)
           << ",\"wall_s\":" << util::json_number(r.wall_seconds)
           << ",\"conserved\":" << (r.conserved ? "true" : "false")
           << ",\"metrics\":" << m.to_json() << "}";
      std::cerr << "load=" << load << " workers=" << workers << " done ("
                << r.throughput_rps() << " rps, " << m.commit_conflicts
                << " conflicts)\n";
    }
  }
  json << "]}";

  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "== serve throughput: workers x offered load ==\n"
            << "expectation: throughput rises 1 -> 4 workers at fixed load; "
               "conflict/retry counters nonzero under contention\n"
            << "hardware threads: " << hw;
  if (hw < 2) {
    std::cout << " (single-core host: worker scaling cannot show; the "
                 "conflict/validated counters still exercise the "
                 "optimistic-commit machinery)";
  }
  std::cout << "\n\n" << table.ascii() << "\nJSON: " << json.str() << "\n";
  return 0;
}
