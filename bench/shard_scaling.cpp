/// Shard-plane bench: serve throughput vs region count, and the price of
/// hierarchy.
///
/// Part A (scaling): the same arrival schedule shape is served at each
/// region count N — a regional Waxman substrate of fixed total size split
/// into N regions — by the one serve::EmbeddingService: N worker pools x 1
/// worker, HIER stage one, each commit locking only the shards its
/// footprint owns. N = 1 is the flat service (one region, MBBE over the
/// whole substrate). Restricted solves search a region-path-sized slice
/// of the substrate instead of all of it, and disjoint region paths commit
/// without serializing. Each N > 1 also runs a flat control on the same
/// substrate and arrivals: one region served by N workers. Sharded against
/// control separates the restricted-solve effect from the thread count;
/// the JSON records hw_threads for honest reading of the latter. The
/// default schedule is long enough that every cell runs for over a second
/// on a 4-vCPU host, so a cell's throughput is not a few milliseconds'
/// sample.
///
/// Part B (cost gap): hierarchy trades optimality for locality — HIER's
/// restricted search can never beat the flat inner algorithm on the full
/// substrate. This sweep prices that trade: T random requests on one
/// regional substrate, each solved flat (MBBE) and hierarchically
/// (best-of-k), every HIER solution checked by the independent
/// core::SolutionValidator ("validator_clean" in the JSON).

#include <algorithm>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/backtracking.hpp"
#include "core/validator.hpp"
#include "serve/driver.hpp"
#include "shard/hier.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace dagsfc;

  Flags flags;
  flags.define_int("arrivals", 50000, "requests replayed per scaling cell")
      .define_int("producers", 4, "submitting threads per cell")
      .define_int("total-nodes", 96, "substrate size, constant across N")
      .define_int("sfc-size", 4, "VNFs per request SFC")
      .define_double("vnf-capacity", 6.0, "per-instance capacity")
      .define_double("link-capacity", 8.0, "per-link capacity")
      .define_double("load", 24.0, "target concurrent flows in service")
      .define_int("retries", 3, "re-solves after a commit conflict")
      .define("shard-counts", "1,2,4,8", "comma-separated shard counts")
      .define_int("gap-trials", 40, "requests in the cost-gap sweep")
      .define_int("gap-regions", 4, "regions of the cost-gap substrate")
      .define_int("hier-paths", 4, "HIER stage-one candidates")
      .define_int("seed", 0x5a4dbe4c, "workload + solver RNG seed");
  try {
    flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n\n" << flags.usage(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << "shard scaling + hierarchy cost-gap bench\n\n"
              << flags.usage(argv[0]);
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
  const std::vector<std::size_t> shard_counts =
      parse_list(flags.get("shard-counts"));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  std::size_t total_nodes = 0, sfc_size = 0, arrivals = 0, retries = 0;
  std::size_t producers = 0, hier_paths = 0, gap_regions = 0, gap_trials = 0;
  try {
    total_nodes = flags.get_count("total-nodes");
    sfc_size = flags.get_count("sfc-size");
    arrivals = flags.get_count("arrivals");
    retries = flags.get_count("retries");
    producers = std::max<std::size_t>(1, flags.get_count("producers"));
    hier_paths = flags.get_count("hier-paths");
    gap_regions = std::max<std::size_t>(1, flags.get_count("gap-regions"));
    gap_trials = flags.get_count("gap-trials");
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }

  sim::ExperimentConfig base;
  base.catalog_size = 8;
  base.sfc_size = sfc_size;
  base.vnf_capacity = flags.get_double("vnf-capacity");
  base.link_capacity = flags.get_double("link-capacity");
  base.trials = 1;

  std::ostringstream json;
  json << "{\"bench\":\"shard_scaling\",\"arrivals\":"
       << arrivals << ",\"total_nodes\":" << total_nodes
       << ",\"hw_threads\":" << std::thread::hardware_concurrency()
       << ",\"scaling\":[";

  // ---- part A: throughput vs region count --------------------------------
  Table table({"substrate regions", "served as regions", "workers",
               "throughput rps", "accept%", "cross-region", "conflicts",
               "validated", "conserved"});
  bool first = true;
  const core::MbbeEmbedder inner;
  for (const std::size_t shards : shard_counts) {
    serve::RegionalWorkloadConfig scfg;
    scfg.regional.base = base;
    scfg.regional.regions.regions = std::max<std::size_t>(1, shards);
    scfg.regional.regions.nodes_per_region =
        std::max<std::size_t>(2, total_nodes / scfg.regional.regions.regions);
    scfg.num_arrivals = arrivals;
    const serve::RegionalWorkload workload =
        serve::make_regional_workload(scfg, seed);
    const shard::ShardedSubstrate substrate(
        workload.scenario.network,
        shard::make_partition(workload.scenario.network.topology(), shards,
                              shard::PartitionScheme::kLabels,
                              workload.scenario.region_of));

    serve::EmbeddingService::Options opts;
    opts.admission.queue_capacity = scfg.num_arrivals;  // no queue rejects
    opts.admission.max_retries = static_cast<std::uint32_t>(retries);
    opts.admission.retry_backoff = std::chrono::microseconds(20);
    opts.seed = seed;
    // Replays the workload through \p service, served as \p regions
    // regions by \p workers workers in all, and records one cell.
    const auto run_cell = [&](serve::EmbeddingService& service,
                              std::size_t regions, std::size_t workers) {
      serve::OpenLoopConfig open;
      open.producers = producers;
      open.target_load =
          static_cast<std::size_t>(std::max(1.0, flags.get_double("load")));
      open.window = std::max<std::size_t>(4, 2 * workers / producers);
      const serve::OpenLoopResult r =
          serve::run_open_loop(service, workload.arrivals, open);
      const auto& m = r.metrics;
      table.row()
          .cell(shards)
          .cell(regions)
          .cell(workers)
          .cell(r.throughput_rps(), 1)
          .cell(m.acceptance_ratio() * 100.0, 1)
          .cell(static_cast<std::size_t>(m.cross_region_requests))
          .cell(static_cast<std::size_t>(m.commit_conflicts))
          .cell(static_cast<std::size_t>(m.validated_commits))
          .cell(r.conserved ? "yes" : "NO");
      if (!first) json << ",";
      first = false;
      json << "{\"substrate_regions\":" << shards << ",\"regions\":" << regions
           << ",\"workers\":" << workers
           << ",\"throughput_rps\":" << util::json_number(r.throughput_rps())
           << ",\"wall_s\":" << util::json_number(r.wall_seconds)
           << ",\"conserved\":" << (r.conserved ? "true" : "false")
           << ",\"metrics\":" << m.to_json() << "}";
      std::cerr << "substrate_regions=" << shards << " regions=" << regions
                << " workers=" << workers << " done (" << r.throughput_rps()
                << " rps, " << r.wall_seconds << " s)\n";
    };
    {
      opts.workers = 1;  // per region: N regions, N workers
      serve::EmbeddingService service(substrate, inner, hier_paths, opts);
      run_cell(service, shards, shards);
    }
    if (shards > 1) {
      // The flat control: the same substrate and arrivals, one region, as
      // many workers as the sharded cell.
      opts.workers = shards;
      serve::EmbeddingService service(workload.scenario.network, inner, opts);
      run_cell(service, 1, shards);
    }
  }
  json << "],";

  // ---- part B: the price of hierarchy ------------------------------------
  Table gap_table({"request", "flat cost", "hier cost", "gap%", "valid"});
  {
    serve::RegionalWorkloadConfig gcfg;
    gcfg.regional.base = base;
    gcfg.regional.regions.regions = gap_regions;
    gcfg.regional.regions.nodes_per_region =
        std::max<std::size_t>(2, total_nodes / gap_regions);
    gcfg.num_arrivals = gap_trials;
    const serve::RegionalWorkload workload =
        serve::make_regional_workload(gcfg, seed ^ 0x9e37ULL);
    const shard::ShardedSubstrate substrate(
        workload.scenario.network,
        shard::make_partition(workload.scenario.network.topology(),
                              gap_regions, shard::PartitionScheme::kLabels,
                              workload.scenario.region_of));
    core::MbbeEmbedder flat;
    shard::HierOptions hopts;
    hopts.region_paths = hier_paths;
    const shard::HierarchicalEmbedder hier(substrate, hopts);

    std::size_t both = 0, clean = 0, hier_only_fail = 0;
    double flat_sum = 0.0, hier_sum = 0.0;
    for (std::size_t i = 0; i < workload.arrivals.size(); ++i) {
      const serve::Request& req = workload.arrivals[i].request;
      core::EmbeddingProblem problem;
      problem.network = &workload.scenario.network;
      problem.sfc = &req.sfc;
      problem.flow = req.flow;
      const core::ModelIndex index(problem);
      Rng rng_flat(seed + i), rng_hier(seed + i);
      const core::SolveResult rf = flat.solve_fresh(index, rng_flat);
      const core::SolveResult rh = hier.solve_fresh(index, rng_hier);
      if (rf.ok() && !rh.ok()) ++hier_only_fail;
      if (!rf.ok() || !rh.ok()) continue;
      net::CapacityLedger fresh(workload.scenario.network);
      const core::SolutionValidator validator(index);
      const bool valid = validator.check(rh, fresh).ok();
      clean += valid ? 1 : 0;
      ++both;
      flat_sum += rf.cost;
      hier_sum += rh.cost;
      if (i < 12) {
        gap_table.row()
            .cell(i)
            .cell(rf.cost, 2)
            .cell(rh.cost, 2)
            .cell(rf.cost > 0.0 ? (rh.cost / rf.cost - 1.0) * 100.0 : 0.0, 1)
            .cell(valid ? "yes" : "NO");
      }
    }
    const double gap =
        flat_sum > 0.0 ? (hier_sum / flat_sum - 1.0) * 100.0 : 0.0;
    json << "\"cost_gap\":{\"regions\":" << gap_regions << ",\"trials\":"
         << workload.arrivals.size() << ",\"both_solved\":" << both
         << ",\"hier_only_failures\":" << hier_only_fail
         << ",\"validator_clean\":" << clean
         << ",\"all_validator_clean\":" << (clean == both ? "true" : "false")
         << ",\"flat_mean_cost\":"
         << util::json_number(both ? flat_sum / static_cast<double>(both) : 0.0)
         << ",\"hier_mean_cost\":"
         << util::json_number(both ? hier_sum / static_cast<double>(both) : 0.0)
         << ",\"gap_percent\":" << util::json_number(gap) << "}";
    std::cerr << "cost gap done (" << both << " paired solves, gap " << gap
              << "%)\n";
  }
  json << "}";

  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "== shard scaling: the serving plane vs region count ==\n"
            << "expectation: throughput rises with region count (restricted "
               "solves shrink with region size, disjoint region paths commit "
               "in parallel); 1 region is the flat service, and the flat "
               "control of each N > 1 (one region, N workers, same "
               "substrate) shows how much of the rise is thread count\n"
            << "hardware threads: " << hw;
  if (hw < 2) {
    std::cout << " (single-core host: pool parallelism cannot show; the "
                 "restricted-solve speedup and per-shard commit counters "
                 "still measure the sharding machinery)";
  }
  std::cout << "\n\n"
            << table.ascii() << "\n== hierarchy cost gap (first 12) ==\n"
            << gap_table.ascii() << "\nJSON: " << json.str() << "\n";
  return 0;
}
