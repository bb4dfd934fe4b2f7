/// dagsfc_cli — embed a DAG-SFC described in files into a network described
/// in a file, with any of the library's algorithms:
///
///   ./dagsfc_cli --network net.txt --sfc chain.txt --algorithm mbbe
///
/// When no files are given the tool writes a demo pair to the chosen paths
/// first, so `./dagsfc_cli` alone is a self-contained demo. File formats:
/// net/io.hpp and sfc/io.hpp.

#include <fstream>
#include <iostream>
#include <sstream>

#include "core/backtracking.hpp"
#include "core/baselines.hpp"
#include "core/delay.hpp"
#include "core/ilp.hpp"
#include "core/layered.hpp"
#include "core/report.hpp"
#include "net/io.hpp"
#include "sfc/io.hpp"
#include "shard/hier.hpp"
#include "util/build_info.hpp"
#include "util/flags.hpp"

using namespace dagsfc;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << text;
}

void write_demo(const std::string& net_path, const std::string& sfc_path) {
  write_file(net_path,
             "# demo network: 6-node path+chord, 3 categories\n"
             "catalog 3\n"
             "name 1 firewall\nname 2 ids\nname 3 cache\n"
             "nodes 6\n"
             "link 0 1 1 100\nlink 1 2 1 100\nlink 2 3 1 100\n"
             "link 3 4 1 100\nlink 1 5 1 100\nlink 5 3 1 100\n"
             "vnf 1 1 10 100\n"
             "vnf 2 2 12 100\nvnf 5 2 8 100\n"
             "vnf 2 3 9 100\nvnf 3 3 7 100\n"
             "vnf 3 merger 5 100\nvnf 5 merger 6 100\n");
  write_file(sfc_path,
             "# demo SFC: firewall, then ids || cache\n"
             "layer 1\nlayer 2 3\nflow 0 4 1 1\n");
}

/// Builds the chosen solver. "hier" additionally partitions the loaded
/// network and parks the ShardedSubstrate in \p substrate, which must
/// outlive the returned embedder.
std::unique_ptr<core::Embedder> make_algorithm(
    const Flags& flags, const net::Network& network,
    std::unique_ptr<shard::ShardedSubstrate>& substrate) {
  const std::string name = flags.get("algorithm");
  const double delay_budget_ms = flags.get_double("delay-budget");
  if (delay_budget_ms > 0.0 && name != "layered") {
    throw std::invalid_argument(
        "--delay-budget is only honoured by the layered algorithm");
  }
  if (name == "ranv") return std::make_unique<core::RanvEmbedder>();
  if (name == "minv") return std::make_unique<core::MinvEmbedder>();
  if (name == "bbe") return std::make_unique<core::BbeEmbedder>();
  if (name == "mbbe") return std::make_unique<core::MbbeEmbedder>();
  if (name == "layered") {
    core::LayeredOptions opts;
    if (delay_budget_ms > 0.0) opts.delay_budget_ms = delay_budget_ms;
    return std::make_unique<core::LayeredEmbedder>(opts);
  }
  if (name == "hier") {
    const auto scheme =
        shard::partition_scheme_from_string(flags.get("partition"));
    if (scheme == shard::PartitionScheme::kLabels) {
      throw std::invalid_argument(
          "network files carry no region labels; use --partition stripe "
          "or --partition bfs");
    }
    const std::size_t shards = flags.get_count("shards");
    shard::HierOptions opts;
    opts.region_paths = flags.get_count("hier-paths");
    opts.inner = shard::inner_algorithm_from_string(flags.get("hier-inner"));
    opts.flat_fallback = flags.get_bool("hier-flat-fallback");
    substrate = std::make_unique<shard::ShardedSubstrate>(
        network,
        shard::make_partition(network.topology(), shards, scheme));
    return std::make_unique<shard::HierarchicalEmbedder>(*substrate, opts);
  }
  throw std::invalid_argument(
      "unknown algorithm '" + name +
      "' (expected ranv|minv|bbe|mbbe|layered|hier)");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  flags.define("network", "demo_network.txt", "network description file")
      .define("sfc", "demo_sfc.txt", "DAG-SFC (+flow) description file")
      .define("algorithm", "mbbe", "ranv|minv|bbe|mbbe|layered|hier")
      .define_int("shards", 4, "regions of the sharded substrate (hier)")
      .define("partition", "stripe",
              "node->region scheme for hier: stripe|bfs")
      .define("hier-inner", "mbbe", "hier stage-two solver: bbe|mbbe|layered")
      .define_int("hier-paths", 4,
                  "hier stage-one candidates (k of k-shortest region paths)")
      .define_bool("hier-flat-fallback", false,
                   "retry hier unrestricted when every candidate fails")
      .define_double("delay-budget", 0.0,
                     "end-to-end delay budget in ms (layered algorithm "
                     "only); 0 disables")
      .define_int("seed", 42, "RNG seed (randomized algorithms)")
      .define_bool("demo", false, "write demo input files before running")
      .define_bool("delay", true, "also report the end-to-end delay model")
      .define("emit-lp", "",
              "write the instance's ILP (Sec. 3.3, CPLEX LP format) to this "
              "path for an external MIP solver")
      .define("emit-dot", "",
              "write a Graphviz overlay of the solution on the topology to "
              "this path")
      .define("trace", "",
              "record the structured solve trace and write it to this path "
              "as Chrome trace_event JSON (load in Perfetto / "
              "chrome://tracing); also prints a trace summary")
      .define_log_level();
  try {
    flags.parse(argc, argv);
    flags.apply_log_level();
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n\n" << flags.usage(argv[0]);
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.usage(argv[0]);
    return 0;
  }

  // Process identity (dagsfc_build_info + dagsfc_uptime_seconds) on the
  // default registry, same as the serving CLI.
  const util::ProcessMetrics process_metrics;
  process_metrics.update();

  try {
    const std::string net_path = flags.get("network");
    const std::string sfc_path = flags.get("sfc");
    if (flags.get_bool("demo") || !std::ifstream(net_path)) {
      std::cerr << "writing demo instance to " << net_path << " and "
                << sfc_path << "\n";
      write_demo(net_path, sfc_path);
    }

    net::Network network = net::network_from_text(read_file(net_path));
    const sfc::SfcFile file = sfc::sfc_from_text(read_file(sfc_path));
    if (!file.flow.has_value()) {
      throw std::runtime_error("the SFC file must carry a flow line");
    }
    file.dag.validate(network.catalog());

    core::EmbeddingProblem problem;
    problem.network = &network;
    problem.sfc = &file.dag;
    problem.flow = core::Flow{file.flow->source, file.flow->destination,
                              file.flow->rate, file.flow->size};
    const core::ModelIndex index(problem);

    if (!flags.get("emit-lp").empty()) {
      net::CapacityLedger ledger(network);
      core::IlpBuilder builder(index, ledger);
      write_file(flags.get("emit-lp"), builder.build().to_lp());
      std::cout << "ILP written to " << flags.get("emit-lp") << "\n";
    }

    std::unique_ptr<shard::ShardedSubstrate> substrate;
    const auto algo = make_algorithm(flags, network, substrate);
    Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));

    std::cout << "DAG-SFC: " << file.dag.to_string(network.catalog())
              << "\nalgorithm: " << algo->name() << "\n";
    if (substrate != nullptr) {
      std::cout << "shards: " << substrate->num_regions() << " ("
                << flags.get("partition") << " partition), inner "
                << flags.get("hier-inner") << ", " << flags.get_int("hier-paths")
                << " region paths\n";
    }
    std::cout << "\n";
    const std::string trace_path = flags.get("trace");
    core::EmbeddingTrace trace;
    core::TraceSink* sink = trace_path.empty() ? nullptr : &trace;
    const core::SolveResult r = algo->solve_fresh(index, rng, sink);
    if (sink != nullptr) {
      write_file(trace_path, trace.to_chrome_json());
      std::cout << trace.summary() << "trace written to " << trace_path
                << " (" << trace.events().size() << " events)\n\n";
    }
    if (!r.ok()) {
      std::cerr << "embedding failed: " << r.failure_reason << "\n";
      return 2;
    }
    if (sink != nullptr && trace.reconstructed_cost() != r.cost) {
      std::cerr << "warning: trace cost terms do not reproduce the reported "
                   "objective\n";
    }
    const core::Evaluator evaluator(index);
    std::cout << core::describe(evaluator, *r.solution);
    std::cout << core::describe_search(r) << "\n";
    if (!flags.get("emit-dot").empty()) {
      write_file(flags.get("emit-dot"),
                 core::to_dot(evaluator, *r.solution, "embedding"));
      std::cout << "DOT overlay written to " << flags.get("emit-dot")
                << "\n";
    }
    if (flags.get_bool("delay")) {
      std::cout << "delay: "
                << core::end_to_end_delay(evaluator, *r.solution)
                << " ms parallel vs "
                << core::serialized_delay(evaluator, *r.solution)
                << " ms serialized (1ms/hop, 1ms/VNF, 0.2ms merger)\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
