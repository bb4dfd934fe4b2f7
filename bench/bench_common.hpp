#pragma once
/// Shared scaffolding for the figure-reproduction benches: standard flags,
/// algorithm construction, and result printing. Every bench binary prints
/// the series of one paper figure (mean total embedding cost per algorithm
/// vs the swept parameter) as an ASCII table, a detail table (success rate,
/// wall clock, search effort, path-cache hit rate), a machine-readable JSON
/// summary line, and optionally CSV.

#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/backtracking.hpp"
#include "core/baselines.hpp"
#include "sim/sweep.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"

namespace dagsfc::bench {

struct BenchSetup {
  Flags flags;
  sim::ExperimentConfig base;
  sim::RunOptions run_opts;
  bool csv = false;
  bool with_bbe = true;

  std::unique_ptr<core::RanvEmbedder> ranv;
  std::unique_ptr<core::MinvEmbedder> minv;
  std::unique_ptr<core::BbeEmbedder> bbe;
  std::unique_ptr<core::MbbeEmbedder> mbbe;

  /// [RANV, MINV, (BBE), MBBE] — the paper's comparison set.
  [[nodiscard]] std::vector<const core::Embedder*> algorithms() const {
    std::vector<const core::Embedder*> out{ranv.get(), minv.get()};
    if (with_bbe) out.push_back(bbe.get());
    out.push_back(mbbe.get());
    return out;
  }
};

/// Parses standard flags and builds the algorithm set. Returns nullptr and
/// prints usage when --help was requested or parsing failed.
inline std::unique_ptr<BenchSetup> setup(int argc, const char* const* argv,
                                         const std::string& description) {
  auto s = std::make_unique<BenchSetup>();
  s->flags.define_int("trials", 100, "trials averaged per data point")
      .define_int("threads", 0, "worker threads (0 = hardware)")
      .define_int("seed", 0x5fcdaa11, "base RNG seed")
      .define_int("xmax", 50, "MBBE forward-search node cap X_max")
      .define_int("xd", 4, "MBBE children kept per sub-solution X_d")
      .define_bool("no-bbe", false, "exclude plain BBE from the comparison")
      .define_bool("trace", false,
                   "collect structured solve traces and report the aggregate "
                   "counts in the JSON line")
      .define_bool("csv", false, "also print CSV after the tables");
  try {
    s->flags.parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n\n" << s->flags.usage(argv[0]);
    return nullptr;
  }
  if (s->flags.help_requested()) {
    std::cout << description << "\n\n" << s->flags.usage(argv[0]);
    return nullptr;
  }
  core::MbbeOptions mopts;
  try {
    s->base.trials = s->flags.get_count("trials");
    s->run_opts.threads = s->flags.get_count("threads");
    mopts.x_max = s->flags.get_count("xmax");
    mopts.x_d = s->flags.get_count("xd");
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n\n" << s->flags.usage(argv[0]);
    return nullptr;
  }
  s->base.seed = static_cast<std::uint64_t>(s->flags.get_int("seed"));
  s->run_opts.collect_traces = s->flags.get_bool("trace");
  s->csv = s->flags.get_bool("csv");
  s->with_bbe = !s->flags.get_bool("no-bbe");

  s->ranv = std::make_unique<core::RanvEmbedder>();
  s->minv = std::make_unique<core::MinvEmbedder>();
  s->bbe = std::make_unique<core::BbeEmbedder>();
  s->mbbe = std::make_unique<core::MbbeEmbedder>(mopts);
  return s;
}

using util::json_escape;

/// One JSON object per bench run, rendered from the telemetry plane: every
/// sweep point carries a MetricRegistry JSON document filled by
/// sim::fill_registry — mean cost, timing, search effort, and the solver
/// path-query counters appear as `dagsfc_solver_*` / `dagsfc_path_*`
/// metrics labelled `algo="<name>"` (plus `dagsfc_trace_*` when tracing
/// ran), plus a `cost_mean` convenience number per algorithm for quick
/// grepping. Emitted on a single line prefixed "JSON: ".
inline std::string to_json(const std::string& title,
                           const sim::SweepResult& result) {
  std::ostringstream os;
  os << "{\"bench\":\"" << json_escape(title) << "\",\"points\":[";
  for (std::size_t p = 0; p < result.point_stats.size(); ++p) {
    if (p) os << ",";
    const auto& stats = result.point_stats[p];
    util::MetricRegistry registry;
    sim::fill_registry(stats, registry);
    os << "{\"label\":\""
       << json_escape(p < result.labels.size() ? result.labels[p] : "")
       << "\",\"algorithms\":[";
    for (std::size_t a = 0; a < stats.size(); ++a) {
      const sim::AlgorithmStats& st = stats[a];
      if (a) os << ",";
      os << "{\"name\":\"" << json_escape(st.name)
         << "\",\"cost_mean\":" << (st.successes ? st.cost.mean() : 0.0)
         << "}";
    }
    os << "],\"registry\":" << registry.expose_json() << "}";
  }
  os << "]}";
  return os.str();
}

inline void print_result(const BenchSetup& s, const std::string& title,
                         const std::string& expectation,
                         const sim::SweepResult& result) {
  std::cout << "== " << title << " ==\n";
  std::cout << "paper expectation: " << expectation << "\n";
  std::cout << "base config: " << s.base.summary() << "\n\n";
  std::cout << "mean total embedding cost (successful trials):\n"
            << result.cost_table.ascii() << "\n";
  std::cout << "detail (success rate / mean solve ms / expanded "
               "sub-solutions / path-cache hit rate):\n"
            << result.detail_table.ascii();
  std::cout << "\nJSON: " << to_json(title, result) << "\n";
  if (s.csv) {
    std::cout << "\nCSV:\n" << result.cost_table.csv();
  }
  std::cout.flush();
}

}  // namespace dagsfc::bench
