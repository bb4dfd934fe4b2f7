/// Regression corpus: serialized instances under tests/corpus/ with golden
/// costs. Any change to the cost model, the search, or the serializers that
/// shifts these numbers is a behavioural change and must be deliberate.
///
/// The second half is the golden BBE/MBBE battery: one recorded row per
/// backtracking solve (tests/corpus/backtracking_golden.txt) that pins the
/// engine's output bit for bit — cost bits, search counters, the winning
/// placement and every path — across data-layout changes of the search.

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <optional>
#include <sstream>

#include "core/backtracking.hpp"
#include "core/delay.hpp"
#include "core/exact.hpp"
#include "net/io.hpp"
#include "net/ledger.hpp"
#include "sfc/io.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"

#ifndef DAGSFC_CORPUS_DIR
#error "DAGSFC_CORPUS_DIR must be defined by the build"
#endif

namespace dagsfc {
namespace {

using test::slurp;

struct Golden {
  std::string name;
  double mbbe_cost;         // < 0 ⇒ MBBE expected to fail
  double exact_cost;        // < 0 ⇒ exact expected to refuse/fail
};

// Without it gtest prints the raw bytes, std::string's heap pointer
// included, and the discovered test names change on every build.
void PrintTo(const Golden& g, std::ostream* os) { *os << g.name; }

class Corpus : public ::testing::TestWithParam<Golden> {};

TEST_P(Corpus, GoldenCostsHold) {
  const Golden& g = GetParam();
  const std::string dir = std::string(DAGSFC_CORPUS_DIR) + "/";
  net::Network network =
      net::network_from_text(slurp(dir + g.name + ".net.txt"));
  const sfc::SfcFile file =
      sfc::sfc_from_text(slurp(dir + g.name + ".sfc.txt"));
  ASSERT_TRUE(file.flow.has_value());
  file.dag.validate(network.catalog());

  core::EmbeddingProblem problem;
  problem.network = &network;
  problem.sfc = &file.dag;
  problem.flow = core::Flow{file.flow->source, file.flow->destination,
                            file.flow->rate, file.flow->size};
  const core::ModelIndex index(problem);
  const core::Evaluator evaluator(index);
  Rng rng(1);

  const core::MbbeEmbedder mbbe;
  const auto rm = mbbe.solve_fresh(index, rng);
  if (g.mbbe_cost < 0) {
    EXPECT_FALSE(rm.ok());
  } else {
    ASSERT_TRUE(rm.ok()) << rm.failure_reason;
    EXPECT_NEAR(rm.cost, g.mbbe_cost, 1e-2);
    EXPECT_TRUE(evaluator.validate(*rm.solution).empty());
  }

  const core::ExactEmbedder exact(core::ExactOptions{50'000'000});
  const auto re = exact.solve_fresh(index, rng);
  if (g.exact_cost < 0) {
    EXPECT_FALSE(re.ok());
  } else {
    ASSERT_TRUE(re.ok()) << re.failure_reason;
    EXPECT_NEAR(re.cost, g.exact_cost, 1e-2);
    if (rm.ok()) {
      EXPECT_GE(rm.cost + 1e-9, re.cost);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Instances, Corpus,
    ::testing::Values(
        Golden{"ring12", 451.16, 412.49},
        Golden{"leafspine14", 632.40, 617.16},
        Golden{"waxman20", 523.88, 523.88},
        // Exact refuses: its uncapacitated optimum reuses the cheap f1
        // instance beyond its capacity; MBBE packs feasibly at 82.
        Golden{"tightline5", 82.0, -1.0}),
    [](const ::testing::TestParamInfo<Golden>& param_info) {
      return param_info.param.name;
    });

// ---------------------------------------------------------------------------
// Golden BBE/MBBE battery.
//
// Each case is one solve; its row records ok/refused, the cost's bit
// pattern, expanded_sub_solutions, candidate_solutions, and an FNV-1a
// digest of the winning placement plus every path's nodes, edges and cost
// bits. Traced cases add a digest of the SolveEvent stream. The cases reach
// what the fig6 cost digests (defaults, rate 1.0) do not: alternative
// real-paths in tree and min-cost mode, a binding max_path_combos, a delay
// budget that prunes, X_max = 1 (the uncapped retry pass), binding max_pool
// and max_assignments_per_pair caps, and a rate-0.7 flow on a partly
// consumed ledger. The stream digest skips the Cache category: how many
// Dijkstra/Yen runs and cache hits a solve takes is work attribution, not
// output (core/trace.hpp), and memoizing meta-paths changes it.
//
// A case without a recorded row fails and prints the row it computed; that
// output is how the file is re-recorded after a deliberate change.

std::uint64_t event_digest(const core::EmbeddingTrace& trace) {
  test::Fnv h;
  for (const core::SolveEvent& e : trace.events()) {
    if (core::category(e.kind) == core::TraceCategory::Cache) continue;
    h.add(static_cast<std::uint64_t>(e.kind));
    h.add(static_cast<std::uint64_t>(e.i0));
    h.add(static_cast<std::uint64_t>(e.i1));
    h.add(static_cast<std::uint64_t>(e.i2));
    h.add(e.v0);
    h.add(e.v1);
    h.add(e.s0);
  }
  return h.value();
}

/// A Table 2 instance (sim::make_scenario) or a tests/corpus/ instance.
struct GoldenInstance {
  std::string corpus;  ///< non-empty: load tests/corpus/<corpus>.*.txt
  std::size_t nodes = 100;
  std::size_t sfc_size = 3;
  std::uint64_t seed = 1;
  /// Partly consumed ledger: capacities 2.0, ~30% of links and instances
  /// debited by 0.5–1.6, so a rate-0.7 flow finds some of them unusable.
  bool consumed = false;
};

struct GoldenSolve {
  std::string name;
  GoldenInstance inst;
  core::BacktrackingOptions opts;
  double rate = 1.0;
  bool traced = false;
  /// When set, the delay budget is the unconstrained winner's critical-path
  /// delay plus this slack: 0 prunes every slower sub-solution but keeps
  /// the winner, a negative slack prunes the winner too.
  std::optional<double> delay_slack;
};

void PrintTo(const GoldenSolve& c, std::ostream* os) { *os << c.name; }

core::BacktrackingOptions bbe_options() { return {}; }

/// MbbeEmbedder's preset, spelled out so the paths knobs can vary.
core::BacktrackingOptions mbbe_options() {
  core::BacktrackingOptions o;
  o.min_cost_path_instantiation = true;
  o.x_max = 50;
  o.x_d = 4;
  return o;
}

std::vector<GoldenSolve> golden_solves() {
  const GoldenInstance small{"", 100, 3, 11};
  const GoldenInstance mid{"", 100, 5, 12};
  const GoldenInstance wide{"", 200, 4, 13};
  const GoldenInstance deep{"", 200, 7, 14};
  const GoldenInstance table2{"", 500, 5, 15};
  const GoldenInstance table2_long{"", 500, 9, 16};
  const GoldenInstance consumed{"", 100, 4, 17, true};
  const GoldenInstance consumed_wide{"", 200, 5, 18, true};

  std::vector<GoldenSolve> out;
  const auto add = [&](const std::string& name, const GoldenInstance& inst,
                       core::BacktrackingOptions o) -> GoldenSolve& {
    GoldenSolve c;
    c.name = name;
    c.inst = inst;
    c.opts = std::move(o);
    out.push_back(std::move(c));
    return out.back();
  };
  const auto with = [](core::BacktrackingOptions o, auto&& edit) {
    edit(o);
    return o;
  };

  // Defaults: the fig6 configuration on instances of its own shape.
  for (const auto& [tag, inst] :
       std::vector<std::pair<std::string, GoldenInstance>>{
           {"small", small}, {"mid", mid}, {"wide", wide},
           {"table2", table2}}) {
    add("bbe_defaults_" + tag, inst, bbe_options());
    add("mbbe_defaults_" + tag, inst, mbbe_options());
  }
  add("mbbe_defaults_deep", deep, mbbe_options());
  add("mbbe_defaults_table2_long", table2_long, mbbe_options());
  add("bbe_defaults_table2_traced", table2, bbe_options()).traced = true;
  add("mbbe_defaults_table2_long_traced", table2_long, mbbe_options())
      .traced = true;

  // Alternative real-paths: Yen inside the search trees (BBE) or on the
  // residual network (MBBE), and a binding combination cap.
  for (const std::size_t k : {2u, 3u}) {
    const std::string ks = std::to_string(k);
    const auto paths = [k](core::BacktrackingOptions& o) {
      o.paths_per_meta_path = k;
    };
    add("bbe_paths" + ks + "_small", small, with(bbe_options(), paths));
    add("bbe_paths" + ks + "_mid", mid, with(bbe_options(), paths));
    add("mbbe_paths" + ks + "_mid", mid, with(mbbe_options(), paths));
    add("mbbe_paths" + ks + "_wide", wide, with(mbbe_options(), paths));
    add("mbbe_paths" + ks + "_deep", deep, with(mbbe_options(), paths));
  }
  add("bbe_paths2_mid_traced", mid,
      with(bbe_options(),
           [](core::BacktrackingOptions& o) { o.paths_per_meta_path = 2; }))
      .traced = true;
  add("mbbe_paths3_wide_traced", wide,
      with(mbbe_options(),
           [](core::BacktrackingOptions& o) { o.paths_per_meta_path = 3; }))
      .traced = true;
  const auto combos1 = [](core::BacktrackingOptions& o) {
    o.paths_per_meta_path = 3;
    o.max_path_combos = 1;
  };
  add("bbe_paths3_combos1_mid", mid, with(bbe_options(), combos1));
  add("mbbe_paths3_combos1_wide", wide, with(mbbe_options(), combos1));
  add("mbbe_paths3_combos1_deep_traced", deep, with(mbbe_options(), combos1))
      .traced = true;

  // Delay budgets that prune: at the winner's own delay (slower
  // sub-solutions go) and one hop below it (the winner goes too).
  for (const auto& [tag, inst] :
       std::vector<std::pair<std::string, GoldenInstance>>{
           {"small", small}, {"mid", mid}, {"wide", wide}}) {
    add("bbe_delay_" + tag, inst, bbe_options()).delay_slack = 0.0;
    add("mbbe_delay_" + tag, inst, mbbe_options()).delay_slack = 0.0;
  }
  add("mbbe_delay_deep_traced", deep, mbbe_options()).delay_slack = 0.0;
  out.back().traced = true;
  add("bbe_delay_tight_mid", mid, bbe_options()).delay_slack = -1.0;
  add("bbe_paths2_delay_tight_mid", mid,
      with(bbe_options(),
           [](core::BacktrackingOptions& o) { o.paths_per_meta_path = 2; }))
      .delay_slack = -1.0;
  add("mbbe_delay_tight_deep_traced", deep, mbbe_options()).delay_slack =
      -1.0;
  out.back().traced = true;

  // X_max = 1: every layer exhausts under the cap and retries uncapped.
  const auto xmax1 = [](core::BacktrackingOptions& o) { o.x_max = 1; };
  add("mbbe_xmax1_mid", mid, with(mbbe_options(), xmax1));
  add("mbbe_xmax1_wide", wide, with(mbbe_options(), xmax1));
  add("mbbe_xmax1_deep_traced", deep, with(mbbe_options(), xmax1)).traced =
      true;

  // Binding safety valves: a small pool, few allocations per FST-BST
  // pair, and X_d = 1.
  const auto caps = [](core::BacktrackingOptions& o) {
    o.max_pool = 6;
    o.max_assignments_per_pair = 2;
  };
  add("bbe_caps_mid", mid, with(bbe_options(), caps));
  add("bbe_caps_wide", wide, with(bbe_options(), caps));
  add("bbe_caps_table2_traced", table2, with(bbe_options(), caps)).traced =
      true;
  add("mbbe_caps_deep", deep, with(mbbe_options(), caps));
  add("mbbe_caps_table2_long_traced", table2_long,
      with(mbbe_options(), caps))
      .traced = true;
  add("mbbe_xd1_deep", deep,
      with(mbbe_options(), [](core::BacktrackingOptions& o) { o.x_d = 1; }));

  // A rate-0.7 flow on a partly consumed ledger.
  for (const auto& [tag, inst] :
       std::vector<std::pair<std::string, GoldenInstance>>{
           {"consumed", consumed}, {"consumed_wide", consumed_wide}}) {
    add("bbe_rate07_" + tag, inst, bbe_options()).rate = 0.7;
    add("mbbe_rate07_" + tag, inst, mbbe_options()).rate = 0.7;
    add("bbe_paths2_rate07_" + tag, inst,
        with(bbe_options(),
             [](core::BacktrackingOptions& o) { o.paths_per_meta_path = 2; }))
        .rate = 0.7;
    add("mbbe_paths3_rate07_" + tag, inst,
        with(mbbe_options(),
             [](core::BacktrackingOptions& o) { o.paths_per_meta_path = 3; }))
        .rate = 0.7;
  }
  add("mbbe_rate07_consumed_wide_traced", consumed_wide, mbbe_options());
  out.back().rate = 0.7;
  out.back().traced = true;

  // Recorded with the path cache off (every query computed directly); the
  // cached search must reproduce them.
  add("bbe_nocache_mid", mid, bbe_options());
  add("mbbe_nocache_deep", deep, mbbe_options());
  add("mbbe_paths2_nocache_wide", wide,
      with(mbbe_options(),
           [](core::BacktrackingOptions& o) { o.paths_per_meta_path = 2; }));

  // The serialized corpus, traced.
  for (const char* name : {"ring12", "leafspine14", "waxman20", "tightline5"}) {
    GoldenInstance inst;
    inst.corpus = name;
    add(std::string("bbe_corpus_") + name, inst, bbe_options()).traced = true;
    add(std::string("mbbe_corpus_") + name, inst, mbbe_options()).traced =
        true;
  }
  return out;
}

/// The instance a case solves, with lifetime-stable problem and index.
struct GoldenProblem {
  std::unique_ptr<net::Network> network;
  sfc::DagSfc dag;
  core::EmbeddingProblem problem;
  std::unique_ptr<core::ModelIndex> index;
  std::unique_ptr<net::CapacityLedger> ledger;
};

std::unique_ptr<GoldenProblem> golden_problem(const GoldenSolve& c) {
  auto p = std::make_unique<GoldenProblem>();
  const GoldenInstance& inst = c.inst;
  core::Flow flow;
  if (!inst.corpus.empty()) {
    const std::string dir = std::string(DAGSFC_CORPUS_DIR) + "/";
    p->network = std::make_unique<net::Network>(
        net::network_from_text(slurp(dir + inst.corpus + ".net.txt")));
    sfc::SfcFile file = sfc::sfc_from_text(slurp(dir + inst.corpus +
                                                 ".sfc.txt"));
    p->dag = std::move(file.dag);
    flow = core::Flow{file.flow->source, file.flow->destination,
                      file.flow->rate, file.flow->size};
  } else {
    sim::ExperimentConfig cfg;
    cfg.network_size = inst.nodes;
    cfg.sfc_size = inst.sfc_size;
    if (inst.consumed) {
      cfg.link_capacity = 2.0;
      cfg.vnf_capacity = 2.0;
    }
    Rng rng(inst.seed);
    sim::Scenario sc = sim::make_scenario(rng, cfg);
    p->network = std::make_unique<net::Network>(std::move(sc.network));
    p->dag = sim::make_sfc(rng, p->network->catalog(), cfg);
    flow = core::Flow{sc.source, sc.destination, 1.0, 1.0};
  }
  flow.rate = c.inst.corpus.empty() ? c.rate : flow.rate;
  p->problem.network = p->network.get();
  p->problem.sfc = &p->dag;
  p->problem.flow = flow;
  p->index = std::make_unique<core::ModelIndex>(p->problem);
  p->ledger = std::make_unique<net::CapacityLedger>(*p->network);
  if (inst.consumed) {
    Rng crng(inst.seed ^ 0xc0ffeeULL);
    for (graph::EdgeId e = 0; e < p->network->num_links(); ++e) {
      if (crng.uniform_real(0.0, 1.0) < 0.3) {
        p->ledger->consume_link(e, crng.uniform_real(0.5, 1.6));
      }
    }
    for (net::InstanceId id = 0; id < p->network->num_instances(); ++id) {
      if (crng.uniform_real(0.0, 1.0) < 0.3) {
        p->ledger->consume_instance(id, crng.uniform_real(0.5, 1.6));
      }
    }
  }
  return p;
}

/// Solves case \p c and renders its row.
std::string golden_row(const GoldenSolve& c) {
  const auto p = golden_problem(c);
  core::BacktrackingOptions opts = c.opts;
  if (c.delay_slack) {
    const core::BbeEmbedder free_run(opts);
    Rng rng(1);
    const auto r = free_run.solve(*p->index, *p->ledger, rng);
    if (r.ok()) {
      const core::Evaluator ev(*p->index);
      opts.delay_budget_ms =
          core::end_to_end_delay(ev, *r.solution, opts.delay_model) +
          *c.delay_slack;
    }
  }
  const core::BbeEmbedder engine(opts);
  core::EmbeddingTrace trace;
  Rng rng(1);
  const auto r = engine.solve(*p->index, *p->ledger, rng,
                              c.traced ? &trace : nullptr);
  return test::golden_row(
      c.name, r, c.traced ? test::hex(event_digest(trace)) : "-");
}

/// name → recorded row.
const std::map<std::string, std::string>& golden_rows() {
  static const std::map<std::string, std::string> rows = test::load_golden(
      std::string(DAGSFC_CORPUS_DIR) + "/backtracking_golden.txt");
  return rows;
}

class BacktrackingGolden : public ::testing::TestWithParam<GoldenSolve> {};

TEST_P(BacktrackingGolden, RowMatches) {
  const GoldenSolve& c = GetParam();
  const std::string row = golden_row(c);
  const auto& rows = golden_rows();
  const auto it = rows.find(c.name);
  ASSERT_NE(it, rows.end()) << "no recorded row; computed row:\n" << row;
  EXPECT_EQ(row, it->second);
}

INSTANTIATE_TEST_SUITE_P(
    Solves, BacktrackingGolden, ::testing::ValuesIn(golden_solves()),
    [](const ::testing::TestParamInfo<GoldenSolve>& solve) {
      return solve.param.name;
    });

}  // namespace
}  // namespace dagsfc
