/// Tests for the epoch-keyed ALT distance oracle (graph/oracle.hpp), the
/// goal-directed kernels it feeds (dijkstra.cpp, yen.cpp) and the batched
/// search tier (multi-source layered Dijkstra, multi-target early exit, the
/// batched Steiner base case). The contract throughout is the flat tier's:
/// bit-identity. Oracle-on answers must equal oracle-off answers exactly —
/// for every primitive, and for every embedder's end-to-end SolveResult —
/// because the landmark bounds only ever *prune* work the unpruned run
/// provably never needed (DESIGN.md §13).
///
/// The OracleConcurrent suite is the TSan target of scripts/check.sh's
/// oracle pass: one immutable oracle shared by many querying threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "core/backtracking.hpp"
#include "core/baselines.hpp"
#include "core/exact.hpp"
#include "core/layered.hpp"
#include "core/path_oracle.hpp"
#include "core/validator.hpp"
#include "graph/dijkstra.hpp"
#include "graph/generator.hpp"
#include "graph/oracle.hpp"
#include "graph/reference.hpp"
#include "graph/steiner.hpp"
#include "graph/workspace.hpp"
#include "graph/yen.hpp"
#include "net/io.hpp"
#include "sfc/io.hpp"
#include "shard/hier.hpp"
#include "shard/partition.hpp"
#include "shard/substrate.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"
#include "util/metrics.hpp"

#ifndef DAGSFC_CORPUS_DIR
#error "DAGSFC_CORPUS_DIR must be defined by the build"
#endif

namespace dagsfc {
namespace {

/// Pins the process-wide search-tier switch for one test and restores it.
struct FlagGuard {
  bool saved = graph::flat_search_default();
  ~FlagGuard() { graph::set_flat_search_default(saved); }
};

graph::Graph random_weighted_graph(std::size_t n, double degree,
                                   std::uint64_t seed) {
  Rng rng(seed);
  graph::RandomGraphOptions opts;
  opts.num_nodes = n;
  opts.average_degree = degree;
  graph::Graph g = random_connected_graph(rng, opts);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    g.set_weight(e, rng.uniform_real(1.0, 10.0));
  }
  return g;
}

/// A random ~80%-permissive allow-set, expressed both ways: as the seed's
/// EdgeFilter and as the flat tier's EdgeMask over the same bits.
struct AllowSet {
  std::vector<char> allow;
  graph::EdgeMaskBuffer mask;
  graph::EdgeMask view;

  AllowSet(const graph::Graph& g, Rng& rng) {
    allow.resize(g.num_edges());
    mask.assign(g.num_edges(), false);
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      allow[e] = rng.uniform_real(0.0, 1.0) < 0.8 ? 1 : 0;
      if (allow[e]) mask.set(e);
    }
    view = mask.view();
  }
  [[nodiscard]] graph::EdgeFilter filter() const {
    return [this](graph::EdgeId e) { return allow[e] != 0; };
  }
};

void expect_same_path(const graph::Path& a, const graph::Path& b) {
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.cost, b.cost);  // bit-identical, not approximate
}

void expect_same_opt_path(const std::optional<graph::Path>& a,
                          const std::optional<graph::Path>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (a) expect_same_path(*a, *b);
}

/// Relative slack for the *bound* checks only (the bounds are sums of
/// independently rounded Dijkstra results, so last-ulp drift is expected).
/// Path comparisons above stay bitwise.
constexpr double kRelSlack = 1e-9;

// ---------------------------------------------------------------------------
// Bound semantics: admissibility, consistency, determinism.

TEST(OracleBounds, AdmissibleAndConsistentOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const graph::Graph g = random_weighted_graph(40, 4.0, seed);
    const graph::DistanceOracle oracle(g);
    ASSERT_TRUE(oracle.active());
    ASSERT_GT(oracle.num_landmarks(), 0u);

    for (graph::NodeId s = 0; s < 5; ++s) {
      const auto ref = graph::reference::dijkstra(g, s);
      for (graph::NodeId t = 0; t < g.num_nodes(); ++t) {
        const double d = ref.dist[t];
        const double lb = oracle.lower_bound(s, t);
        const double ub = oracle.upper_bound(s, t);
        EXPECT_LE(lb, d * (1.0 + kRelSlack) + kRelSlack)
            << "inadmissible lower bound for " << s << "->" << t;
        EXPECT_GE(ub * (1.0 + kRelSlack) + kRelSlack, d)
            << "invalid upper bound for " << s << "->" << t;
        EXPECT_GE(lb, 0.0);
      }
      EXPECT_EQ(oracle.lower_bound(s, s), 0.0);  // exact: x - x == 0
    }

    // Consistency (the 1-Lipschitz property the write-prune proof leans
    // on): across any edge, the bound toward a fixed target moves by at
    // most the edge weight.
    for (graph::NodeId t = 0; t < 6; ++t) {
      for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
        const graph::Edge& edge = g.edge(e);
        const double a = oracle.lower_bound(edge.u, t);
        const double b = oracle.lower_bound(edge.v, t);
        const double gap = a < b ? b - a : a - b;
        EXPECT_LE(gap, edge.weight * (1.0 + kRelSlack) + kRelSlack)
            << "inconsistent bounds across edge " << e;
      }
    }
  }
}

TEST(OracleBounds, SelectionAndQueriesAreDeterministic) {
  const graph::Graph g = random_weighted_graph(30, 4.0, 77);
  const graph::DistanceOracle a(g);
  const graph::DistanceOracle b(g);
  ASSERT_TRUE(a.active());
  const auto la = a.landmarks();
  const auto lb = b.landmarks();
  ASSERT_EQ(la.size(), lb.size());
  EXPECT_TRUE(std::equal(la.begin(), la.end(), lb.begin()));

  const graph::AltQuery qa = a.query(3, 17, /*seed_upper_bound=*/true);
  const graph::AltQuery qb = b.query(3, 17, /*seed_upper_bound=*/true);
  ASSERT_EQ(qa.active, qb.active);
  ASSERT_GT(qa.active, 0u);
  ASSERT_LE(qa.active, graph::AltQuery::kMaxActive);
  EXPECT_EQ(qa.seed_ub, qb.seed_ub);
  for (std::uint32_t i = 0; i < qa.active; ++i) {
    EXPECT_EQ(qa.to_target[i], qb.to_target[i]);
  }
  // The per-query subset can only be as tight as the all-landmark bound,
  // and the seeded upper bound must dominate the truth.
  const auto ref = graph::reference::min_cost_path(g, 3, 17);
  ASSERT_TRUE(ref.has_value());
  EXPECT_LE(qa.lower_bound(3), ref->cost * (1.0 + kRelSlack));
  EXPECT_GE(qa.seed_ub * (1.0 + kRelSlack), ref->cost);
  EXPECT_EQ(qa.lower_bound(17), 0.0);
}

// ---------------------------------------------------------------------------
// Epoch keying: repricing refreshes, structural drift rebuilds.

TEST(OracleEpochs, WeightDriftRefreshesStructureDriftRebuilds) {
  util::MetricRegistry registry;
  graph::Graph g = random_weighted_graph(20, 3.0, 5);
  graph::DistanceOracle::Options opts;
  opts.landmarks = 4;
  opts.registry = &registry;
  graph::DistanceOracle oracle(g, opts);
  EXPECT_EQ(oracle.builds(), 1u);
  EXPECT_EQ(oracle.refreshes(), 0u);
  EXPECT_TRUE(oracle.fresh());
  EXPECT_TRUE(oracle.matches(g));

  const std::vector<graph::NodeId> before(oracle.landmarks().begin(),
                                          oracle.landmarks().end());

  // Repricing: stale until ensure_current, which refreshes in place —
  // same landmark positions, tables rebuilt over the new weights.
  g.set_weight(0, 123.0);
  EXPECT_FALSE(oracle.fresh());
  EXPECT_FALSE(oracle.matches(g));
  oracle.ensure_current();
  EXPECT_EQ(oracle.builds(), 1u);
  EXPECT_EQ(oracle.refreshes(), 1u);
  EXPECT_TRUE(oracle.matches(g));
  const std::vector<graph::NodeId> after_refresh(oracle.landmarks().begin(),
                                                 oracle.landmarks().end());
  EXPECT_EQ(before, after_refresh);
  for (graph::NodeId s = 0; s < 4; ++s) {
    const auto ref = graph::reference::dijkstra(g, s);
    for (graph::NodeId t = 0; t < g.num_nodes(); ++t) {
      EXPECT_LE(oracle.lower_bound(s, t),
                ref.dist[t] * (1.0 + kRelSlack) + kRelSlack);
    }
  }

  // Structural drift: a full rebuild (landmark re-selection included).
  g.add_edge(0, g.num_nodes() - 1, 0.5);
  EXPECT_FALSE(oracle.matches(g));
  oracle.ensure_current();
  EXPECT_EQ(oracle.builds(), 2u);
  EXPECT_EQ(oracle.refreshes(), 1u);
  EXPECT_TRUE(oracle.matches(g));

  // ensure_current is a no-op when fresh.
  oracle.ensure_current();
  EXPECT_EQ(oracle.builds(), 2u);
  EXPECT_EQ(oracle.refreshes(), 1u);

  // A different Graph object never matches, fresh or not.
  const graph::Graph other = random_weighted_graph(20, 3.0, 5);
  EXPECT_FALSE(oracle.matches(other));

  EXPECT_EQ(registry.counter("dagsfc_oracle_builds_total").value(), 2u);
  EXPECT_EQ(registry.counter("dagsfc_oracle_refreshes_total").value(), 1u);
}

TEST(OracleEpochs, DisconnectedGraphDisablesPruning) {
  graph::Graph g = random_weighted_graph(12, 3.0, 9);
  const graph::NodeId isolated = g.add_node();
  const graph::DistanceOracle oracle(g);
  EXPECT_FALSE(oracle.active());
  EXPECT_FALSE(oracle.matches(g));
  EXPECT_EQ(oracle.lower_bound(0, isolated), 0.0);
  EXPECT_EQ(oracle.upper_bound(0, isolated), graph::kInfCost);

  const graph::AltQuery alt = oracle.query(0, 5, /*seed_upper_bound=*/true);
  EXPECT_EQ(alt.active, 0u);
  EXPECT_EQ(alt.seed_ub, graph::kInfCost);

  // An inactive AltQuery routes to the plain kernel — identical results.
  graph::SearchWorkspace ws1, ws2;
  expect_same_opt_path(graph::min_cost_path(g, 0, 5, ws1, nullptr, alt),
                       graph::min_cost_path(g, 0, 5, ws2, nullptr));
}

// ---------------------------------------------------------------------------
// Goal-directed kernels: pruned == plain, bitwise, and pruning fires.

TEST(GoalDirected, PointToPointPrunedEqualsPlainEverywhere) {
  graph::SearchWorkspace pruned_ws, plain_ws;
  graph::PruneStats stats;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const graph::Graph g = random_weighted_graph(48, 4.0, seed);
    const graph::DistanceOracle oracle(g);
    ASSERT_TRUE(oracle.active());
    Rng rng(seed * 31);
    const AllowSet set(g, rng);
    for (graph::NodeId s = 0; s < 4; ++s) {
      for (graph::NodeId t = 0; t < g.num_nodes(); ++t) {
        // Unmasked: the query may seed the landmark-routed upper bound.
        graph::AltQuery alt = oracle.query(s, t, /*seed_upper_bound=*/true);
        alt.stats = &stats;
        expect_same_opt_path(
            graph::min_cost_path(g, s, t, pruned_ws, nullptr, alt),
            graph::min_cost_path(g, s, t, plain_ws, nullptr));
        // Masked: lower bounds stay admissible, the seed must stay off.
        graph::AltQuery masked = oracle.query(s, t, /*seed_upper_bound=*/false);
        masked.stats = &stats;
        EXPECT_EQ(masked.seed_ub, graph::kInfCost);
        expect_same_opt_path(
            graph::min_cost_path(g, s, t, pruned_ws, &set.view, masked),
            graph::min_cost_path(g, s, t, plain_ws, &set.view));
      }
    }
  }
  // The whole point: the identical answers must have cost less work.
  EXPECT_GT(stats.tested, 0u);
  EXPECT_GT(stats.pruned, 0u);
}

TEST(GoalDirected, YenPrunedEqualsPlain) {
  graph::SearchWorkspace pruned_ws, plain_ws;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const graph::Graph g = random_weighted_graph(36, 4.0, seed);
    const graph::DistanceOracle oracle(g);
    ASSERT_TRUE(oracle.active());
    Rng rng(seed * 101);
    const AllowSet set(g, rng);
    for (const auto& [s, t] :
         {std::pair<graph::NodeId, graph::NodeId>{0, 35}, {7, 20}, {3, 3}}) {
      const graph::AltQuery open = oracle.query(s, t, /*seed_upper_bound=*/true);
      const auto pruned =
          graph::k_shortest_paths(g, s, t, 4, nullptr, pruned_ws, open);
      const auto plain = graph::k_shortest_paths(g, s, t, 4, nullptr, plain_ws);
      ASSERT_EQ(pruned.size(), plain.size());
      for (std::size_t i = 0; i < pruned.size(); ++i) {
        expect_same_path(pruned[i], plain[i]);
      }
      const graph::AltQuery closed =
          oracle.query(s, t, /*seed_upper_bound=*/false);
      const auto pruned_m =
          graph::k_shortest_paths(g, s, t, 4, &set.view, pruned_ws, closed);
      const auto plain_m =
          graph::k_shortest_paths(g, s, t, 4, &set.view, plain_ws);
      ASSERT_EQ(pruned_m.size(), plain_m.size());
      for (std::size_t i = 0; i < pruned_m.size(); ++i) {
        expect_same_path(pruned_m[i], plain_m[i]);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Batched tier: one heap pass == k standalone passes, bitwise.

TEST(Batched, MultiSourceEqualsStandaloneRuns) {
  graph::SearchWorkspace batch_ws, solo_ws;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const graph::Graph g = random_weighted_graph(40, 4.0, seed);
    Rng rng(seed * 7);
    const AllowSet set(g, rng);
    // Duplicate source on purpose: layers are independent even then.
    const std::vector<graph::NodeId> sources{0, 13, 7, 13, 29, 1};
    for (const graph::EdgeMask* mask : {(const graph::EdgeMask*)nullptr,
                                        &set.view}) {
      graph::multi_source_dijkstra_into(g, sources, batch_ws, mask);
      const graph::MultiSourceView bank(batch_ws, g, sources.size());
      ASSERT_EQ(bank.num_layers(), sources.size());
      for (std::size_t layer = 0; layer < sources.size(); ++layer) {
        graph::dijkstra_into(g, sources[layer], solo_ws, mask);
        const auto solo = graph::export_tree(solo_ws, g.num_nodes());
        for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
          EXPECT_EQ(bank.reached(layer, v), solo.reached(v));
          EXPECT_EQ(bank.dist(layer, v), solo.dist[v]);
          EXPECT_EQ(bank.parent(layer, v), solo.parent[v]);
          EXPECT_EQ(bank.parent_edge(layer, v), solo.parent_edge[v]);
        }
      }
    }
  }
}

TEST(Batched, MultiTargetEqualsEarlyExitRuns) {
  graph::SearchWorkspace batch_ws, solo_ws;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    graph::Graph g = random_weighted_graph(40, 4.0, seed);
    const graph::NodeId isolated = g.add_node();  // guaranteed unreachable
    Rng rng(seed * 19);
    const AllowSet set(g, rng);
    // Duplicates and the source itself are both legal targets.
    const std::vector<graph::NodeId> targets{5, 22, 5, 0, 31, isolated};
    for (const graph::EdgeMask* mask : {(const graph::EdgeMask*)nullptr,
                                        &set.view}) {
      graph::dijkstra_into_targets(g, 0, targets, batch_ws, mask);
      for (const graph::NodeId t : targets) {
        expect_same_opt_path(graph::extract_path(batch_ws, t),
                             graph::min_cost_path(g, 0, t, solo_ws, mask));
      }
    }
  }
}

TEST(Batched, SteinerMatchesReferenceUnderMasks) {
  graph::SearchWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const graph::Graph g = random_weighted_graph(24, 3.5, seed);
    Rng rng(seed * 131);
    const AllowSet set(g, rng);
    for (std::size_t k = 1; k <= 5; ++k) {
      std::vector<graph::NodeId> terms;
      for (std::size_t i = 0; i < k; ++i) {
        terms.push_back(static_cast<graph::NodeId>(rng.index(g.num_nodes())));
      }
      const auto flat = graph::steiner_tree(g, terms, &set.view, ws);
      const auto ref = graph::reference::steiner_tree(g, terms, set.filter());
      ASSERT_EQ(flat.has_value(), ref.has_value());
      if (!flat) continue;
      EXPECT_EQ(flat->cost, ref->cost);  // bit-identical, not approximate
      auto fe = flat->edges;
      auto re = ref->edges;
      std::sort(fe.begin(), fe.end());
      std::sort(re.begin(), re.end());
      EXPECT_EQ(fe, re);
    }
  }
}

// ---------------------------------------------------------------------------
// PathOracle-level batching: min_cost_paths == per-target queries, with one
// dijkstra_call for the whole fan-out.

TEST(Batched, PathOracleMinCostPathsMatchesPerTarget) {
  const FlagGuard guard;
  graph::set_flat_search_default(true);
  auto fx = test::canonical_fixture();
  net::CapacityLedger ledger(fx->network);
  ledger.set_cache_enabled(false);
  graph::SearchWorkspace ws;
  core::PathOracle batched(fx->network.topology(), ledger, 1.0, &ws);
  core::PathOracle single(fx->network.topology(), ledger, 1.0);

  const std::vector<graph::NodeId> targets{4, 2, 4, 0, 5};
  const auto got = batched.min_cost_paths(0, targets);
  ASSERT_EQ(got.size(), targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    expect_same_opt_path(got[i], single.min_cost_path(0, targets[i]));
  }
  // One batched pass, not |targets| early-exit runs.
  EXPECT_EQ(batched.counters().dijkstra_calls, 1u);
  EXPECT_EQ(single.counters().dijkstra_calls, targets.size());
}

// ---------------------------------------------------------------------------
// Embedder-level differential: oracle-on vs oracle-off, end to end. Mirrors
// the flat-vs-reference harness in test_search_flat.cpp, with the workspace
// attachment as the only difference between the arms.

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing corpus file " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void expect_identical(const core::SolveResult& on,
                      const core::SolveResult& off) {
  ASSERT_EQ(on.ok(), off.ok())
      << on.failure_reason << " vs " << off.failure_reason;
  EXPECT_EQ(on.failure_reason, off.failure_reason);
  EXPECT_EQ(on.expanded_sub_solutions, off.expanded_sub_solutions);
  EXPECT_EQ(on.candidate_solutions, off.candidate_solutions);
  if (!on.ok()) return;
  EXPECT_EQ(on.cost, off.cost);  // bit-identical, not approximate
  ASSERT_TRUE(off.solution.has_value());
  EXPECT_EQ(on.solution->placement, off.solution->placement);
  ASSERT_EQ(on.solution->inter_paths.size(), off.solution->inter_paths.size());
  for (std::size_t i = 0; i < on.solution->inter_paths.size(); ++i) {
    expect_same_path(on.solution->inter_paths[i],
                     off.solution->inter_paths[i]);
  }
  ASSERT_EQ(on.solution->inner_paths.size(), off.solution->inner_paths.size());
  for (std::size_t i = 0; i < on.solution->inner_paths.size(); ++i) {
    expect_same_path(on.solution->inner_paths[i],
                     off.solution->inner_paths[i]);
  }
}

core::SolveResult solve_through(const core::Embedder& algo,
                                const core::ModelIndex& index,
                                graph::SearchWorkspace* ws,
                                std::uint64_t rng_seed) {
  graph::set_flat_search_default(true);
  net::CapacityLedger ledger(index.problem().net());
  ledger.set_cache_enabled(false);
  Rng rng(rng_seed);
  return algo.solve(index, ledger, rng, nullptr, ws);
}

struct EmbedderSet {
  core::RanvEmbedder ranv;
  core::MinvEmbedder minv;
  core::BbeEmbedder bbe;
  core::MbbeEmbedder mbbe;
  core::ExactEmbedder exact{core::ExactOptions{50'000'000}};
  core::LayeredEmbedder layered{core::LayeredOptions{
      .delay_budget_ms = std::nullopt,
      .delay_model = {},
      .max_work = 50'000'000,
      .max_labels = 2'000'000}};

  [[nodiscard]] std::vector<const core::Embedder*> all() const {
    return {&ranv, &minv, &bbe, &mbbe, &exact, &layered};
  }
};

/// Runs every flat embedder (plus HIER over a stripe partition when the
/// network is large enough) with and without the oracle attached to its
/// workspace; returns the total prune tests the oracle-on arm performed.
std::uint64_t run_oracle_differential(const core::ModelIndex& index,
                                      std::uint64_t seed) {
  const net::Network& network = index.problem().net();
  const graph::DistanceOracle oracle(network.topology());
  std::uint64_t tested = 0;

  const EmbedderSet set;
  std::vector<const core::Embedder*> algos = set.all();
  std::unique_ptr<shard::ShardedSubstrate> substrate;
  std::unique_ptr<shard::HierarchicalEmbedder> hier;
  if (network.num_nodes() >= 6) {
    substrate = std::make_unique<shard::ShardedSubstrate>(
        network, shard::make_partition(network.topology(), 3,
                                       shard::PartitionScheme::kStripe));
    hier = std::make_unique<shard::HierarchicalEmbedder>(*substrate);
    algos.push_back(hier.get());
  }

  for (const core::Embedder* algo : algos) {
    SCOPED_TRACE(algo->name());
    graph::SearchWorkspace on_ws, off_ws;
    on_ws.set_distance_oracle(&oracle);
    const auto on = solve_through(*algo, index, &on_ws, seed);
    const auto off = solve_through(*algo, index, &off_ws, seed);
    expect_identical(on, off);
    EXPECT_EQ(off.path_queries.oracle_tested, 0u);
    tested += on.path_queries.oracle_tested;
  }
  return tested;
}

class OracleCorpusDifferential : public ::testing::TestWithParam<const char*> {
};

TEST_P(OracleCorpusDifferential, OracleOnOffIdentical) {
  const FlagGuard guard;
  const std::string dir = std::string(DAGSFC_CORPUS_DIR) + "/";
  net::Network network =
      net::network_from_text(slurp(dir + GetParam() + std::string(".net.txt")));
  const sfc::SfcFile file =
      sfc::sfc_from_text(slurp(dir + GetParam() + std::string(".sfc.txt")));
  ASSERT_TRUE(file.flow.has_value());

  core::EmbeddingProblem problem;
  problem.network = &network;
  problem.sfc = &file.dag;
  problem.flow = core::Flow{file.flow->source, file.flow->destination,
                            file.flow->rate, file.flow->size};
  const core::ModelIndex index(problem);
  (void)run_oracle_differential(index, /*seed=*/1);
}

INSTANTIATE_TEST_SUITE_P(Instances, OracleCorpusDifferential,
                         ::testing::Values("ring12", "leafspine14", "waxman20",
                                           "tightline5"),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

TEST(OracleDifferential, TwoHundredRandomInstancesOracleOnOffIdentical) {
  const FlagGuard guard;
  sim::ExperimentConfig cfg;
  cfg.network_size = 14;
  cfg.network_connectivity = 3.0;
  cfg.catalog_size = 6;
  cfg.sfc_size = 3;

  std::uint64_t total_tested = 0;
  Rng seeder(0xa17a17a17ull);
  for (int i = 0; i < 200; ++i) {
    SCOPED_TRACE("instance " + std::to_string(i));
    Rng rng(seeder.fork_seed());
    const sim::Scenario scenario = sim::make_scenario(rng, cfg);
    const sfc::DagSfc dag = sim::make_sfc(rng, scenario.network.catalog(), cfg);
    core::EmbeddingProblem problem;
    problem.network = &scenario.network;
    problem.sfc = &dag;
    problem.flow = core::Flow{scenario.source, scenario.destination, 1.0, 1.0};
    const core::ModelIndex index(problem);
    total_tested += run_oracle_differential(index, /*seed=*/3000 + i);
    if (::testing::Test::HasFailure()) break;  // one instance is enough
  }
  // Across 200 instances the pruned arm must actually have consulted the
  // oracle — otherwise the differential silently compared off vs off.
  EXPECT_GT(total_tested, 0u);
}

TEST(OracleDifferential, DirtyWorkspaceReuseChangesNothing) {
  const FlagGuard guard;
  auto fx = test::canonical_fixture();
  const graph::DistanceOracle oracle(fx->network.topology());
  const EmbedderSet set;
  graph::SearchWorkspace shared;
  shared.set_distance_oracle(&oracle);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    for (const core::Embedder* algo : set.all()) {
      SCOPED_TRACE(algo->name());
      const auto reused = solve_through(*algo, *fx->index, &shared, 4);
      graph::SearchWorkspace fresh;
      const auto baseline = solve_through(*algo, *fx->index, &fresh, 4);
      expect_identical(reused, baseline);
    }
  }
}

TEST(OracleDifferential, BorderDistanceSummariesMatchBruteForce) {
  // The kBorderDistance substrate mode feeds region transit prices from the
  // batched multi-source kernel; a per-pair early-exit Dijkstra over the
  // same intra-region subgraph must reproduce them.
  const graph::Graph topo = random_weighted_graph(24, 3.0, 11);
  net::Network network(graph::Graph(topo), net::VnfCatalog(2));
  const auto partition =
      shard::make_partition(network.topology(), 3,
                            shard::PartitionScheme::kStripe);
  const shard::ShardedSubstrate plain(network, partition);
  const shard::ShardedSubstrate summarized(
      network, partition, shard::SummaryMode::kBorderDistance);
  EXPECT_EQ(plain.summary_mode(), shard::SummaryMode::kMeanPrice);
  EXPECT_EQ(summarized.summary_mode(), shard::SummaryMode::kBorderDistance);

  const graph::Graph& g = network.topology();
  graph::SearchWorkspace ws;
  graph::EdgeMaskBuffer intra;
  for (shard::RegionId r = 0; r < 3; ++r) {
    const auto borders = summarized.border_nodes(r);
    if (borders.size() < 2) {
      EXPECT_EQ(summarized.transit_price(r), plain.transit_price(r));
      continue;
    }
    intra.assign(g.num_edges(), false);
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      const graph::Edge& edge = g.edge(e);
      if (partition.region(edge.u) == r && partition.region(edge.v) == r) {
        intra.set(e);
      }
    }
    const graph::EdgeMask mask = intra.view();
    double sum = 0.0;
    std::size_t pairs = 0;
    bool connected = true;
    for (std::size_t i = 0; i < borders.size() && connected; ++i) {
      for (std::size_t j = i + 1; j < borders.size(); ++j) {
        const auto p =
            graph::min_cost_path(g, borders[i], borders[j], ws, &mask);
        if (!p) {
          connected = false;
          break;
        }
        sum += p->cost;
        ++pairs;
      }
    }
    if (connected && pairs > 0) {
      EXPECT_EQ(summarized.transit_price(r), sum / static_cast<double>(pairs));
    } else {
      EXPECT_EQ(summarized.transit_price(r), plain.transit_price(r));
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrency: one immutable oracle, many querying threads (TSan target).

TEST(OracleConcurrent, SharedOracleConcurrentQueriesAgree) {
  const graph::Graph g = random_weighted_graph(60, 5.0, 3);
  const graph::DistanceOracle oracle(g);
  ASSERT_TRUE(oracle.active());

  // Single-threaded truth, unpruned.
  std::vector<double> truth(g.num_nodes(), graph::kInfCost);
  {
    graph::SearchWorkspace ws;
    for (graph::NodeId t = 0; t < g.num_nodes(); ++t) {
      if (const auto p = graph::min_cost_path(g, 0, t, ws)) truth[t] = p->cost;
    }
  }

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<char> ok(kThreads, 0);
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      graph::SearchWorkspace ws;  // workspaces are per-thread; the oracle
      bool all = true;            // tables are the shared read-only state
      for (graph::NodeId t = 0; t < g.num_nodes(); ++t) {
        const graph::AltQuery alt =
            oracle.query(0, t, /*seed_upper_bound=*/true);
        const auto p = graph::min_cost_path(g, 0, t, ws, nullptr, alt);
        all = all && p.has_value() && p->cost == truth[t];
      }
      ok[i] = all ? 1 : 0;
    });
  }
  for (auto& th : threads) th.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(ok[i], 1) << "thread " << i;
  }
}

}  // namespace
}  // namespace dagsfc
