/// Differential tests for the flat search tier (CSR + SearchWorkspace +
/// EdgeMask) against the frozen seed implementations in graph::reference.
/// The tier's core contract is bit-identity: same distances, same parents,
/// same tie-breaks, same paths — for every primitive and for every
/// embedder's end-to-end SolveResult. Mirrors tests/test_path_cache.cpp,
/// which establishes the same contract for the cache layer.
///
/// Also pins the CSR determinism contract (row order == insertion order)
/// and exercises the lazy concurrent CSR build; the Csr suite runs under
/// ThreadSanitizer in scripts/check.sh.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "core/backtracking.hpp"
#include "core/baselines.hpp"
#include "core/exact.hpp"
#include "core/layered.hpp"
#include "core/validator.hpp"
#include "graph/dijkstra.hpp"
#include "graph/generator.hpp"
#include "graph/reference.hpp"
#include "graph/steiner.hpp"
#include "graph/workspace.hpp"
#include "graph/yen.hpp"
#include "net/io.hpp"
#include "sfc/io.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"

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

// ---------------------------------------------------------------------------
// Primitive-level differential: every kernel, random graphs, random masks.

TEST(FlatPrimitives, DijkstraTreesMatchReferenceExactly) {
  graph::SearchWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const graph::Graph g = random_weighted_graph(40, 4.0, seed);
    Rng rng(seed * 977);
    const AllowSet set(g, rng);
    for (graph::NodeId s = 0; s < 5; ++s) {
      const auto ref = graph::reference::dijkstra(g, s, set.filter());
      graph::dijkstra_into(g, s, ws, &set.view);
      const auto flat = graph::export_tree(ws, g.num_nodes());
      EXPECT_EQ(ref.source, flat.source);
      EXPECT_EQ(ref.dist, flat.dist);
      EXPECT_EQ(ref.parent, flat.parent);
      EXPECT_EQ(ref.parent_edge, flat.parent_edge);

      // Unfiltered arms, and the legacy entry point's flat dispatch.
      const auto ref_open = graph::reference::dijkstra(g, s);
      graph::dijkstra_into(g, s, ws);
      const auto flat_open = graph::export_tree(ws, g.num_nodes());
      EXPECT_EQ(ref_open.dist, flat_open.dist);
      EXPECT_EQ(ref_open.parent, flat_open.parent);
      const auto dispatched = graph::dijkstra(g, s, set.filter());
      EXPECT_EQ(ref.dist, dispatched.dist);
      EXPECT_EQ(ref.parent, dispatched.parent);
    }
  }
}

TEST(FlatPrimitives, PointToPointMatchesReferenceExactly) {
  graph::SearchWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const graph::Graph g = random_weighted_graph(40, 4.0, seed);
    Rng rng(seed * 1013);
    const AllowSet set(g, rng);
    for (int q = 0; q < 10; ++q) {
      const auto s = static_cast<graph::NodeId>(rng.index(g.num_nodes()));
      const auto t = static_cast<graph::NodeId>(rng.index(g.num_nodes()));
      expect_same_opt_path(
          graph::reference::min_cost_path(g, s, t, set.filter()),
          graph::min_cost_path(g, s, t, ws, &set.view));
      expect_same_opt_path(graph::reference::min_cost_path(g, s, t),
                           graph::min_cost_path(g, s, t, ws));
    }
  }
}

TEST(FlatPrimitives, YenMatchesReferenceExactly) {
  graph::SearchWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const graph::Graph g = random_weighted_graph(30, 4.0, seed);
    Rng rng(seed * 31337);
    const AllowSet set(g, rng);
    for (int q = 0; q < 4; ++q) {
      const auto s = static_cast<graph::NodeId>(rng.index(g.num_nodes()));
      const auto t = static_cast<graph::NodeId>(rng.index(g.num_nodes()));
      if (s == t) continue;
      const auto ref =
          graph::reference::k_shortest_paths(g, s, t, 5, set.filter());
      const auto flat = graph::k_shortest_paths(g, s, t, 5, &set.view,
                                                ws);
      ASSERT_EQ(ref.size(), flat.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        expect_same_path(ref[i], flat[i]);
      }
      const auto ref_open = graph::reference::k_shortest_paths(g, s, t, 5);
      const auto flat_open = graph::k_shortest_paths(g, s, t, 5, nullptr, ws);
      ASSERT_EQ(ref_open.size(), flat_open.size());
      for (std::size_t i = 0; i < ref_open.size(); ++i) {
        expect_same_path(ref_open[i], flat_open[i]);
      }
    }
  }
}

TEST(FlatPrimitives, SteinerMatchesReferenceExactly) {
  graph::SearchWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const graph::Graph g = random_weighted_graph(25, 4.0, seed);
    Rng rng(seed * 7919);
    const AllowSet set(g, rng);
    std::vector<graph::NodeId> terminals;
    for (int i = 0; i < 4; ++i) {
      terminals.push_back(static_cast<graph::NodeId>(rng.index(g.num_nodes())));
    }
    const auto ref = graph::reference::steiner_tree(g, terminals, set.filter());
    const auto flat = graph::steiner_tree(g, terminals, &set.view, ws);
    ASSERT_EQ(ref.has_value(), flat.has_value());
    if (ref) {
      EXPECT_EQ(ref->cost, flat->cost);
      EXPECT_EQ(ref->edges, flat->edges);
    }
    const auto ref_open = graph::reference::steiner_tree(g, terminals);
    const auto flat_open = graph::steiner_tree(g, terminals, nullptr, ws);
    ASSERT_EQ(ref_open.has_value(), flat_open.has_value());
    if (ref_open) {
      EXPECT_EQ(ref_open->cost, flat_open->cost);
      EXPECT_EQ(ref_open->edges, flat_open->edges);
    }
  }
}

// ---------------------------------------------------------------------------
// CSR determinism and the lazy concurrent build.

TEST(Csr, RowOrderEqualsInsertionOrder) {
  // Edges added in a deliberately scrambled order; every CSR row must
  // replay its node's incidence list verbatim — the tie-break order every
  // deterministic search result depends on.
  graph::Graph g(6);
  g.add_edge(3, 1, 1.0);
  g.add_edge(0, 4, 1.0);
  g.add_edge(1, 0, 1.0);
  g.add_edge(5, 3, 1.0);
  g.add_edge(2, 1, 1.0);
  g.add_edge(0, 3, 1.0);
  const graph::CsrView view = g.csr();
  ASSERT_EQ(view.offsets.size(), g.num_nodes() + 1);
  ASSERT_EQ(view.incidence.size(), 2 * g.num_edges());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto row = view.row(v);
    const auto adj = g.neighbors(v);
    ASSERT_EQ(row.size(), adj.size()) << "node " << v;
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(row[i].edge, adj[i].edge) << "node " << v << " slot " << i;
      EXPECT_EQ(row[i].neighbor, adj[i].neighbor);
    }
  }
}

TEST(Csr, MutationInvalidatesAndRebuilds) {
  graph::Graph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_EQ(g.csr().row(0).size(), 1u);
  g.add_edge(0, 2, 1.0);  // invalidates the view built above
  const graph::CsrView rebuilt = g.csr();
  ASSERT_EQ(rebuilt.row(0).size(), 2u);
  EXPECT_EQ(rebuilt.row(0)[1].neighbor, 2u);
  const graph::NodeId n = g.add_node();
  EXPECT_EQ(g.csr().offsets.size(), g.num_nodes() + 1);
  EXPECT_TRUE(g.csr().row(n).empty());
}

TEST(Csr, ConcurrentFirstUseBuildsOnce) {
  // Many threads race the first csr() call on a quiescent graph; all must
  // observe the same complete view. Runs under TSan via scripts/check.sh.
  const graph::Graph g = random_weighted_graph(60, 5.0, 42);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::size_t> row_sums(kThreads, 0);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, &row_sums, t] {
      const graph::CsrView view = g.csr();
      std::size_t sum = 0;
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        sum += view.row(v).size();
      }
      row_sums[t] = sum;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(row_sums[t], 2 * g.num_edges());
  }
}

// ---------------------------------------------------------------------------
// Embedder-level differential: flat tier vs seed implementations, end to
// end, mirroring the cache-on/off harness in test_path_cache.cpp.

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing corpus file " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void expect_identical(const core::SolveResult& flat,
                      const core::SolveResult& ref) {
  ASSERT_EQ(flat.ok(), ref.ok())
      << flat.failure_reason << " vs " << ref.failure_reason;
  EXPECT_EQ(flat.failure_reason, ref.failure_reason);
  EXPECT_EQ(flat.expanded_sub_solutions, ref.expanded_sub_solutions);
  EXPECT_EQ(flat.candidate_solutions, ref.candidate_solutions);
  if (!flat.ok()) return;
  EXPECT_EQ(flat.cost, ref.cost);  // bit-identical, not approximate
  ASSERT_TRUE(ref.solution.has_value());
  EXPECT_EQ(flat.solution->placement, ref.solution->placement);
  ASSERT_EQ(flat.solution->inter_paths.size(),
            ref.solution->inter_paths.size());
  for (std::size_t i = 0; i < flat.solution->inter_paths.size(); ++i) {
    expect_same_path(flat.solution->inter_paths[i],
                     ref.solution->inter_paths[i]);
  }
  ASSERT_EQ(flat.solution->inner_paths.size(),
            ref.solution->inner_paths.size());
  for (std::size_t i = 0; i < flat.solution->inner_paths.size(); ++i) {
    expect_same_path(flat.solution->inner_paths[i],
                     ref.solution->inner_paths[i]);
  }
}

core::SolveResult solve_with(const core::Embedder& algo,
                             const core::ModelIndex& index, bool flat_on,
                             bool cache_on, std::uint64_t rng_seed) {
  graph::set_flat_search_default(flat_on);
  net::CapacityLedger ledger(index.problem().net());
  ledger.set_cache_enabled(cache_on);
  Rng rng(rng_seed);
  return algo.solve(index, ledger, rng);
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

void run_differential(const core::ModelIndex& index, std::uint64_t seed,
                      bool with_cache_arms) {
  const EmbedderSet set;
  const core::SolutionValidator validator(index);
  for (const core::Embedder* algo : set.all()) {
    SCOPED_TRACE(algo->name());
    // Cache disabled: pure search-tier comparison, no shared layer between
    // the arms.
    const auto flat = solve_with(*algo, index, true, false, seed);
    const auto ref = solve_with(*algo, index, false, false, seed);
    expect_identical(flat, ref);
    // Every returned solution must pass the independent admissibility
    // oracle, including its bitwise cost recomputation.
    const net::CapacityLedger fresh(index.problem().net());
    const auto audit = validator.check(flat, fresh);
    EXPECT_TRUE(audit.ok()) << audit.to_string();
    if (with_cache_arms) {
      // Cache enabled on both sides: the flat tier composes with the
      // epoch-keyed cache exactly as the seed search did.
      const auto flat_c = solve_with(*algo, index, true, true, seed);
      const auto ref_c = solve_with(*algo, index, false, true, seed);
      expect_identical(flat_c, ref_c);
      expect_identical(flat_c, ref);
    }
  }
}

class FlatCorpusDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(FlatCorpusDifferential, FlatVsReferenceIdentical) {
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
  run_differential(index, /*seed=*/1, /*with_cache_arms=*/true);
}

INSTANTIATE_TEST_SUITE_P(Instances, FlatCorpusDifferential,
                         ::testing::Values("ring12", "leafspine14", "waxman20",
                                           "tightline5"),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

TEST(FlatDifferential, TwoHundredRandomInstances) {
  const FlagGuard guard;
  sim::ExperimentConfig cfg;
  cfg.network_size = 14;
  cfg.network_connectivity = 3.0;
  cfg.catalog_size = 6;
  cfg.sfc_size = 3;

  Rng seeder(0xf1a75ea5c4ull);
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
    run_differential(index, /*seed=*/2000 + i, /*with_cache_arms=*/false);
    if (::testing::Test::HasFailure()) break;  // one instance is enough
  }
}

TEST(FlatDifferential, SharedWorkspaceAcrossSolvesChangesNothing) {
  const FlagGuard guard;
  graph::set_flat_search_default(true);
  auto fx = test::canonical_fixture();
  const core::MbbeEmbedder mbbe;
  graph::SearchWorkspace ws;

  net::CapacityLedger ledger(fx->network);
  Rng rng1(7);
  const auto with_ws = mbbe.solve(*fx->index, ledger, rng1, nullptr, &ws);
  net::CapacityLedger ledger2(fx->network);
  Rng rng2(7);
  const auto again = mbbe.solve(*fx->index, ledger2, rng2, nullptr, &ws);
  net::CapacityLedger ledger3(fx->network);
  Rng rng3(7);
  const auto fresh = mbbe.solve(*fx->index, ledger3, rng3);
  expect_identical(with_ws, fresh);
  expect_identical(again, fresh);  // a dirty workspace is as good as a new one
}

}  // namespace
}  // namespace dagsfc
