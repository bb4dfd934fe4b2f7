/// Differential tests for the flat search tier (CSR + SearchWorkspace +
/// EdgeMask) against the frozen seed implementations in graph::reference
/// (the test-only dagsfc::reference library). The tier's core contract is
/// bit-identity: same distances, same parents, same tie-breaks, same paths
/// — for every primitive, and for every embedder's end-to-end SolveResult,
/// which must reproduce the golden rows recorded through the seed kernels
/// (tests/corpus/embedder_golden.txt). Mirrors tests/test_path_cache.cpp,
/// which holds the cache layer to the same rows.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/backtracking.hpp"
#include "graph/dijkstra.hpp"
#include "graph/reference.hpp"
#include "graph/steiner.hpp"
#include "graph/workspace.hpp"
#include "graph/yen.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"

#ifndef DAGSFC_CORPUS_DIR
#error "DAGSFC_CORPUS_DIR must be defined by the build"
#endif

namespace dagsfc {
namespace {

using test::AllowSet;
using test::expect_identical;
using test::expect_same_opt_path;
using test::expect_same_path;
using test::random_weighted_graph;

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
      const auto flat = test::tree_of(ws, g.num_nodes());
      EXPECT_EQ(ref.source, flat.source);
      EXPECT_EQ(ref.dist, flat.dist);
      EXPECT_EQ(ref.parent, flat.parent);
      EXPECT_EQ(ref.parent_edge, flat.parent_edge);

      // Unmasked arms.
      const auto ref_open = graph::reference::dijkstra(g, s);
      graph::dijkstra_into(g, s, ws);
      const auto flat_open = test::tree_of(ws, g.num_nodes());
      EXPECT_EQ(ref_open.dist, flat_open.dist);
      EXPECT_EQ(ref_open.parent, flat_open.parent);
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
// Embedder-level differential: production search vs the golden rows the
// seed implementations recorded (path cache off), end to end, for every
// embedder. test_path_cache.cpp holds its own battery to the same file.

class FlatCorpusDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(FlatCorpusDifferential, FlatVsReferenceIdentical) {
  const test::CorpusInstance inst(DAGSFC_CORPUS_DIR, GetParam());
  test::expect_golden_solves(*inst.index, /*seed=*/1,
                             std::string("corpus_") + GetParam());
}

INSTANTIATE_TEST_SUITE_P(Instances, FlatCorpusDifferential,
                         ::testing::Values("ring12", "leafspine14", "waxman20",
                                           "tightline5"),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

TEST(FlatDifferential, TwoHundredRandomInstances) {
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
    char tag[16];
    std::snprintf(tag, sizeof tag, "searchflat_%03d", i);
    test::expect_golden_solves(index, /*seed=*/2000 + i, tag);
    if (::testing::Test::HasFailure()) break;  // one instance is enough
  }
}

TEST(FlatDifferential, SharedWorkspaceAcrossSolvesChangesNothing) {
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
