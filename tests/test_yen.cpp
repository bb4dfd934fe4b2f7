#include "graph/yen.hpp"

#include <gtest/gtest.h>

#include <set>

#include "graph/generator.hpp"

namespace dagsfc::graph {
namespace {

/// k_shortest_paths through a fresh workspace.
std::vector<Path> yen(const Graph& g, NodeId source, NodeId target,
                      std::size_t k, const EdgeMask* mask = nullptr) {
  SearchWorkspace ws;
  return k_shortest_paths(g, source, target, k, mask, ws);
}

Graph diamond() {
  Graph g(4);
  (void)g.add_edge(0, 1, 1.0);
  (void)g.add_edge(1, 3, 5.0);
  (void)g.add_edge(0, 2, 2.0);
  (void)g.add_edge(2, 3, 1.0);
  (void)g.add_edge(1, 2, 1.0);
  return g;
}

TEST(Yen, FirstPathIsShortest) {
  const Graph g = diamond();
  const auto paths = yen(g, 0, 3, 3);
  ASSERT_FALSE(paths.empty());
  EXPECT_DOUBLE_EQ(paths[0].cost, 3.0);
}

TEST(Yen, CostsAreNonDecreasing) {
  const Graph g = diamond();
  const auto paths = yen(g, 0, 3, 10);
  for (std::size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LE(paths[i - 1].cost, paths[i].cost + 1e-12);
  }
}

TEST(Yen, PathsAreDistinctAndSimple) {
  const Graph g = diamond();
  const auto paths = yen(g, 0, 3, 10);
  std::set<std::vector<NodeId>> seqs;
  for (const Path& p : paths) {
    EXPECT_TRUE(g.path_valid(p));
    EXPECT_TRUE(seqs.insert(p.nodes).second) << "duplicate path";
    std::set<NodeId> uniq(p.nodes.begin(), p.nodes.end());
    EXPECT_EQ(uniq.size(), p.nodes.size()) << "path has a loop";
  }
}

TEST(Yen, DiamondHasExactlyFourSimplePaths) {
  // 0-1-2-3, 0-2-3, 0-1-3, 0-2-1-3.
  const Graph g = diamond();
  const auto paths = yen(g, 0, 3, 100);
  EXPECT_EQ(paths.size(), 4u);
  EXPECT_DOUBLE_EQ(paths[0].cost, 3.0);  // 0-1-2-3 or 0-2-3 (ties: lexicographic)
  EXPECT_DOUBLE_EQ(paths.back().cost, 8.0);  // 0-2-1-3
}

TEST(Yen, TiedPathsBothReturnedDeterministically) {
  const Graph g = diamond();
  const auto a = yen(g, 0, 3, 2);
  const auto b = yen(g, 0, 3, 2);
  ASSERT_EQ(a.size(), 2u);
  // Both cost-3 routes surface, in a stable order across invocations.
  EXPECT_DOUBLE_EQ(a[0].cost, 3.0);
  EXPECT_DOUBLE_EQ(a[1].cost, 3.0);
  EXPECT_NE(a[0].nodes, a[1].nodes);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(a[0].nodes, b[0].nodes);
  EXPECT_EQ(a[1].nodes, b[1].nodes);
}

TEST(Yen, KZeroGivesNothing) {
  const Graph g = diamond();
  EXPECT_TRUE(yen(g, 0, 3, 0).empty());
}

TEST(Yen, UnreachableTargetGivesNothing) {
  Graph g(3);
  (void)g.add_edge(0, 1, 1.0);
  EXPECT_TRUE(yen(g, 0, 2, 5).empty());
}

TEST(Yen, SourceEqualsTargetGivesTrivialPath) {
  const Graph g = diamond();
  const auto paths = yen(g, 2, 2, 3);
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths[0].nodes, std::vector<NodeId>{2});
  EXPECT_DOUBLE_EQ(paths[0].cost, 0.0);
}

TEST(Yen, RespectsEdgeFilter) {
  Graph g = diamond();
  const auto banned = g.find_edge(1, 2);
  ASSERT_TRUE(banned.has_value());
  EdgeMaskBuffer mask;
  mask.assign(g.num_edges(), true);
  mask.clear(*banned);
  const EdgeMask view = mask.view();
  const auto paths = yen(g, 0, 3, 10, &view);
  for (const Path& p : paths) {
    for (EdgeId e : p.edges) EXPECT_NE(e, *banned);
  }
  EXPECT_EQ(paths.size(), 2u);  // only 0-2-3 and 0-1-3 remain
}

TEST(Yen, AgreesWithExhaustiveOnRandomGraphs) {
  Rng rng(71);
  for (int trial = 0; trial < 5; ++trial) {
    RandomGraphOptions opts;
    opts.num_nodes = 12;
    opts.average_degree = 3.0;
    Graph g = random_connected_graph(rng, opts);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      g.set_weight(e, rng.uniform_real(0.5, 2.0));
    }
    const auto paths = yen(g, 0, 11, 5);
    ASSERT_FALSE(paths.empty());
    // First must equal Dijkstra optimum; all must be valid and sorted.
    SearchWorkspace ws;
    const auto best = min_cost_path(g, 0, 11, ws);
    ASSERT_TRUE(best.has_value());
    EXPECT_NEAR(paths[0].cost, best->cost, 1e-9);
    for (std::size_t i = 1; i < paths.size(); ++i) {
      EXPECT_LE(paths[i - 1].cost, paths[i].cost + 1e-12);
      EXPECT_TRUE(g.path_valid(paths[i]));
    }
  }
}

}  // namespace
}  // namespace dagsfc::graph
