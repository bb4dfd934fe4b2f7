#include "graph/dijkstra.hpp"

#include <gtest/gtest.h>

#include "graph/generator.hpp"
#include "graph/steiner.hpp"
#include "graph/yen.hpp"

namespace dagsfc::graph {
namespace {

/// Weighted diamond: 0-1 (1), 1-3 (5), 0-2 (2), 2-3 (1), 1-2 (1).
Graph diamond() {
  Graph g(4);
  (void)g.add_edge(0, 1, 1.0);
  (void)g.add_edge(1, 3, 5.0);
  (void)g.add_edge(0, 2, 2.0);
  (void)g.add_edge(2, 3, 1.0);
  (void)g.add_edge(1, 2, 1.0);
  return g;
}

/// Every edge of \p g usable except \p banned.
EdgeMaskBuffer all_but(const Graph& g, EdgeId banned) {
  EdgeMaskBuffer mask;
  mask.assign(g.num_edges(), true);
  mask.clear(banned);
  return mask;
}

TEST(Dijkstra, DistancesAreCheapestByPrice) {
  const Graph g = diamond();
  SearchWorkspace ws;
  dijkstra_into(g, 0, ws);
  EXPECT_DOUBLE_EQ(ws.dist(0), 0.0);
  EXPECT_DOUBLE_EQ(ws.dist(1), 1.0);
  EXPECT_DOUBLE_EQ(ws.dist(2), 2.0);
  EXPECT_DOUBLE_EQ(ws.dist(3), 3.0);  // 0-1-2-3 (1+1+1) or 0-2-3 (2+1)
}

TEST(Dijkstra, PathReconstructionIsConsistent) {
  const Graph g = diamond();
  SearchWorkspace ws;
  dijkstra_into(g, 0, ws);
  const auto p = extract_path(ws, 3);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->source(), 0u);
  EXPECT_EQ(p->target(), 3u);
  EXPECT_TRUE(g.path_valid(*p));
  EXPECT_DOUBLE_EQ(g.path_cost(*p), 3.0);
  EXPECT_DOUBLE_EQ(p->cost, 3.0);
}

TEST(Dijkstra, PathToSourceIsTrivial) {
  const Graph g = diamond();
  SearchWorkspace ws;
  dijkstra_into(g, 0, ws);
  const auto p = extract_path(ws, 0);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodes, std::vector<NodeId>{0});
  EXPECT_TRUE(p->edges.empty());
  EXPECT_DOUBLE_EQ(p->cost, 0.0);
}

TEST(Dijkstra, UnreachableNode) {
  Graph g(3);
  (void)g.add_edge(0, 1, 1.0);
  SearchWorkspace ws;
  dijkstra_into(g, 0, ws);
  EXPECT_FALSE(ws.reached(2));
  EXPECT_FALSE(extract_path(ws, 2).has_value());
}

TEST(Dijkstra, EdgeFilterChangesRouting) {
  Graph g = diamond();
  // Ban the 2-3 edge: the cheapest 0→3 route becomes 0-1-3 = 6? No:
  // 0-1(1)+1-3(5)=6 vs 0-2(2)+... 2-3 banned, 2-1-3 = 2+1+5=8 → 6.
  const auto banned = g.find_edge(2, 3);
  ASSERT_TRUE(banned.has_value());
  const EdgeMaskBuffer mask = all_but(g, *banned);
  const EdgeMask view = mask.view();
  SearchWorkspace ws;
  const auto p = min_cost_path(g, 0, 3, ws, &view);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->cost, 6.0);
}

TEST(Dijkstra, FilterCanDisconnect) {
  const Graph g = diamond();
  EdgeMaskBuffer none;
  none.assign(g.num_edges(), false);
  const EdgeMask view = none.view();
  SearchWorkspace ws;
  EXPECT_FALSE(min_cost_path(g, 0, 3, ws, &view).has_value());
}

TEST(Dijkstra, ZeroWeightEdgesSupported) {
  Graph g(3);
  (void)g.add_edge(0, 1, 0.0);
  (void)g.add_edge(1, 2, 0.0);
  SearchWorkspace ws;
  const auto p = min_cost_path(g, 0, 2, ws);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(p->cost, 0.0);
  EXPECT_EQ(p->length(), 2u);
}

TEST(Dijkstra, MinCostPathEqualsFullTreeOnRandomGraphs) {
  Rng rng(61);
  for (int trial = 0; trial < 10; ++trial) {
    RandomGraphOptions opts;
    opts.num_nodes = 40;
    opts.average_degree = 4.0;
    Graph g = random_connected_graph(rng, opts);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      g.set_weight(e, rng.uniform_real(0.1, 5.0));
    }
    const NodeId src = static_cast<NodeId>(rng.index(40));
    const NodeId dst = static_cast<NodeId>(rng.index(40));
    SearchWorkspace full;
    dijkstra_into(g, src, full);
    SearchWorkspace ws;
    const auto p = min_cost_path(g, src, dst, ws);
    ASSERT_TRUE(p.has_value());
    EXPECT_NEAR(p->cost, full.dist(dst), 1e-9);
  }
}

TEST(Dijkstra, TriangleInequalityHoldsOnRandomGraph) {
  Rng rng(67);
  RandomGraphOptions opts;
  opts.num_nodes = 30;
  opts.average_degree = 4.0;
  Graph g = random_connected_graph(rng, opts);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    g.set_weight(e, rng.uniform_real(0.1, 3.0));
  }
  SearchWorkspace from0;
  dijkstra_into(g, 0, from0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& ed = g.edge(e);
    EXPECT_LE(from0.dist(ed.v), from0.dist(ed.u) + ed.weight + 1e-9);
    EXPECT_LE(from0.dist(ed.u), from0.dist(ed.v) + ed.weight + 1e-9);
  }
}

TEST(Dijkstra, InvalidSourceRejected) {
  const Graph g = diamond();
  SearchWorkspace ws;
  EXPECT_THROW((void)dijkstra_into(g, 17, ws), ContractViolation);
}

TEST(Dijkstra, ShortMaskThrowsAtEveryEntry) {
  // A mask of 64 bits over a 399-edge graph. Its words cover every edge,
  // so a kernel that skipped the size check would read valid memory and
  // simply not throw.
  Rng rng(71);
  RandomGraphOptions opts;
  opts.num_nodes = 120;
  opts.average_degree = 6.65;
  const Graph g = random_connected_graph(rng, opts);
  ASSERT_EQ(g.num_edges(), 399u);
  const std::vector<std::uint64_t> words((g.num_edges() + 63) / 64,
                                         ~std::uint64_t{0});
  const EdgeMask short_mask(words.data(), 64);
  SearchWorkspace ws;
  EXPECT_THROW((void)dijkstra_into(g, 0, ws, &short_mask), ContractViolation);
  EXPECT_THROW((void)min_cost_path(g, 0, 119, ws, &short_mask),
               ContractViolation);
  EXPECT_THROW((void)k_shortest_paths(g, 0, 119, 3, &short_mask, ws),
               ContractViolation);
  EXPECT_THROW((void)steiner_tree(g, {0, 60, 119}, &short_mask, ws),
               ContractViolation);
  LazyTree tree(g, 0);
  EXPECT_THROW((void)tree.settle(g, 119, &short_mask), ContractViolation);
  EXPECT_THROW((void)tree.settle_all(g, &short_mask), ContractViolation);

  // A mask of exactly g.num_edges() bits passes every entry.
  const EdgeMask full(words.data(), g.num_edges());
  EXPECT_NO_THROW((void)dijkstra_into(g, 0, ws, &full));
  EXPECT_NO_THROW((void)tree.settle(g, 119, &full));
}

TEST(Dijkstra, PathToSizesTheLongPathExactly) {
  // A 500-hop line graph: extract_path counts hops by walking the parent
  // chain once, so the returned vectors are exactly sized (capacity ==
  // size, no push_back growth) and correctly ordered source → target.
  constexpr std::size_t kNodes = 501;
  Graph g(kNodes);
  for (NodeId v = 0; v + 1 < kNodes; ++v) {
    (void)g.add_edge(v, v + 1, 1.0);
  }
  SearchWorkspace ws;
  dijkstra_into(g, 0, ws);
  const auto p = extract_path(ws, kNodes - 1);
  ASSERT_TRUE(p.has_value());
  ASSERT_EQ(p->nodes.size(), kNodes);
  ASSERT_EQ(p->edges.size(), kNodes - 1);
  EXPECT_EQ(p->nodes.capacity(), p->nodes.size());
  EXPECT_EQ(p->edges.capacity(), p->edges.size());
  EXPECT_EQ(p->cost, static_cast<double>(kNodes - 1));
  for (std::size_t i = 0; i < kNodes; ++i) {
    EXPECT_EQ(p->nodes[i], static_cast<NodeId>(i));
  }
  for (std::size_t i = 0; i + 1 < kNodes; ++i) {
    EXPECT_EQ(p->edges[i], static_cast<EdgeId>(i));
  }
}

}  // namespace
}  // namespace dagsfc::graph
