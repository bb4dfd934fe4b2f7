#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "test_helpers.hpp"

namespace dagsfc::graph {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(component_count(g), 0u);
}

TEST(Graph, AddNodesAndEdges) {
  Graph g(3);
  EXPECT_EQ(g.num_nodes(), 3u);
  const EdgeId e = g.add_edge(0, 1, 2.5);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edge(e).u, 0u);
  EXPECT_EQ(g.edge(e).v, 1u);
  EXPECT_DOUBLE_EQ(g.edge(e).weight, 2.5);
  const NodeId n = g.add_node();
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(g.num_nodes(), 4u);
}

TEST(Graph, SelfLoopRejected) {
  Graph g(2);
  EXPECT_THROW((void)g.add_edge(1, 1, 1.0), ContractViolation);
}

TEST(Graph, ParallelEdgeRejectedBothDirections) {
  Graph g(2);
  (void)g.add_edge(0, 1, 1.0);
  EXPECT_THROW((void)g.add_edge(0, 1, 2.0), ContractViolation);
  EXPECT_THROW((void)g.add_edge(1, 0, 2.0), ContractViolation);
}

TEST(Graph, NegativeWeightRejected) {
  Graph g(2);
  EXPECT_THROW((void)g.add_edge(0, 1, -0.1), ContractViolation);
}

TEST(Graph, OutOfRangeEndpointsRejected) {
  Graph g(2);
  EXPECT_THROW((void)g.add_edge(0, 5, 1.0), ContractViolation);
}

TEST(Graph, EdgeOther) {
  Graph g(3);
  const EdgeId e = g.add_edge(0, 2, 1.0);
  EXPECT_EQ(g.edge(e).other(0), 2u);
  EXPECT_EQ(g.edge(e).other(2), 0u);
  EXPECT_THROW((void)g.edge(e).other(1), ContractViolation);
}

TEST(Graph, NeighborsAndDegree) {
  Graph g(4);
  (void)g.add_edge(0, 1, 1.0);
  (void)g.add_edge(0, 2, 1.0);
  (void)g.add_edge(0, 3, 1.0);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.degree(1), 1u);
  bool saw2 = false;
  for (const Incidence& inc : g.neighbors(0)) {
    if (inc.neighbor == 2) saw2 = true;
  }
  EXPECT_TRUE(saw2);
}

TEST(Graph, FindEdgeSymmetric) {
  Graph g(3);
  const EdgeId e = g.add_edge(1, 2, 1.0);
  EXPECT_EQ(g.find_edge(1, 2), std::optional<EdgeId>(e));
  EXPECT_EQ(g.find_edge(2, 1), std::optional<EdgeId>(e));
  EXPECT_FALSE(g.find_edge(0, 1).has_value());
}

TEST(Graph, SetWeight) {
  Graph g(2);
  const EdgeId e = g.add_edge(0, 1, 1.0);
  g.set_weight(e, 9.0);
  EXPECT_DOUBLE_EQ(g.edge(e).weight, 9.0);
  EXPECT_THROW(g.set_weight(e, -1.0), ContractViolation);
}

TEST(Graph, AverageDegree) {
  Graph g(4);
  (void)g.add_edge(0, 1, 1.0);
  (void)g.add_edge(2, 3, 1.0);
  EXPECT_DOUBLE_EQ(g.average_degree(), 1.0);  // 2*2/4
}

TEST(Graph, PathCostAndValidity) {
  Graph g(4);
  const EdgeId e01 = g.add_edge(0, 1, 1.5);
  const EdgeId e12 = g.add_edge(1, 2, 2.5);
  (void)g.add_edge(2, 3, 4.0);

  Path p;
  p.nodes = {0, 1, 2};
  p.edges = {e01, e12};
  EXPECT_TRUE(g.path_valid(p));
  EXPECT_DOUBLE_EQ(g.path_cost(p), 4.0);

  Path wrong_order = p;
  std::swap(wrong_order.edges[0], wrong_order.edges[1]);
  EXPECT_FALSE(g.path_valid(wrong_order));

  Path size_mismatch;
  size_mismatch.nodes = {0, 1};
  EXPECT_FALSE(g.path_valid(size_mismatch));

  Path single_node;
  single_node.nodes = {2};
  EXPECT_TRUE(g.path_valid(single_node));
  EXPECT_EQ(single_node.length(), 0u);

  Path empty;
  EXPECT_TRUE(g.path_valid(empty));
  EXPECT_TRUE(empty.empty());
}

TEST(Graph, PathEndpointAccessors) {
  Graph g(3);
  const EdgeId e = g.add_edge(0, 2, 1.0);
  Path p;
  p.nodes = {0, 2};
  p.edges = {e};
  EXPECT_EQ(p.source(), 0u);
  EXPECT_EQ(p.target(), 2u);
  Path empty;
  EXPECT_THROW((void)empty.source(), ContractViolation);
}

TEST(Graph, FindEdgeProbesTheLowerDegreeEndpoint) {
  // A hub with many leaves: probing leaf—hub must scan the leaf's (size-1)
  // incidence list, never the hub's, in either argument order.
  Graph g(10);
  std::vector<EdgeId> spokes;
  for (NodeId leaf = 1; leaf < 10; ++leaf) {
    spokes.push_back(g.add_edge(0, leaf, 1.0));
  }
  ASSERT_EQ(g.degree(0), 9u);
  ASSERT_EQ(g.degree(3), 1u);
  EXPECT_EQ(g.find_edge_probe_endpoint(3, 0), 3u);
  EXPECT_EQ(g.find_edge_probe_endpoint(0, 3), 3u);
  EXPECT_EQ(g.find_edge(3, 0), spokes[2]);
  EXPECT_EQ(g.find_edge(0, 3), spokes[2]);
  // Equal degrees: the first argument wins (deterministic, documented).
  const EdgeId cross = g.add_edge(1, 2, 1.0);
  EXPECT_EQ(g.find_edge_probe_endpoint(1, 2), 1u);
  EXPECT_EQ(g.find_edge(2, 1), cross);
  // Leaf—leaf pairs without an edge still resolve to nullopt via the
  // cheaper endpoint.
  EXPECT_EQ(g.find_edge_probe_endpoint(4, 0), 4u);
  EXPECT_FALSE(g.find_edge(4, 5).has_value());
}

TEST(Graph, ConnectivityDetection) {
  Graph g(4);
  (void)g.add_edge(0, 1, 1.0);
  (void)g.add_edge(1, 2, 1.0);
  EXPECT_FALSE(is_connected(g));
  EXPECT_EQ(component_count(g), 2u);
  (void)g.add_edge(2, 3, 1.0);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(component_count(g), 1u);
}

// ---------------------------------------------------------------------------
// CSR determinism and the lazy concurrent build.

TEST(Csr, RowOrderEqualsInsertionOrder) {
  // Edges added in a deliberately scrambled order; every CSR row must
  // replay its node's incidence list verbatim — the tie-break order every
  // deterministic search result depends on.
  Graph g(6);
  g.add_edge(3, 1, 1.0);
  g.add_edge(0, 4, 1.0);
  g.add_edge(1, 0, 1.0);
  g.add_edge(5, 3, 1.0);
  g.add_edge(2, 1, 1.0);
  g.add_edge(0, 3, 1.0);
  const CsrView view = g.csr();
  ASSERT_EQ(view.offsets.size(), g.num_nodes() + 1);
  ASSERT_EQ(view.incidence.size(), 2 * g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
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
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_EQ(g.csr().row(0).size(), 1u);
  g.add_edge(0, 2, 1.0);  // invalidates the view built above
  const CsrView rebuilt = g.csr();
  ASSERT_EQ(rebuilt.row(0).size(), 2u);
  EXPECT_EQ(rebuilt.row(0)[1].neighbor, 2u);
  const NodeId n = g.add_node();
  EXPECT_EQ(g.csr().offsets.size(), g.num_nodes() + 1);
  EXPECT_TRUE(g.csr().row(n).empty());
}

TEST(Csr, ConcurrentFirstUseBuildsOnce) {
  // Many threads race the first csr() call on a quiescent graph; all must
  // observe the same complete view. test_graph carries the tsan label, so
  // scripts/check.sh runs this under ThreadSanitizer.
  const Graph g = test::random_weighted_graph(60, 5.0, 42);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::size_t> row_sums(kThreads, 0);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, &row_sums, t] {
      const CsrView view = g.csr();
      std::size_t sum = 0;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
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

}  // namespace
}  // namespace dagsfc::graph
