#include "graph/bfs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

namespace dagsfc::graph {
namespace {

/// Path 0-1-2-3 plus a branch 1-4.
Graph branchy() {
  Graph g(5);
  (void)g.add_edge(0, 1, 1.0);
  (void)g.add_edge(1, 2, 1.0);
  (void)g.add_edge(2, 3, 1.0);
  (void)g.add_edge(1, 4, 1.0);
  return g;
}

/// Every ring of \p e's search, expanded to exhaustion: ring 0 is the start
/// node alone, ring q the nodes first reached in iteration q.
std::vector<std::vector<NodeId>> all_rings(RingExpander& e) {
  std::vector<std::vector<NodeId>> rings{e.current_ring()};
  for (auto ring = e.expand(); !ring.empty(); ring = e.expand()) {
    rings.push_back(ring);
  }
  return rings;
}

/// Hop distance from \p start to every node by repeated edge relaxation —
/// an oracle independent of the ring search; -1 where unreachable.
std::vector<int> hop_distances(const Graph& g, NodeId start) {
  std::vector<int> d(g.num_nodes(), -1);
  d[start] = 0;
  for (std::size_t round = 0; round < g.num_nodes(); ++round) {
    for (const Edge& e : g.edges()) {
      for (const auto& [a, b] : {std::pair{e.u, e.v}, std::pair{e.v, e.u}}) {
        if (d[a] >= 0 && (d[b] < 0 || d[a] + 1 < d[b])) d[b] = d[a] + 1;
      }
    }
  }
  return d;
}

TEST(BfsRings, RingsHoldHopDistances) {
  const Graph g = branchy();
  RingExpander e(g, 0);
  const auto rings = all_rings(e);
  ASSERT_EQ(rings.size(), 4u);
  EXPECT_EQ(rings[0], std::vector<NodeId>{0});
  EXPECT_EQ(rings[1], std::vector<NodeId>{1});
  const std::set<NodeId> ring2(rings[2].begin(), rings[2].end());
  EXPECT_EQ(ring2, (std::set<NodeId>{2, 4}));
  EXPECT_EQ(rings[3], std::vector<NodeId>{3});
  EXPECT_EQ(e.iterations(), 4u);  // the fourth expand() found nothing
  EXPECT_TRUE(e.contains(4));
}

TEST(BfsRings, ParentsFormTree) {
  const Graph g = branchy();
  RingExpander e(g, 0);
  (void)all_rings(e);
  EXPECT_EQ(e.bfs_parent(0), kInvalidNode);
  EXPECT_EQ(e.bfs_parent(1), 0u);
  EXPECT_EQ(e.bfs_parent(2), 1u);
  EXPECT_EQ(e.bfs_parent(4), 1u);
  EXPECT_EQ(e.bfs_parent(3), 2u);
}

TEST(BfsRings, FilterBlocksNodes) {
  const Graph g = branchy();
  RingExpander e(g, 0, [](NodeId v) { return v != 2; });
  (void)all_rings(e);
  EXPECT_TRUE(e.contains(4));
  EXPECT_FALSE(e.contains(2));
  EXPECT_FALSE(e.contains(3));  // only reachable through 2
}

TEST(BfsRings, DisconnectedNodeUnreached) {
  Graph g(3);
  (void)g.add_edge(0, 1, 1.0);
  RingExpander e(g, 0);
  const auto rings = all_rings(e);
  EXPECT_FALSE(e.contains(2));
  EXPECT_EQ(e.bfs_parent(2), kInvalidNode);
  EXPECT_EQ(rings.size(), 2u);
}

TEST(RingExpander, StartsWithStartNode) {
  const Graph g = branchy();
  RingExpander e(g, 0);
  EXPECT_EQ(e.visited(), std::vector<NodeId>{0});
  EXPECT_EQ(e.current_ring(), std::vector<NodeId>{0});
  EXPECT_EQ(e.iterations(), 0u);
  EXPECT_TRUE(e.contains(0));
  EXPECT_FALSE(e.contains(1));
}

TEST(RingExpander, ExpandMatchesBfsRings) {
  const Graph g = branchy();
  const std::vector<int> hops = hop_distances(g, 0);
  const int max_hops = *std::max_element(hops.begin(), hops.end());
  RingExpander e(g, 0);
  for (int q = 1; q <= max_hops; ++q) {
    const auto ring = e.expand();
    const std::set<NodeId> got(ring.begin(), ring.end());
    std::set<NodeId> want;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (hops[v] == q) want.insert(v);
    }
    EXPECT_EQ(got, want) << "ring " << q;
  }
  EXPECT_TRUE(e.expand().empty());
}

TEST(RingExpander, ParentsReconstructPaths) {
  const Graph g = branchy();
  RingExpander e(g, 0);
  while (!e.expand().empty()) {
  }
  EXPECT_EQ(e.bfs_parent(3), 2u);
  EXPECT_EQ(e.bfs_parent(0), kInvalidNode);
}

TEST(RingExpander, FilterRestrictsExpansion) {
  const Graph g = branchy();
  RingExpander e(g, 0, [](NodeId v) { return v <= 2; });
  while (!e.expand().empty()) {
  }
  EXPECT_TRUE(e.contains(2));
  EXPECT_FALSE(e.contains(3));
  EXPECT_FALSE(e.contains(4));
}

TEST(RingExpander, VisitedIsDiscoveryOrdered) {
  const Graph g = branchy();
  RingExpander e(g, 0);
  while (!e.expand().empty()) {
  }
  const auto& v = e.visited();
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v[0], 0u);
  EXPECT_EQ(v[1], 1u);  // ring 1
  // rings are contiguous: {2,4} before 3.
  EXPECT_TRUE((v[2] == 2 && v[3] == 4) || (v[2] == 4 && v[3] == 2));
  EXPECT_EQ(v[4], 3u);
}

TEST(RingExpander, InvalidStartRejected) {
  const Graph g = branchy();
  EXPECT_THROW(RingExpander(g, 99), ContractViolation);
}

}  // namespace
}  // namespace dagsfc::graph
