#include "graph/steiner.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "graph/generator.hpp"

namespace dagsfc::graph {
namespace {

/// steiner_tree through a fresh workspace.
std::optional<SteinerTree> steiner(const Graph& g,
                                   const std::vector<NodeId>& terminals,
                                   const EdgeMask* mask = nullptr) {
  SearchWorkspace ws;
  return steiner_tree(g, terminals, mask, ws);
}

/// Checks the returned edge set is a connected acyclic subgraph spanning the
/// terminals with the claimed cost.
void expect_valid_tree(const Graph& g, const SteinerTree& t,
                       const std::vector<NodeId>& terminals) {
  double cost = 0.0;
  std::set<NodeId> nodes;
  std::set<EdgeId> uniq(t.edges.begin(), t.edges.end());
  EXPECT_EQ(uniq.size(), t.edges.size()) << "duplicate edges";
  for (EdgeId e : t.edges) {
    cost += g.edge(e).weight;
    nodes.insert(g.edge(e).u);
    nodes.insert(g.edge(e).v);
  }
  EXPECT_NEAR(cost, t.cost, 1e-9);
  // A tree: |E| = |nodes touched| - 1 (when non-empty).
  if (!t.edges.empty()) {
    EXPECT_EQ(t.edges.size(), nodes.size() - 1);
  }
  // Connectivity over the tree, terminals all inside.
  std::set<NodeId> distinct(terminals.begin(), terminals.end());
  if (distinct.size() <= 1) return;
  for (NodeId term : distinct) EXPECT_TRUE(nodes.count(term)) << term;
  // BFS over tree edges from one terminal.
  std::set<NodeId> seen{*distinct.begin()};
  bool grew = true;
  while (grew) {
    grew = false;
    for (EdgeId e : t.edges) {
      const Edge& ed = g.edge(e);
      if (seen.count(ed.u) != seen.count(ed.v)) {
        seen.insert(ed.u);
        seen.insert(ed.v);
        grew = true;
      }
    }
  }
  for (NodeId term : distinct) EXPECT_TRUE(seen.count(term));
}

TEST(Steiner, TwoTerminalsIsShortestPath) {
  Graph g(4);
  (void)g.add_edge(0, 1, 1.0);
  (void)g.add_edge(1, 2, 1.0);
  (void)g.add_edge(0, 3, 5.0);
  (void)g.add_edge(3, 2, 5.0);
  const auto t = steiner(g, {0, 2});
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->cost, 2.0);
  expect_valid_tree(g, *t, {0, 2});
}

TEST(Steiner, StarUsesTheHub) {
  // Terminals on three leaves; optimum routes through the hub.
  Graph g(4);
  (void)g.add_edge(0, 1, 1.0);
  (void)g.add_edge(0, 2, 1.0);
  (void)g.add_edge(0, 3, 1.0);
  const auto t = steiner(g, {1, 2, 3});
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->cost, 3.0);
  expect_valid_tree(g, *t, {1, 2, 3});
}

TEST(Steiner, SteinerPointBeatsPairwisePaths) {
  // Triangle of terminals with expensive direct links (3.0 each) and a
  // cheap central node (1.0 spokes): the Steiner point wins (3 < 6).
  Graph g(4);
  (void)g.add_edge(0, 1, 3.0);
  (void)g.add_edge(1, 2, 3.0);
  (void)g.add_edge(0, 2, 3.0);
  (void)g.add_edge(0, 3, 1.0);
  (void)g.add_edge(1, 3, 1.0);
  (void)g.add_edge(2, 3, 1.0);
  const auto t = steiner(g, {0, 1, 2});
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->cost, 3.0);
  bool uses_hub = false;
  for (EdgeId e : t->edges) {
    if (g.edge(e).u == 3 || g.edge(e).v == 3) uses_hub = true;
  }
  EXPECT_TRUE(uses_hub);
}

TEST(Steiner, SingleOrDuplicateTerminalsGiveEmptyTree) {
  Graph g(3);
  (void)g.add_edge(0, 1, 1.0);
  auto t = steiner(g, {1});
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(t->edges.empty());
  EXPECT_DOUBLE_EQ(t->cost, 0.0);
  t = steiner(g, {1, 1, 1});
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(t->edges.empty());
  t = steiner(g, {});
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(t->edges.empty());
}

TEST(Steiner, DisconnectedTerminalsFail) {
  Graph g(4);
  (void)g.add_edge(0, 1, 1.0);
  (void)g.add_edge(2, 3, 1.0);
  EXPECT_FALSE(steiner(g, {0, 3}).has_value());
}

TEST(Steiner, EdgeFilterIsHonored) {
  Graph g(3);
  const EdgeId direct = g.add_edge(0, 2, 1.0);
  (void)g.add_edge(0, 1, 2.0);
  (void)g.add_edge(1, 2, 2.0);
  EdgeMaskBuffer mask;
  mask.assign(g.num_edges(), true);
  mask.clear(direct);
  const EdgeMask view = mask.view();
  const auto t = steiner(g, {0, 2}, &view);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->cost, 4.0);
  for (EdgeId e : t->edges) EXPECT_NE(e, direct);
}

TEST(Steiner, TooManyTerminalsRejected) {
  Graph g(20);
  for (NodeId v = 1; v < 20; ++v) (void)g.add_edge(0, v, 1.0);
  std::vector<NodeId> terms;
  for (NodeId v = 1; v <= 15; ++v) terms.push_back(v);
  EXPECT_THROW((void)steiner(g, terms), ContractViolation);
}

TEST(Steiner, NeverWorseThanShortestPathUnionOnRandomGraphs) {
  Rng rng(73);
  for (int trial = 0; trial < 10; ++trial) {
    RandomGraphOptions opts;
    opts.num_nodes = 25;
    opts.average_degree = 4.0;
    Graph g = random_connected_graph(rng, opts);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      g.set_weight(e, rng.uniform_real(0.1, 4.0));
    }
    std::vector<NodeId> terms;
    for (int i = 0; i < 4; ++i) {
      terms.push_back(static_cast<NodeId>(rng.index(25)));
    }
    const auto t = steiner(g, terms);
    ASSERT_TRUE(t.has_value());
    expect_valid_tree(g, *t, terms);
    // Upper bound: union of shortest paths from terms[0].
    SearchWorkspace sp;
    dijkstra_into(g, terms[0], sp);
    std::set<EdgeId> union_edges;
    for (NodeId term : terms) {
      const auto p = extract_path(sp, term);
      ASSERT_TRUE(p.has_value());
      union_edges.insert(p->edges.begin(), p->edges.end());
    }
    double union_cost = 0.0;
    for (EdgeId e : union_edges) union_cost += g.edge(e).weight;
    EXPECT_LE(t->cost, union_cost + 1e-9);
    // Lower bound: the most expensive single terminal-to-terminal shortest
    // path (any spanning structure must connect that pair).
    double lb = 0.0;
    for (NodeId term : terms) {
      lb = std::max(lb, std::min(sp.dist(term), kInfCost));
    }
    EXPECT_GE(t->cost + 1e-9, lb);
  }
}

}  // namespace
}  // namespace dagsfc::graph
