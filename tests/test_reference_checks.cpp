/// Independent-reference verification: library algorithms checked against
/// naive reimplementations that are obviously correct (and too slow to
/// ship) — Bellman–Ford for Dijkstra, exhaustive edge-subset search for the
/// Steiner DP.

#include <gtest/gtest.h>

#include <functional>

#include "graph/dijkstra.hpp"
#include "graph/generator.hpp"
#include "graph/steiner.hpp"

namespace dagsfc::graph {
namespace {

/// Textbook Bellman–Ford distances (no negative prices here, but the
/// relaxation order is completely different from Dijkstra's).
std::vector<double> bellman_ford(const Graph& g, NodeId source) {
  std::vector<double> dist(g.num_nodes(), kInfCost);
  dist[source] = 0.0;
  for (std::size_t round = 0; round + 1 < g.num_nodes(); ++round) {
    bool changed = false;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const Edge& ed = g.edge(e);
      if (dist[ed.u] + ed.weight < dist[ed.v]) {
        dist[ed.v] = dist[ed.u] + ed.weight;
        changed = true;
      }
      if (dist[ed.v] + ed.weight < dist[ed.u]) {
        dist[ed.u] = dist[ed.v] + ed.weight;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return dist;
}

class DijkstraVsBellmanFord : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DijkstraVsBellmanFord, DistancesAgree) {
  Rng rng(GetParam());
  RandomGraphOptions opts;
  opts.num_nodes = 30;
  opts.average_degree = 4.0;
  Graph g = random_connected_graph(rng, opts);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    g.set_weight(e, rng.uniform_real(0.0, 5.0));  // zero weights included
  }
  const NodeId src = static_cast<NodeId>(rng.index(30));
  SearchWorkspace sp;
  dijkstra_into(g, src, sp);
  const std::vector<double> bf = bellman_ford(g, src);
  for (NodeId v = 0; v < 30; ++v) {
    EXPECT_NEAR(sp.dist(v), bf[v], 1e-9) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraVsBellmanFord,
                         ::testing::Range<std::uint64_t>(900, 910));

/// Exhaustive minimum Steiner tree: try every edge subset (graphs are kept
/// ≤ 16 edges) and keep the cheapest connected one spanning the terminals.
double brute_force_steiner(const Graph& g,
                           const std::vector<NodeId>& terminals) {
  DAGSFC_CHECK(g.num_edges() <= 16);
  double best = kInfCost;
  for (std::uint32_t mask = 0; mask < (1u << g.num_edges()); ++mask) {
    // Connectivity of the terminal set through the chosen edges.
    std::vector<NodeId> parent(g.num_nodes());
    for (NodeId v = 0; v < g.num_nodes(); ++v) parent[v] = v;
    std::function<NodeId(NodeId)> find = [&](NodeId v) {
      return parent[v] == v ? v : parent[v] = find(parent[v]);
    };
    double cost = 0.0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (mask & (1u << e)) {
        cost += g.edge(e).weight;
        parent[find(g.edge(e).u)] = find(g.edge(e).v);
      }
    }
    if (cost >= best) continue;
    bool connected = true;
    for (NodeId t : terminals) {
      if (find(t) != find(terminals[0])) {
        connected = false;
        break;
      }
    }
    if (connected) best = cost;
  }
  return best;
}

class SteinerVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SteinerVsBruteForce, OptimaAgreeOnTinyGraphs) {
  Rng rng(GetParam());
  // Small dense-ish graph with ≤ 16 edges.
  RandomGraphOptions opts;
  opts.num_nodes = 8;
  opts.average_degree = 3.5;
  Graph g = random_connected_graph(rng, opts);
  while (g.num_edges() > 16) {
    // Regenerate sparser if the sampler overshot.
    opts.average_degree -= 0.5;
    Rng retry(GetParam() * 31 + 1);
    g = random_connected_graph(retry, opts);
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    g.set_weight(e, rng.uniform_real(0.5, 4.0));
  }
  std::vector<NodeId> terminals;
  const std::size_t k = 2 + rng.index(3);
  for (std::size_t i = 0; i < k; ++i) {
    terminals.push_back(static_cast<NodeId>(rng.index(8)));
  }
  SearchWorkspace ws;
  const auto tree = steiner_tree(g, terminals, nullptr, ws);
  ASSERT_TRUE(tree.has_value());
  EXPECT_NEAR(tree->cost, brute_force_steiner(g, terminals), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SteinerVsBruteForce,
                         ::testing::Range<std::uint64_t>(950, 962));

}  // namespace
}  // namespace dagsfc::graph
