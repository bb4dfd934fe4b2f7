/// Property-based suites (parameterized sweeps): invariants that must hold
/// across randomized instances and configurations, not just hand-picked
/// fixtures.

#include <gtest/gtest.h>

#include <set>

#include "core/backtracking.hpp"
#include "core/baselines.hpp"
#include "graph/generator.hpp"
#include "graph/steiner.hpp"
#include "graph/yen.hpp"
#include "sim/scenario.hpp"

namespace dagsfc {
namespace {

// ---------- graph invariants across sizes/densities ------------------------

struct GraphParam {
  std::size_t nodes;
  double degree;
};

class GraphProperties : public ::testing::TestWithParam<GraphParam> {};

TEST_P(GraphProperties, GeneratorInvariants) {
  const auto [nodes, degree] = GetParam();
  Rng rng(nodes * 31 + static_cast<std::uint64_t>(degree * 7));
  graph::RandomGraphOptions opts;
  opts.num_nodes = nodes;
  opts.average_degree = degree;
  const graph::Graph g = graph::random_connected_graph(rng, opts);
  EXPECT_EQ(g.num_nodes(), nodes);
  EXPECT_TRUE(graph::is_connected(g));
  EXPECT_GE(g.num_edges(), nodes - 1);  // at least the spanning tree
  // Simple graph: no self loops (enforced by contract) and no duplicates.
  std::set<std::pair<graph::NodeId, graph::NodeId>> seen;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& ed = g.edge(e);
    EXPECT_NE(ed.u, ed.v);
    EXPECT_TRUE(seen.insert({std::min(ed.u, ed.v), std::max(ed.u, ed.v)})
                    .second);
  }
}

TEST_P(GraphProperties, DijkstraPathsAreConsistent) {
  const auto [nodes, degree] = GetParam();
  Rng rng(nodes * 13 + 7);
  graph::RandomGraphOptions opts;
  opts.num_nodes = nodes;
  opts.average_degree = degree;
  graph::Graph g = graph::random_connected_graph(rng, opts);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    g.set_weight(e, rng.uniform_real(0.1, 5.0));
  }
  graph::SearchWorkspace sp;
  graph::dijkstra_into(g, 0, sp);
  for (graph::NodeId v = 0; v < nodes; ++v) {
    ASSERT_TRUE(sp.reached(v));  // connected graph
    const auto p = graph::extract_path(sp, v);
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(g.path_valid(*p));
    EXPECT_NEAR(g.path_cost(*p), sp.dist(v), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndDensities, GraphProperties,
    ::testing::Values(GraphParam{2, 1.0}, GraphParam{10, 2.0},
                      GraphParam{50, 4.0}, GraphParam{120, 6.0},
                      GraphParam{50, 12.0}));

// ---------- Steiner ⊆ shortest-path-union sandwich across seeds ------------

class SteinerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SteinerProperty, SandwichBounds) {
  Rng rng(GetParam());
  graph::RandomGraphOptions opts;
  opts.num_nodes = 20;
  opts.average_degree = 4.0;
  graph::Graph g = graph::random_connected_graph(rng, opts);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    g.set_weight(e, rng.uniform_real(0.2, 3.0));
  }
  std::vector<graph::NodeId> terms;
  for (int i = 0; i < 5; ++i) {
    terms.push_back(static_cast<graph::NodeId>(rng.index(20)));
  }
  graph::SearchWorkspace sp;
  const auto tree = graph::steiner_tree(g, terms, nullptr, sp);
  ASSERT_TRUE(tree.has_value());
  graph::dijkstra_into(g, terms[0], sp);
  double union_cost = 0.0;
  std::set<graph::EdgeId> uni;
  double max_pair = 0.0;
  for (graph::NodeId t : terms) {
    const auto p = graph::extract_path(sp, t);
    uni.insert(p->edges.begin(), p->edges.end());
    max_pair = std::max(max_pair, sp.dist(t));
  }
  for (graph::EdgeId e : uni) union_cost += g.edge(e).weight;
  EXPECT_LE(tree->cost, union_cost + 1e-9);
  EXPECT_GE(tree->cost + 1e-9, max_pair);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SteinerProperty,
                         ::testing::Range<std::uint64_t>(100, 112));

// ---------- end-to-end embedding invariants over configurations ------------

struct EmbedParam {
  std::size_t network_size;
  std::size_t sfc_size;
  double deploy_ratio;
};

class EmbeddingProperties : public ::testing::TestWithParam<EmbedParam> {};

TEST_P(EmbeddingProperties, SolutionsValidFeasibleAndOrdered) {
  const auto [n, k, dr] = GetParam();
  sim::ExperimentConfig cfg;
  cfg.network_size = n;
  cfg.network_connectivity = 4.0;
  cfg.catalog_size = std::max<std::size_t>(k, 6);
  cfg.sfc_size = k;
  cfg.vnf_deploy_ratio = dr;
  Rng rng(n * 1000 + k * 10 + static_cast<std::uint64_t>(dr * 100));

  const core::MbbeEmbedder mbbe;
  const core::MinvEmbedder minv;
  const core::RanvEmbedder ranv;

  for (int trial = 0; trial < 4; ++trial) {
    const sim::Scenario scenario = sim::make_scenario(rng, cfg);
    const sfc::DagSfc dag =
        sim::make_sfc(rng, scenario.network.catalog(), cfg);
    core::EmbeddingProblem problem;
    problem.network = &scenario.network;
    problem.sfc = &dag;
    problem.flow =
        core::Flow{scenario.source, scenario.destination, 1.0, 1.0};
    const core::ModelIndex index(problem);
    const core::Evaluator ev(index);
    net::CapacityLedger nominal(scenario.network);

    for (const core::Embedder* algo :
         std::initializer_list<const core::Embedder*>{&mbbe, &minv, &ranv}) {
      const auto r = algo->solve_fresh(index, rng);
      if (!r.ok()) continue;
      // (1) structurally valid;
      const auto errors = ev.validate(*r.solution);
      ASSERT_TRUE(errors.empty())
          << algo->name() << ": " << errors.front();
      // (2) reported cost equals evaluator cost;
      EXPECT_NEAR(ev.cost(*r.solution), r.cost, 1e-6) << algo->name();
      // (3) feasible against nominal capacities;
      EXPECT_TRUE(ev.feasible(ev.usage(*r.solution), nominal))
          << algo->name();
      // (4) positive cost (a real embedding rents something).
      EXPECT_GT(r.cost, 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EmbeddingProperties,
    ::testing::Values(EmbedParam{20, 1, 0.5}, EmbedParam{20, 3, 0.5},
                      EmbedParam{40, 5, 0.5}, EmbedParam{40, 5, 0.2},
                      EmbedParam{40, 7, 0.6}, EmbedParam{80, 9, 0.4},
                      EmbedParam{15, 4, 0.9}));

// ---------- cost-model scaling property -------------------------------------

class FlowSizeScaling : public ::testing::TestWithParam<double> {};

TEST_P(FlowSizeScaling, CostIsLinearInZ) {
  const double z = GetParam();
  sim::ExperimentConfig cfg;
  cfg.network_size = 30;
  cfg.catalog_size = 6;
  cfg.sfc_size = 4;
  Rng rng(55);
  const sim::Scenario scenario = sim::make_scenario(rng, cfg);
  const sfc::DagSfc dag = sim::make_sfc(rng, scenario.network.catalog(), cfg);

  auto solve_with_z = [&](double size) {
    core::EmbeddingProblem p;
    p.network = &scenario.network;
    p.sfc = &dag;
    p.flow = core::Flow{scenario.source, scenario.destination, 1.0, size};
    const core::ModelIndex index(p);
    const core::MbbeEmbedder mbbe;
    Rng r2(7);
    return mbbe.solve_fresh(index, r2);
  };
  const auto base = solve_with_z(1.0);
  const auto scaled = solve_with_z(z);
  ASSERT_TRUE(base.ok() && scaled.ok());
  EXPECT_NEAR(scaled.cost, base.cost * z, base.cost * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Zs, FlowSizeScaling,
                         ::testing::Values(0.5, 2.0, 3.5, 10.0));

}  // namespace
}  // namespace dagsfc
