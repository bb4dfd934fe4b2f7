/// End-to-end integration tests: generated scenarios, all algorithms, cost
/// evaluation and feasibility checked through the whole stack.

#include <gtest/gtest.h>

#include "core/backtracking.hpp"
#include "core/baselines.hpp"
#include "core/exact.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"

namespace dagsfc {
namespace {

sim::ExperimentConfig small_config() {
  sim::ExperimentConfig cfg;
  cfg.network_size = 40;
  cfg.network_connectivity = 4.0;
  cfg.catalog_size = 8;
  cfg.sfc_size = 5;
  cfg.trials = 5;
  return cfg;
}

core::ModelIndex make_index(const sim::Scenario& scenario,
                            const sfc::DagSfc& dag,
                            core::EmbeddingProblem& problem) {
  problem.network = &scenario.network;
  problem.sfc = &dag;
  problem.flow =
      core::Flow{scenario.source, scenario.destination, 1.0, 1.0};
  return core::ModelIndex(problem);
}

TEST(Integration, AllAlgorithmsProduceValidSolutionsOnGeneratedScenario) {
  Rng rng(7);
  const auto cfg = small_config();
  const sim::Scenario scenario = sim::make_scenario(rng, cfg);
  const sfc::DagSfc dag = sim::make_sfc(rng, scenario.network.catalog(), cfg);
  core::EmbeddingProblem problem;
  const core::ModelIndex index = make_index(scenario, dag, problem);
  const core::Evaluator evaluator(index);

  core::RanvEmbedder ranv;
  core::MinvEmbedder minv;
  core::BbeEmbedder bbe;
  core::MbbeEmbedder mbbe;
  const std::vector<const core::Embedder*> algos{&ranv, &minv, &bbe, &mbbe};

  for (const auto* algo : algos) {
    SCOPED_TRACE(algo->name());
    const core::SolveResult r = algo->solve_fresh(index, rng);
    ASSERT_TRUE(r.ok()) << r.failure_reason;
    EXPECT_TRUE(evaluator.validate(*r.solution).empty());
    EXPECT_NEAR(evaluator.cost(*r.solution), r.cost, 1e-9);
    EXPECT_GT(r.cost, 0.0);
  }
}

TEST(Integration, HeuristicsNeverBeatExactOnTinyInstances) {
  core::ExactEmbedder exact;
  core::BbeEmbedder bbe;
  core::MbbeEmbedder mbbe;
  Rng rng(11);
  sim::ExperimentConfig cfg;
  cfg.network_size = 12;
  cfg.network_connectivity = 3.0;
  cfg.catalog_size = 5;
  cfg.sfc_size = 4;
  cfg.trials = 1;
  for (int t = 0; t < 8; ++t) {
    const sim::Scenario scenario = sim::make_scenario(rng, cfg);
    const sfc::DagSfc dag =
        sim::make_sfc(rng, scenario.network.catalog(), cfg);
    core::EmbeddingProblem problem;
    const core::ModelIndex index = make_index(scenario, dag, problem);

    const auto re = exact.solve_fresh(index, rng);
    ASSERT_TRUE(re.ok()) << re.failure_reason;
    for (const core::Embedder* h :
         std::vector<const core::Embedder*>{&bbe, &mbbe}) {
      const auto rh = h->solve_fresh(index, rng);
      ASSERT_TRUE(rh.ok()) << h->name() << ": " << rh.failure_reason;
      EXPECT_GE(rh.cost + 1e-9, re.cost)
          << h->name() << " beat the exact optimum — evaluator inconsistency";
    }
  }
}

TEST(Integration, RunnerAggregatesAllAlgorithms) {
  const auto cfg = small_config();
  core::RanvEmbedder ranv;
  core::MinvEmbedder minv;
  core::MbbeEmbedder mbbe;
  const auto stats =
      sim::run_comparison(cfg, {&ranv, &minv, &mbbe}, sim::RunOptions{2});
  ASSERT_EQ(stats.size(), 3u);
  for (const auto& s : stats) {
    SCOPED_TRACE(s.name);
    EXPECT_EQ(s.successes + s.failures, cfg.trials);
    if (s.successes > 0) {
      EXPECT_GT(s.cost.mean(), 0.0);
    }
  }
  // MBBE should be no worse on average than random placement.
  EXPECT_LE(stats[2].cost.mean(), stats[0].cost.mean());
}

TEST(Integration, RunnerIsDeterministicAcrossThreadCounts) {
  auto cfg = small_config();
  cfg.trials = 6;
  core::MinvEmbedder minv;
  core::MbbeEmbedder mbbe;
  const auto a =
      sim::run_comparison(cfg, {&minv, &mbbe}, sim::RunOptions{1});
  const auto b =
      sim::run_comparison(cfg, {&minv, &mbbe}, sim::RunOptions{4});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].cost.mean(), b[i].cost.mean());
    EXPECT_EQ(a[i].successes, b[i].successes);
  }
}

TEST(Integration, SequentialAdmissionDepletesCapacity) {
  // Tight instance: every VNF/link capacity fits exactly two embeddings.
  test::NetBuilder b(4, 2);
  b.link(0, 1, 1.0, 2.0).link(1, 2, 1.0, 2.0).link(2, 3, 1.0, 2.0);
  b.put(1, 1, 5.0, 2.0).put(2, 2, 5.0, 2.0);
  auto fx = test::make_fixture(
      b.build(), sfc::DagSfc({sfc::Layer{{1}}, sfc::Layer{{2}}}),
      core::Flow{0, 3, 1.0, 1.0});
  const core::Evaluator evaluator(*fx->index);
  core::MbbeEmbedder mbbe;
  Rng rng(3);
  net::CapacityLedger ledger(fx->network);

  for (int admitted = 0; admitted < 2; ++admitted) {
    const auto r = mbbe.solve(*fx->index, ledger, rng);
    ASSERT_TRUE(r.ok()) << "admission " << admitted << ": "
                        << r.failure_reason;
    evaluator.commit(evaluator.usage(*r.solution), ledger);
  }
  const auto r = mbbe.solve(*fx->index, ledger, rng);
  EXPECT_FALSE(r.ok()) << "third admission should exceed capacity";
}

}  // namespace
}  // namespace dagsfc
