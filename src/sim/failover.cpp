#include "sim/failover.hpp"

#include <algorithm>
#include <memory>

namespace dagsfc::sim {

void FailoverConfig::validate() const {
  base.validate();
  DAGSFC_CHECK(num_flows >= 1);
}

FailoverResult run_failover(const FailoverConfig& cfg,
                            const core::Embedder& embedder,
                            std::uint64_t seed) {
  cfg.validate();
  Rng rng(seed);
  const Scenario scenario = make_scenario(rng, cfg.base);
  net::CapacityLedger ledger(scenario.network);

  struct Committed {
    std::unique_ptr<sfc::DagSfc> dag;
    core::Flow flow;
    core::ResourceUsage usage;
    double cost = 0.0;
  };
  std::vector<Committed> committed;

  FailoverResult result;
  graph::SearchWorkspace ws;  // warm buffers across all solves

  // ---- Phase 1: populate the network ------------------------------------
  for (std::size_t i = 0; i < cfg.num_flows; ++i) {
    auto dag = std::make_unique<sfc::DagSfc>(
        make_sfc(rng, scenario.network.catalog(), cfg.base));
    auto src = static_cast<graph::NodeId>(rng.index(cfg.base.network_size));
    auto dst = static_cast<graph::NodeId>(rng.index(cfg.base.network_size));
    if (dst == src) dst = (dst + 1) % cfg.base.network_size;
    core::EmbeddingProblem problem;
    problem.network = &scenario.network;
    problem.sfc = dag.get();
    problem.flow =
        core::Flow{src, dst, cfg.base.flow_rate, cfg.base.flow_size};
    const core::ModelIndex index(problem);
    const core::SolveResult r = embedder.solve(index, ledger, rng, nullptr,
                                               &ws);
    if (!r.ok()) continue;
    const core::Evaluator evaluator(index);
    core::ResourceUsage usage = evaluator.usage(*r.solution);
    evaluator.commit(usage, ledger);
    committed.push_back(Committed{std::move(dag), problem.flow,
                                  std::move(usage), r.cost});
    ++result.embedded;
  }

  // ---- Phase 2: fail an element -------------------------------------------
  const graph::Graph& topo = scenario.network.topology();
  std::vector<graph::EdgeId> dead_links;
  std::vector<net::InstanceId> dead_instances;
  if (cfg.kind == FailureKind::kLink) {
    graph::EdgeId failed = graph::kInvalidEdge;
    if (cfg.fail_most_loaded) {
      double worst = -1.0;
      for (graph::EdgeId e = 0; e < scenario.network.num_links(); ++e) {
        const double load =
            scenario.network.link_capacity(e) - ledger.link_residual(e);
        if (load > worst) {
          worst = load;
          failed = e;
        }
      }
    } else {
      failed = static_cast<graph::EdgeId>(
          rng.index(scenario.network.num_links()));
    }
    result.failed_link = failed;
    dead_links.push_back(failed);
  } else {
    graph::NodeId failed = graph::kInvalidNode;
    if (cfg.fail_most_loaded) {
      // Most-loaded node by processing consumption.
      std::vector<double> load(scenario.network.num_nodes(), 0.0);
      for (net::InstanceId id = 0; id < scenario.network.num_instances();
           ++id) {
        load[scenario.network.instance(id).node] +=
            scenario.network.instance(id).capacity -
            ledger.instance_residual(id);
      }
      failed = static_cast<graph::NodeId>(
          std::max_element(load.begin(), load.end()) - load.begin());
    } else {
      failed = static_cast<graph::NodeId>(
          rng.index(scenario.network.num_nodes()));
    }
    result.failed_node = failed;
    for (const graph::Incidence& inc : topo.neighbors(failed)) {
      dead_links.push_back(inc.edge);
    }
    for (net::InstanceId id : scenario.network.instances_on(failed)) {
      dead_instances.push_back(id);
    }
  }

  // Tear down every flow using a dead element, then kill those elements.
  auto flow_is_affected = [&](const core::ResourceUsage& usage) {
    for (graph::EdgeId e : dead_links) {
      if (usage.link_uses[e] > 0) return true;
    }
    for (net::InstanceId id : dead_instances) {
      if (usage.instance_uses[id] > 0) return true;
    }
    return false;
  };
  std::vector<std::size_t> affected;
  for (std::size_t i = 0; i < committed.size(); ++i) {
    if (flow_is_affected(committed[i].usage)) affected.push_back(i);
  }
  result.affected = affected.size();
  for (std::size_t i : affected) {
    const Committed& c = committed[i];
    ledger.unapply(c.usage.link_uses, c.usage.instance_uses, c.flow.rate);
    result.original_cost.add(c.cost);
  }
  for (graph::EdgeId e : dead_links) ledger.set_link_residual(e, 0.0);
  for (net::InstanceId id : dead_instances) {
    ledger.set_instance_residual(id, 0.0);
  }

  // ---- Phase 3: recover --------------------------------------------------
  for (std::size_t i : affected) {
    const Committed& c = committed[i];
    if (cfg.kind == FailureKind::kNode &&
        (c.flow.source == result.failed_node ||
         c.flow.destination == result.failed_node)) {
      ++result.endpoint_lost;  // the tenant itself is gone
      continue;
    }
    core::EmbeddingProblem problem;
    problem.network = &scenario.network;
    problem.sfc = c.dag.get();
    problem.flow = c.flow;
    const core::ModelIndex index(problem);
    const core::SolveResult r = embedder.solve(index, ledger, rng, nullptr,
                                               &ws);
    if (!r.ok()) continue;
    const core::Evaluator evaluator(index);
    const core::ResourceUsage usage = evaluator.usage(*r.solution);
    DAGSFC_ASSERT(!flow_is_affected(usage));
    evaluator.commit(usage, ledger);
    ++result.recovered;
    result.recovery_cost.add(r.cost);
  }
  return result;
}

}  // namespace dagsfc::sim
