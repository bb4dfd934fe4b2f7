#include "core/baselines.hpp"

#include <algorithm>
#include <functional>

#include "core/path_oracle.hpp"
#include "graph/dijkstra.hpp"
#include "util/metrics.hpp"

namespace dagsfc::core {

namespace {

graph::Path trivial_path(NodeId v) {
  graph::Path p;
  p.nodes.push_back(v);
  return p;
}

/// Shared skeleton of RANV/MINV: a per-slot node chooser plus Dijkstra
/// meta-path instantiation and a final feasibility check.
SolveResult assign_then_route(
    const ModelIndex& index, const net::CapacityLedger& ledger,
    TraceSink* trace, graph::SearchWorkspace* workspace,
    const std::function<NodeId(VnfTypeId, const std::vector<NodeId>&)>&
        choose) {
  const Tracer tr(trace);
  const EmbeddingProblem& prob = index.problem();
  const net::Network& net = prob.net();
  const graph::Graph& g = net.topology();
  const double rate = prob.flow.rate;

  SolveResult result;
  EmbeddingSolution sol;
  sol.placement.assign(index.num_slots(), graph::kInvalidNode);

  DAGSFC_PHASE_SCOPE("baselines/assign_then_route");

  // Working copy so repeated uses of one instance respect its capacity.
  net::CapacityLedger working(ledger);
  for (SlotId s = 0; s < index.num_slots(); ++s) {
    const VnfTypeId t = index.slot_type(s);
    std::vector<NodeId> candidates;
    for (NodeId v : net.nodes_with(t)) {
      if (working.node_offers(v, t, rate)) candidates.push_back(v);
    }
    std::sort(candidates.begin(), candidates.end());
    if (candidates.empty()) {
      result.failure_reason = "no node with remaining capacity hosts " +
                              net.catalog().name(t);
      return result;
    }
    const NodeId v = choose(t, candidates);
    if (tr) {
      SolveEvent e;
      e.kind = TraceEventKind::SlotChoice;
      e.i0 = static_cast<std::int64_t>(s);
      e.i1 = static_cast<std::int64_t>(v);
      e.i2 = static_cast<std::int64_t>(candidates.size());
      e.v0 = net.instance(*net.find_instance(v, t)).price;
      tr(e);
    }
    sol.placement[s] = v;
    working.consume_instance(*net.find_instance(v, t), rate);
  }

  // Meta-paths by minimum-cost path over links that can carry the flow,
  // one oracle query each. The residual network is fixed for the whole
  // routing phase (the oracle only reads the ledger), so meta-paths leaving
  // the same node — a parallel block's branch paths all leave the
  // preceding VNF's host — resume one cached search.
  PathOracle oracle(g, ledger, rate, workspace);
  auto record_counters = [&]() { result.path_queries = oracle.counters(); };
  Evaluator evaluator(index);
  auto routed_event = [&](bool inner, std::size_t i, const graph::Path& p) {
    if (!tr) return;
    SolveEvent e;
    e.kind = TraceEventKind::MetaPathRouted;
    e.i0 = inner ? 1 : 0;
    e.i1 = static_cast<std::int64_t>(i);
    e.i2 = static_cast<std::int64_t>(p.length());
    e.v0 = p.cost;
    tr(e);
  };
  auto route_all = [&](const std::vector<MetaPathDesc>& descs, bool inner,
                       std::vector<graph::Path>& out,
                       const char* fail_reason) -> bool {
    for (std::size_t i = 0; i < descs.size(); ++i) {
      const NodeId a = evaluator.resolve(descs[i].from, sol);
      const NodeId b = evaluator.resolve(descs[i].to, sol);
      std::optional<graph::Path> p =
          b == a ? std::optional<graph::Path>(trivial_path(a))
                 : oracle.min_cost_path(a, b);
      if (!p) {
        result.failure_reason = fail_reason;
        record_counters();
        return false;
      }
      routed_event(inner, i, *p);
      out.push_back(std::move(*p));
    }
    return true;
  };
  if (!route_all(index.inter_paths(), false, sol.inter_paths,
                 "no usable route for an inter-layer meta-path")) {
    return result;
  }
  if (!route_all(index.inner_paths(), true, sol.inner_paths,
                 "no usable route for an inner-layer meta-path")) {
    return result;
  }
  record_counters();

  DAGSFC_ASSERT(evaluator.validate(sol).empty());
  const ResourceUsage u = evaluator.usage(sol);
  if (!evaluator.feasible(u, ledger)) {
    result.failure_reason = "assignment exceeds link or VNF capacity";
    return result;
  }
  result.cost = evaluator.cost(u);
  result.solution = std::move(sol);
  result.candidate_solutions = 1;
  return result;
}

}  // namespace

SolveResult RanvEmbedder::do_solve(const ModelIndex& index,
                                   const net::CapacityLedger& ledger,
                                   Rng& rng, TraceSink* trace,
                                   graph::SearchWorkspace* workspace) const {
  return assign_then_route(
      index, ledger, trace, workspace,
      [&rng](VnfTypeId, const std::vector<NodeId>& candidates) {
        return candidates[rng.index(candidates.size())];
      });
}

SolveResult MinvEmbedder::do_solve(const ModelIndex& index,
                                   const net::CapacityLedger& ledger,
                                   Rng& /*rng*/, TraceSink* trace,
                                   graph::SearchWorkspace* workspace) const {
  const net::Network& net = index.problem().net();
  return assign_then_route(
      index, ledger, trace, workspace,
      [&net](VnfTypeId t, const std::vector<NodeId>& candidates) {
        NodeId best = candidates.front();
        double best_price = graph::kInfCost;
        for (NodeId v : candidates) {
          const double p = net.instance(*net.find_instance(v, t)).price;
          if (p < best_price) {  // ties: lowest node id (candidates sorted)
            best_price = p;
            best = v;
          }
        }
        return best;
      });
}

}  // namespace dagsfc::core
