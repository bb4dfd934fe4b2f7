#include "core/exact.hpp"

#include <algorithm>
#include <map>

#include "core/path_oracle.hpp"
#include "core/solver_detail.hpp"
#include "graph/dijkstra.hpp"
#include "graph/steiner.hpp"
#include "util/metrics.hpp"

namespace dagsfc::core {

namespace {

using detail::Enumerator;
using detail::path_in_tree;
using detail::trivial_path;

struct BackPointer {
  NodeId prev_end = graph::kInvalidNode;
  std::vector<NodeId> assignment;          // per VNF slot (merger excluded)
  std::vector<graph::EdgeId> tree_edges;   // inter-layer multicast tree
};

/// Per-layer DP cell: cheapest raw (un-scaled-by-z) cost ending at a node.
struct Cell {
  double cost = graph::kInfCost;
  BackPointer back;
};

}  // namespace

SolveResult ExactEmbedder::do_solve(const ModelIndex& index,
                                    const net::CapacityLedger& ledger,
                                    Rng& /*rng*/, TraceSink* trace,
                                    graph::SearchWorkspace* workspace) const {
  const Tracer tr(trace);
  const EmbeddingProblem& prob = index.problem();
  const net::Network& net = prob.net();
  const graph::Graph& g = net.topology();
  const sfc::DagSfc& dag = prob.dag();
  const net::VnfCatalog& catalog = net.catalog();
  const double rate = prob.flow.rate;
  const std::size_t omega = dag.num_layers();

  SolveResult result;

  PathOracle oracle(g, ledger, rate, workspace);
  auto record_counters = [&]() { result.path_queries = oracle.counters(); };

  // Hosting candidates per layer slot type, capacity-screened.
  auto hosts = [&](VnfTypeId t) {
    std::vector<NodeId> out;
    for (NodeId v : net.nodes_with(t)) {
      if (ledger.node_offers(v, t, rate)) out.push_back(v);
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  // Work estimate: refuse instances beyond the budget instead of hanging.
  double work = 0.0;
  std::size_t prev_ends = 1;
  for (std::size_t l = 0; l < omega; ++l) {
    const sfc::Layer& layer = dag.layer(l);
    double assignments = 1.0;
    for (VnfTypeId t : layer.vnfs) {
      assignments *= static_cast<double>(std::max<std::size_t>(
          1, net.nodes_with(t).size()));
    }
    const std::size_t ends = layer.has_merger()
                                 ? net.nodes_with(catalog.merger()).size()
                                 : net.nodes_with(layer.vnfs[0]).size();
    work += static_cast<double>(prev_ends) * assignments;
    prev_ends = std::max<std::size_t>(1, ends);
    if (work > static_cast<double>(opts_.max_work)) {
      result.failure_reason = "instance too large for the exact solver";
      record_counters();
      return result;
    }
  }

  auto price_of = [&](NodeId v, VnfTypeId t) {
    return net.instance(*net.find_instance(v, t)).price;
  };

  // dp[v] after each layer; start: virtual layer 0 at the source, cost 0.
  std::map<NodeId, Cell> dp;
  dp[prob.flow.source] = Cell{0.0, {}};
  std::vector<std::map<NodeId, Cell>> trail;  // dp per layer, for rebuild

  for (std::size_t l = 0; l < omega; ++l) {
    DAGSFC_PHASE_SCOPE("exact/dp_layer");
    const sfc::Layer& layer = dag.layer(l);
    std::map<NodeId, Cell> next;
    const std::size_t cells_in = dp.size();

    for (const auto& [p, cell] : dp) {
      if (cell.cost == graph::kInfCost) continue;
      if (!layer.has_merger()) {
        const VnfTypeId t = layer.vnfs[0];
        const auto sp = oracle.tree(p);
        for (NodeId v : hosts(t)) {
          if (sp->dist[v] == graph::kInfCost) continue;
          const double c = cell.cost + price_of(v, t) + sp->dist[v];
          auto& slot = next[v];
          if (c < slot.cost) {
            slot.cost = c;
            slot.back = BackPointer{p, {v}, {}};
            ++result.expanded_sub_solutions;
          }
        }
        continue;
      }

      std::vector<std::vector<NodeId>> choices;
      choices.reserve(layer.vnfs.size());
      for (VnfTypeId t : layer.vnfs) choices.push_back(hosts(t));

      // Distances from each merger candidate, shared across assignments
      // (and across DP cells and layers, via the path cache).
      std::map<NodeId, std::shared_ptr<const graph::LazyTree>>
          from_merger;
      for (NodeId m : hosts(catalog.merger())) {
        from_merger.emplace(m, oracle.tree(m));
      }
      if (from_merger.empty()) continue;

      for (Enumerator en(choices); !en.done(); en.advance()) {
        const std::vector<NodeId> assign = en.current();
        std::vector<NodeId> terminals{p};
        terminals.insert(terminals.end(), assign.begin(), assign.end());
        const auto tree = oracle.steiner(terminals);
        if (!tree) continue;
        double base = cell.cost + tree->cost;
        for (std::size_t i = 0; i < assign.size(); ++i) {
          base += price_of(assign[i], layer.vnfs[i]);
        }
        for (auto& [m, sp] : from_merger) {
          double inner = 0.0;
          bool ok = true;
          for (NodeId v : assign) {
            if (sp->dist[v] == graph::kInfCost) {
              ok = false;
              break;
            }
            inner += sp->dist[v];
          }
          if (!ok) continue;
          const double c = base + price_of(m, catalog.merger()) + inner;
          auto& slot = next[m];
          if (c < slot.cost) {
            slot.cost = c;
            slot.back = BackPointer{p, assign, tree->edges};
            ++result.expanded_sub_solutions;
          }
        }
      }
    }

    if (tr) {
      SolveEvent e;
      e.kind = TraceEventKind::DpLayer;
      e.i0 = static_cast<std::int64_t>(l);
      e.i1 = static_cast<std::int64_t>(cells_in);
      e.i2 = static_cast<std::int64_t>(next.size());
      tr(e);
    }
    if (next.empty()) {
      result.failure_reason =
          "no placement reachable at layer " + std::to_string(l + 1);
      record_counters();
      return result;
    }
    trail.push_back(next);
    dp = std::move(next);
  }

  // Final hop to the destination.
  const auto sp_t = oracle.tree(prob.flow.destination);
  NodeId best_end = graph::kInvalidNode;
  double best_raw = graph::kInfCost;
  for (const auto& [v, cell] : dp) {
    if (sp_t->dist[v] == graph::kInfCost) continue;
    const double c = cell.cost + sp_t->dist[v];
    if (c < best_raw) {
      best_raw = c;
      best_end = v;
    }
  }
  if (best_end == graph::kInvalidNode) {
    result.failure_reason = "destination unreachable from every end node";
    record_counters();
    return result;
  }

  // ---- Reconstruction ----------------------------------------------------
  DAGSFC_PHASE_SCOPE("exact/reconstruct");
  EmbeddingSolution sol;
  sol.placement.assign(index.num_slots(), graph::kInvalidNode);
  sol.inter_paths.resize(index.inter_paths().size());
  sol.inner_paths.resize(index.inner_paths().size());

  NodeId end = best_end;
  for (std::size_t l = omega; l-- > 0;) {
    const sfc::Layer& layer = dag.layer(l);
    const BackPointer& back = trail[l].at(end).back;
    const auto slots = index.layer_slots(l);
    for (std::size_t i = 0; i < back.assignment.size(); ++i) {
      sol.placement[slots[i]] = back.assignment[i];
    }
    const auto [ifirst, ilast] = index.inter_group_range(l);
    if (!layer.has_merger()) {
      DAGSFC_ASSERT(ilast - ifirst == 1);
      auto p = back.prev_end == back.assignment[0]
                   ? std::optional<graph::Path>(trivial_path(back.prev_end))
                   : oracle.min_cost_path(back.prev_end, back.assignment[0]);
      DAGSFC_CHECK(p.has_value());
      sol.inter_paths[ifirst] = std::move(*p);
    } else {
      sol.placement[slots.back()] = end;  // merger slot
      for (std::size_t i = ifirst; i < ilast; ++i) {
        sol.inter_paths[i] = path_in_tree(g, back.tree_edges, back.prev_end,
                                          back.assignment[i - ifirst]);
      }
      const auto [nfirst, nlast] = index.inner_layer_range(l);
      for (std::size_t i = nfirst; i < nlast; ++i) {
        const NodeId v = back.assignment[i - nfirst];
        auto p = v == end
                     ? std::optional<graph::Path>(trivial_path(v))
                     : oracle.min_cost_path(v, end);
        DAGSFC_CHECK(p.has_value());
        sol.inner_paths[i] = std::move(*p);
      }
    }
    end = back.prev_end;
  }
  {
    const auto [dfirst, dlast] = index.inter_group_range(omega);
    DAGSFC_ASSERT(dlast - dfirst == 1);
    auto p = best_end == prob.flow.destination
                 ? std::optional<graph::Path>(trivial_path(best_end))
                 : oracle.min_cost_path(best_end, prob.flow.destination);
    DAGSFC_CHECK(p.has_value());
    sol.inter_paths[dfirst] = std::move(*p);
  }

  Evaluator evaluator(index);
  DAGSFC_ASSERT(evaluator.validate(sol).empty());
  const ResourceUsage u = evaluator.usage(sol);
  record_counters();
  if (!evaluator.feasible(u, ledger)) {
    result.failure_reason =
        "optimal uncapacitated solution violates a capacity constraint; "
        "the exact solver requires non-binding capacities";
    return result;
  }
  result.cost = evaluator.cost(u);
  result.solution = std::move(sol);
  result.candidate_solutions = 1;
  return result;
}

}  // namespace dagsfc::core
