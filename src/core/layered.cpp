#include "core/layered.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

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

/// Decisions a parallel-layer gadget transition carries: which VNF hosts
/// were assigned and which multicast tree connects them to the boundary.
/// Same shape as the exact solver's BackPointer, minus prev_end (the parent
/// chain already knows it).
struct GadgetBack {
  std::vector<NodeId> assignment;
  std::vector<graph::EdgeId> tree_edges;
};

graph::Path reversed(const graph::Graph& g, const graph::Path& p) {
  graph::Path out;
  out.nodes.assign(p.nodes.rbegin(), p.nodes.rend());
  out.edges.assign(p.edges.rbegin(), p.edges.rend());
  out.cost = g.path_cost(out);
  return out;
}

std::size_t tree_path_hops(const graph::LazyTree& sp, NodeId v) {
  std::size_t hops = 0;
  for (NodeId u = v; u != sp.source; u = sp.parent(u)) ++hops;
  return hops;
}

/// Everything both engines share: the instance, the screened host sets, the
/// usable-link mask, the CSR view, and the per-layer merger trees (computed
/// once per layer — they depend only on the merger node and the ledger
/// epoch, which is constant for the duration of one solve).
struct LayeredRun {
  const ModelIndex& index;
  const net::CapacityLedger& ledger;
  const EmbeddingProblem& prob;
  const net::Network& net;
  const graph::Graph& g;
  const sfc::DagSfc& dag;
  const net::VnfCatalog& catalog;
  double rate;
  std::size_t omega;
  std::size_t n;
  std::size_t levels;
  NodeId source;
  NodeId destination;

  PathOracle oracle;
  graph::CsrView csr;
  /// The oracle's usable-link mask: the ledger is constant for the solve,
  /// so the mask stays valid throughout.
  graph::EdgeMask usable;

  /// Rent of a sequential layer's VNF per node, or a negative sentinel when
  /// the node cannot host it (not deployed, or residual capacity short).
  std::vector<std::vector<double>> seq_price;  // [layer][node]
  /// Capacity-screened, ascending host lists per parallel-layer VNF slot.
  std::vector<std::vector<std::vector<NodeId>>> choices;  // [layer][slot]
  std::vector<std::vector<NodeId>> merger_hosts;          // [layer]
  /// Distance trees from each merger candidate, built lazily per layer and
  /// shared across every gadget firing (and the reconstruction).
  std::vector<std::map<NodeId, std::shared_ptr<const graph::LazyTree>>>
      from_merger;
  std::vector<char> merger_trees_ready;

  explicit LayeredRun(const ModelIndex& idx, const net::CapacityLedger& led)
      : index(idx),
        ledger(led),
        prob(idx.problem()),
        net(prob.net()),
        g(net.topology()),
        dag(prob.dag()),
        catalog(net.catalog()),
        rate(prob.flow.rate),
        omega(dag.num_layers()),
        n(g.num_nodes()),
        levels(omega + 1),
        source(prob.flow.source),
        destination(prob.flow.destination),
        // The oracle runs on its own embedded workspace: a caller-lent one
        // is reserved for the product sweep, and a mid-sweep Steiner or
        // tree query must not clobber the sweep's stamped state.
        oracle(g, led, prob.flow.rate, nullptr),
        csr(g.csr()),
        usable(*oracle.usable_mask()) {
    seq_price.resize(omega);
    choices.resize(omega);
    merger_hosts.resize(omega);
    from_merger.resize(omega);
    merger_trees_ready.assign(omega, 0);
    for (std::size_t l = 0; l < omega; ++l) {
      const sfc::Layer& layer = dag.layer(l);
      if (!layer.has_merger()) {
        const VnfTypeId t = layer.vnfs[0];
        seq_price[l].assign(n, -1.0);
        for (NodeId v : hosts(t)) seq_price[l][v] = price_of(v, t);
      } else {
        choices[l].reserve(layer.vnfs.size());
        for (VnfTypeId t : layer.vnfs) choices[l].push_back(hosts(t));
        merger_hosts[l] = hosts(catalog.merger());
      }
    }
  }

  [[nodiscard]] std::vector<NodeId> hosts(VnfTypeId t) const {
    std::vector<NodeId> out;
    for (NodeId v : net.nodes_with(t)) {
      if (ledger.node_offers(v, t, rate)) out.push_back(v);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  [[nodiscard]] double price_of(NodeId v, VnfTypeId t) const {
    return net.instance(*net.find_instance(v, t)).price;
  }

  [[nodiscard]] NodeId state_of(std::size_t l, NodeId v) const {
    return static_cast<NodeId>(l * n + v);
  }

  const std::map<NodeId, std::shared_ptr<const graph::LazyTree>>&
  merger_trees(std::size_t l) {
    if (!merger_trees_ready[l]) {
      for (NodeId m : merger_hosts[l]) {
        from_merger[l].emplace(m, oracle.tree(m));
      }
      merger_trees_ready[l] = 1;
    }
    return from_merger[l];
  }

  /// The exact solver's work estimate, verbatim — the parallel gadget runs
  /// the identical enumeration per settled boundary state, so the same
  /// budget keeps the same instances out.
  [[nodiscard]] bool too_large(std::size_t max_work) const {
    double work = 0.0;
    std::size_t prev_ends = 1;
    for (std::size_t l = 0; l < omega; ++l) {
      const sfc::Layer& layer = dag.layer(l);
      double assignments = 1.0;
      for (VnfTypeId t : layer.vnfs) {
        assignments *= static_cast<double>(
            std::max<std::size_t>(1, net.nodes_with(t).size()));
      }
      const std::size_t ends = layer.has_merger()
                                   ? net.nodes_with(catalog.merger()).size()
                                   : net.nodes_with(layer.vnfs[0]).size();
      work += static_cast<double>(prev_ends) * assignments;
      prev_ends = std::max<std::size_t>(1, ends);
      if (work > static_cast<double>(max_work)) return true;
    }
    return false;
  }

  /// Shared tail: validate, capacity-check, and price the reconstructed
  /// solution — the same post-hoc sequence the exact solver runs.
  void finish(SolveResult& result, EmbeddingSolution sol) {
    Evaluator evaluator(index);
    DAGSFC_ASSERT(evaluator.validate(sol).empty());
    const ResourceUsage u = evaluator.usage(sol);
    result.path_queries = oracle.counters();
    if (!evaluator.feasible(u, ledger)) {
      result.failure_reason =
          "optimal uncapacitated solution violates a capacity constraint; "
          "the layered solver requires non-binding capacities";
      return;
    }
    result.cost = evaluator.cost(u);
    result.solution = std::move(sol);
    result.candidate_solutions = 1;
  }
};

// ---------------------------------------------------------------------------
// Scalar engine: plain Dijkstra over the implicit product graph. Exact for
// the uncapacitated objective; used when no (finite) delay budget is set.

SolveResult solve_scalar(LayeredRun& run, graph::SearchWorkspace& sw,
                         const Tracer& tr) {
  SolveResult result;
  const std::size_t n = run.n;
  const std::size_t omega = run.omega;

  sw.prepare_states(run.levels * n,
                    run.levels * (2 * run.g.num_edges() + 2));

  // Gadget decisions, keyed by the entered state; overwritten on each
  // strict improvement so the surviving entry always matches the final
  // parent pointer.
  std::unordered_map<NodeId, GadgetBack> gadget_back;

  std::vector<std::int64_t> settled(run.levels, 0);
  std::vector<std::int64_t> relaxed(run.levels, 0);

  const auto relax_better = [&](NodeId st, double c, NodeId par,
                                graph::EdgeId via) {
    if (c < sw.dist_if_live(st)) {
      sw.relax(st, c, par, via);
      sw.heap_push(c, st);
      ++result.expanded_sub_solutions;
      return true;
    }
    return false;
  };

  const NodeId start = run.state_of(0, run.source);
  const NodeId goal = run.state_of(omega, run.destination);
  sw.relax(start, 0.0, graph::kInvalidNode, graph::kInvalidEdge);
  sw.heap_push(0.0, start);

  bool reached_goal = false;
  {
    DAGSFC_PHASE_SCOPE("layered/sweep");
    while (!sw.heap_empty()) {
      const auto [d, st] = sw.heap_pop();
      if (d > sw.dist_unchecked(st)) continue;  // stale entry
      const std::size_t l = st / n;
      const NodeId v = static_cast<NodeId>(st % n);
      ++settled[l];
      if (st == goal) {
        reached_goal = true;
        break;
      }

      const bool routing_level = l == omega || !run.dag.layer(l).has_merger();
      if (routing_level) {
        const std::uint32_t row_end = run.csr.offsets[v + 1];
        for (std::uint32_t s = run.csr.offsets[v]; s != row_end; ++s) {
          const graph::Incidence in = run.csr.incidence[s];
          if (!run.usable.allows(in.edge)) continue;
          const double nd = d + run.csr.weights[s];
          if (relax_better(run.state_of(l, in.neighbor), nd, st, in.edge)) {
            ++relaxed[l];
          }
        }
        if (l < omega) {
          const double price = run.seq_price[l][v];
          if (price >= 0.0 &&
              relax_better(run.state_of(l + 1, v), d + price, st,
                           graph::kInvalidEdge)) {
            ++relaxed[l];
          }
        }
        continue;
      }

      // Parallel layer l: fire the gadget at boundary node v with final
      // cost d. Arithmetic mirrors EXACT's transition term by term
      // so equal decisions produce bit-equal intermediate values.
      const sfc::Layer& layer = run.dag.layer(l);
      const auto& trees = run.merger_trees(l);
      if (trees.empty()) continue;
      std::int64_t improvements = 0;
      std::int64_t assignments = 0;
      for (Enumerator en(run.choices[l]); !en.done(); en.advance()) {
        const std::vector<NodeId> assign = en.current();
        ++assignments;
        std::vector<NodeId> terminals{v};
        terminals.insert(terminals.end(), assign.begin(), assign.end());
        const auto tree = run.oracle.steiner(terminals);
        if (!tree) continue;
        double base = d + tree->cost;
        for (std::size_t i = 0; i < assign.size(); ++i) {
          base += run.price_of(assign[i], layer.vnfs[i]);
        }
        for (const auto& [m, sp] : trees) {
          double inner = 0.0;
          bool ok = true;
          for (NodeId a : assign) {
            if (sp->dist[a] == graph::kInfCost) {
              ok = false;
              break;
            }
            inner += sp->dist[a];
          }
          if (!ok) continue;
          const double c =
              base + run.price_of(m, run.catalog.merger()) + inner;
          const NodeId child = run.state_of(l + 1, m);
          if (relax_better(child, c, st, graph::kInvalidEdge)) {
            gadget_back[child] = GadgetBack{assign, tree->edges};
            ++relaxed[l];
            ++improvements;
          }
        }
      }
      if (tr) {
        SolveEvent e;
        e.kind = TraceEventKind::LayeredGadget;
        e.i0 = static_cast<std::int64_t>(l);
        e.i1 = static_cast<std::int64_t>(v);
        e.i2 = improvements;
        e.v0 = d;
        e.v1 = static_cast<double>(assignments);
        tr(e);
      }
    }
  }

  if (tr) {
    for (std::size_t l = 0; l < run.levels; ++l) {
      SolveEvent e;
      e.kind = TraceEventKind::LayeredLevel;
      e.i0 = static_cast<std::int64_t>(l);
      e.i1 = settled[l];
      e.i2 = relaxed[l];
      tr(e);
    }
  }

  if (!reached_goal) {
    result.failure_reason =
        "destination unreachable in the layered product graph";
    result.path_queries = run.oracle.counters();
    return result;
  }

  // ---- Reconstruction ----------------------------------------------------
  DAGSFC_PHASE_SCOPE("layered/reconstruct");

  // Entry state of each level: walk routing parents within a level until
  // the parent sits one level down; that node is the boundary the level was
  // entered at (the placement of the layer that ended there).
  std::vector<NodeId> entry_state(run.levels);
  {
    NodeId st = goal;
    for (std::size_t l = omega;; --l) {
      NodeId par = sw.parent(st);
      while (par != graph::kInvalidNode && par / n == l) {
        st = par;
        par = sw.parent(st);
      }
      entry_state[l] = st;
      if (l == 0) break;
      st = par;
    }
  }

  if (tr) {
    SolveEvent e;
    e.kind = TraceEventKind::FinalCandidate;
    e.i0 = static_cast<std::int64_t>(entry_state[omega] % n);
    e.v0 = sw.dist_unchecked(goal);
    e.v1 = 1.0;
    tr(e);
  }

  // Mirrors the exact solver's reconstruction: sequential segments and
  // inner paths are re-derived from the oracle (identical kernels, masks
  // and tie-breaks), parallel inter paths replay the stored Steiner tree.
  EmbeddingSolution sol;
  sol.placement.assign(run.index.num_slots(), graph::kInvalidNode);
  sol.inter_paths.resize(run.index.inter_paths().size());
  sol.inner_paths.resize(run.index.inner_paths().size());

  for (std::size_t l = omega; l-- > 0;) {
    const sfc::Layer& layer = run.dag.layer(l);
    const NodeId prev_end = static_cast<NodeId>(entry_state[l] % n);
    const NodeId end = static_cast<NodeId>(entry_state[l + 1] % n);
    const auto slots = run.index.layer_slots(l);
    const auto [ifirst, ilast] = run.index.inter_group_range(l);
    if (!layer.has_merger()) {
      DAGSFC_ASSERT(ilast - ifirst == 1);
      sol.placement[slots[0]] = end;
      auto p = prev_end == end
                   ? std::optional<graph::Path>(trivial_path(prev_end))
                   : run.oracle.min_cost_path(prev_end, end);
      DAGSFC_CHECK(p.has_value());
      sol.inter_paths[ifirst] = std::move(*p);
    } else {
      const GadgetBack& back = gadget_back.at(entry_state[l + 1]);
      for (std::size_t i = 0; i < back.assignment.size(); ++i) {
        sol.placement[slots[i]] = back.assignment[i];
      }
      sol.placement[slots.back()] = end;  // merger slot
      for (std::size_t i = ifirst; i < ilast; ++i) {
        sol.inter_paths[i] = path_in_tree(run.g, back.tree_edges, prev_end,
                                          back.assignment[i - ifirst]);
      }
      const auto [nfirst, nlast] = run.index.inner_layer_range(l);
      for (std::size_t i = nfirst; i < nlast; ++i) {
        const NodeId a = back.assignment[i - nfirst];
        auto p = a == end ? std::optional<graph::Path>(trivial_path(a))
                          : run.oracle.min_cost_path(a, end);
        DAGSFC_CHECK(p.has_value());
        sol.inner_paths[i] = std::move(*p);
      }
    }
  }
  {
    const auto [dfirst, dlast] = run.index.inter_group_range(omega);
    DAGSFC_ASSERT(dlast - dfirst == 1);
    const NodeId best_end = static_cast<NodeId>(entry_state[omega] % n);
    auto p = best_end == run.destination
                 ? std::optional<graph::Path>(trivial_path(best_end))
                 : run.oracle.min_cost_path(best_end, run.destination);
    DAGSFC_CHECK(p.has_value());
    sol.inter_paths[dfirst] = std::move(*p);
  }

  run.finish(result, std::move(sol));
  return result;
}

// ---------------------------------------------------------------------------
// Bi-criteria engine: (cost, delay) labels with Pareto dominance, settled
// in (cost, state, delay) order, pruned against the budget at creation.
// The first label settled at the goal is the cheapest embedding whose
// critical-path delay fits.

struct Label {
  double cost = 0.0;
  double delay = 0.0;
  NodeId state = graph::kInvalidNode;
  std::int32_t parent = -1;          ///< label index, -1 for the root
  graph::EdgeId via = graph::kInvalidEdge;  ///< routing arc, else invalid
  std::int32_t gadget = -1;          ///< GadgetBack index, -1 otherwise
  bool dead = false;                 ///< dominated after insertion
};

SolveResult solve_budget(LayeredRun& run, double budget,
                         const DelayModel& model, std::size_t max_labels,
                         const Tracer& tr) {
  SolveResult result;
  const std::size_t n = run.n;
  const std::size_t omega = run.omega;

  std::vector<Label> labels;
  std::vector<GadgetBack> gadget_backs;
  std::vector<std::vector<std::uint32_t>> frontier(run.levels * n);

  // (cost, state, delay, label) min-heap: cheapest first, ties by state id
  // then delay — the scalar engine's pop order with delay as the third key.
  using HeapEntry = std::tuple<double, NodeId, double, std::uint32_t>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      heap;

  std::vector<std::int64_t> settled(run.levels, 0);
  std::vector<std::int64_t> relaxed(run.levels, 0);

  bool overflow = false;
  const auto try_insert = [&](NodeId st, double c, double dly,
                              std::int32_t parent, graph::EdgeId via,
                              std::int32_t gadget) {
    if (dly > budget) return false;
    auto& front = frontier[st];
    for (const std::uint32_t id : front) {
      if (labels[id].cost <= c && labels[id].delay <= dly) return false;
    }
    std::size_t kept = 0;
    for (const std::uint32_t id : front) {
      if (labels[id].cost >= c && labels[id].delay >= dly) {
        labels[id].dead = true;
      } else {
        front[kept++] = id;
      }
    }
    front.resize(kept);
    if (labels.size() >= max_labels) {
      overflow = true;
      return false;
    }
    const auto idx = static_cast<std::uint32_t>(labels.size());
    labels.push_back(Label{c, dly, st, parent, via, gadget, false});
    front.push_back(idx);
    heap.emplace(c, st, dly, idx);
    ++result.expanded_sub_solutions;
    return true;
  };

  const NodeId goal = run.state_of(omega, run.destination);
  try_insert(run.state_of(0, run.source), 0.0, 0.0, -1, graph::kInvalidEdge,
             -1);

  std::int32_t goal_label = -1;
  {
    DAGSFC_PHASE_SCOPE("layered/sweep_budget");
    while (!heap.empty() && !overflow) {
      const auto [c, st, dly, idx] = heap.top();
      heap.pop();
      if (labels[idx].dead) continue;
      const std::size_t l = st / n;
      const NodeId v = static_cast<NodeId>(st % n);
      ++settled[l];
      if (st == goal) {
        goal_label = static_cast<std::int32_t>(idx);
        break;
      }
      const std::int32_t from = static_cast<std::int32_t>(idx);

      const bool routing_level = l == omega || !run.dag.layer(l).has_merger();
      if (routing_level) {
        const std::uint32_t row_end = run.csr.offsets[v + 1];
        for (std::uint32_t s = run.csr.offsets[v]; s != row_end; ++s) {
          const graph::Incidence in = run.csr.incidence[s];
          if (!run.usable.allows(in.edge)) continue;
          if (try_insert(run.state_of(l, in.neighbor),
                         c + run.csr.weights[s], dly + model.per_hop_ms,
                         from, in.edge, -1)) {
            ++relaxed[l];
          }
        }
        if (l < omega) {
          const double price = run.seq_price[l][v];
          if (price >= 0.0 &&
              try_insert(run.state_of(l + 1, v), c + price,
                         dly + model.processing_ms(run.dag.layer(l).vnfs[0]),
                         from, graph::kInvalidEdge, -1)) {
            ++relaxed[l];
          }
        }
        continue;
      }

      const sfc::Layer& layer = run.dag.layer(l);
      const auto& trees = run.merger_trees(l);
      if (trees.empty()) continue;
      std::int64_t improvements = 0;
      std::int64_t assignments = 0;
      for (Enumerator en(run.choices[l]); !en.done(); en.advance()) {
        const std::vector<NodeId> assign = en.current();
        ++assignments;
        std::vector<NodeId> terminals{v};
        terminals.insert(terminals.end(), assign.begin(), assign.end());
        const auto tree = run.oracle.steiner(terminals);
        if (!tree) continue;
        double base = c + tree->cost;
        for (std::size_t i = 0; i < assign.size(); ++i) {
          base += run.price_of(assign[i], layer.vnfs[i]);
        }
        // Inter-layer hops inside the multicast tree are fixed per branch;
        // inner hops depend on the merger, so the branch maxima are folded
        // per (assignment, merger) pair below.
        std::vector<double> inter_delay(assign.size());
        for (std::size_t i = 0; i < assign.size(); ++i) {
          inter_delay[i] =
              static_cast<double>(
                  path_in_tree(run.g, tree->edges, v, assign[i]).length()) *
                  model.per_hop_ms +
              model.processing_ms(layer.vnfs[i]);
        }
        for (const auto& [m, sp] : trees) {
          double inner = 0.0;
          double branch_max = 0.0;
          bool ok = true;
          for (std::size_t i = 0; i < assign.size(); ++i) {
            const NodeId a = assign[i];
            if (sp->dist[a] == graph::kInfCost) {
              ok = false;
              break;
            }
            inner += sp->dist[a];
            const double branch =
                inter_delay[i] +
                static_cast<double>(tree_path_hops(*sp, a)) * model.per_hop_ms;
            branch_max = std::max(branch_max, branch);
          }
          if (!ok) continue;
          const double cost =
              base + run.price_of(m, run.catalog.merger()) + inner;
          const double delay = dly + branch_max + model.merger_ms;
          const auto gb = static_cast<std::int32_t>(gadget_backs.size());
          if (try_insert(run.state_of(l + 1, m), cost, delay, from,
                         graph::kInvalidEdge, gb)) {
            gadget_backs.push_back(GadgetBack{assign, tree->edges});
            ++relaxed[l];
            ++improvements;
          }
        }
      }
      if (tr) {
        SolveEvent e;
        e.kind = TraceEventKind::LayeredGadget;
        e.i0 = static_cast<std::int64_t>(l);
        e.i1 = static_cast<std::int64_t>(v);
        e.i2 = improvements;
        e.v0 = c;
        e.v1 = static_cast<double>(assignments);
        tr(e);
      }
    }
  }

  if (tr) {
    for (std::size_t l = 0; l < run.levels; ++l) {
      SolveEvent e;
      e.kind = TraceEventKind::LayeredLevel;
      e.i0 = static_cast<std::int64_t>(l);
      e.i1 = settled[l];
      e.i2 = relaxed[l];
      tr(e);
    }
  }

  result.path_queries = run.oracle.counters();
  if (overflow) {
    result.failure_reason = "layered label budget exhausted (" +
                            std::to_string(max_labels) +
                            " labels); relax the delay budget or raise "
                            "LayeredOptions::max_labels";
    return result;
  }
  if (goal_label < 0) {
    result.failure_reason = "no embedding fits the delay budget of " +
                            std::to_string(budget) + " ms";
    return result;
  }

  // ---- Reconstruction ----------------------------------------------------
  // Under a budget the winning chain's real routing matters (its hop counts
  // were charged against the budget), so the sequential segments replay the
  // label chain verbatim instead of re-deriving min-cost paths.
  DAGSFC_PHASE_SCOPE("layered/reconstruct_budget");

  std::vector<std::uint32_t> chain;
  for (std::int32_t i = goal_label; i >= 0; i = labels[i].parent) {
    chain.push_back(static_cast<std::uint32_t>(i));
  }
  std::reverse(chain.begin(), chain.end());

  if (tr) {
    SolveEvent e;
    e.kind = TraceEventKind::FinalCandidate;
    e.i0 = static_cast<std::int64_t>(labels[goal_label].state % n);
    e.v0 = labels[goal_label].cost;
    e.v1 = 1.0;
    tr(e);
  }

  EmbeddingSolution sol;
  sol.placement.assign(run.index.num_slots(), graph::kInvalidNode);
  sol.inter_paths.resize(run.index.inter_paths().size());
  sol.inner_paths.resize(run.index.inner_paths().size());

  graph::Path seg = trivial_path(run.source);
  for (std::size_t k = 1; k < chain.size(); ++k) {
    const Label& lab = labels[chain[k]];
    const NodeId node = static_cast<NodeId>(lab.state % n);
    const std::size_t to_level = lab.state / n;
    if (lab.via != graph::kInvalidEdge) {  // routing step within a level
      seg.nodes.push_back(node);
      seg.edges.push_back(lab.via);
      continue;
    }
    const std::size_t l = to_level - 1;  // the layer just embedded
    const auto slots = run.index.layer_slots(l);
    const auto [ifirst, ilast] = run.index.inter_group_range(l);
    if (lab.gadget < 0) {  // placement arc of a sequential layer
      DAGSFC_ASSERT(!run.dag.layer(l).has_merger());
      DAGSFC_ASSERT(seg.target() == node);
      sol.placement[slots[0]] = node;
      seg.cost = run.g.path_cost(seg);
      sol.inter_paths[ifirst] = std::move(seg);
    } else {  // gadget transition of a parallel layer
      DAGSFC_ASSERT(run.dag.layer(l).has_merger());
      DAGSFC_ASSERT(seg.edges.empty());  // no routing on a parallel level
      const NodeId prev_end = seg.nodes.front();
      const GadgetBack& back = gadget_backs[lab.gadget];
      for (std::size_t i = 0; i < back.assignment.size(); ++i) {
        sol.placement[slots[i]] = back.assignment[i];
      }
      sol.placement[slots.back()] = node;
      for (std::size_t i = ifirst; i < ilast; ++i) {
        sol.inter_paths[i] = path_in_tree(run.g, back.tree_edges, prev_end,
                                          back.assignment[i - ifirst]);
      }
      const auto& trees = run.from_merger[l];
      const auto sp = trees.at(node);
      const auto [nfirst, nlast] = run.index.inner_layer_range(l);
      for (std::size_t i = nfirst; i < nlast; ++i) {
        const NodeId a = back.assignment[i - nfirst];
        if (a == node) {
          sol.inner_paths[i] = trivial_path(a);
        } else {
          // The budget charged the tree's hop count for this branch, so
          // the real path must be the same tree path (reversed to run
          // VNF → merger).
          auto p = sp->path_to(a);
          DAGSFC_CHECK(p.has_value());
          sol.inner_paths[i] = reversed(run.g, *p);
        }
      }
    }
    seg = trivial_path(node);
  }
  {
    const auto [dfirst, dlast] = run.index.inter_group_range(omega);
    DAGSFC_ASSERT(dlast - dfirst == 1);
    DAGSFC_ASSERT(seg.target() == run.destination);
    seg.cost = run.g.path_cost(seg);
    sol.inter_paths[dfirst] = std::move(seg);
  }

  run.finish(result, std::move(sol));
  return result;
}

}  // namespace

SolveResult LayeredEmbedder::do_solve(const ModelIndex& index,
                                      const net::CapacityLedger& ledger,
                                      Rng& /*rng*/, TraceSink* trace,
                                      graph::SearchWorkspace* workspace)
    const {
  const Tracer tr(trace);
  LayeredRun run(index, ledger);

  if (run.too_large(opts_.max_work)) {
    SolveResult result;
    result.failure_reason = "instance too large for the layered solver";
    result.path_queries = run.oracle.counters();
    return result;
  }

  // "No budget" and "budget = ∞" are one and the same code path: the
  // scalar engine, whose labels never carry a delay coordinate. The
  // bi-criteria engine only runs for a finite budget, where delay can
  // actually prune.
  const bool constrained = opts_.delay_budget_ms.has_value() &&
                           std::isfinite(*opts_.delay_budget_ms);
  if (constrained) {
    return solve_budget(run, *opts_.delay_budget_ms, opts_.delay_model,
                        opts_.max_labels, tr);
  }

  graph::SearchWorkspace local_ws;
  graph::SearchWorkspace& sw = workspace != nullptr ? *workspace : local_ws;
  return solve_scalar(run, sw, tr);
}

}  // namespace dagsfc::core
