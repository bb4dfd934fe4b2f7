#include "core/report.hpp"

#include <iomanip>
#include <sstream>

#include "util/metrics.hpp"

namespace dagsfc::core {

namespace {

std::string path_str(const graph::Path& p) {
  std::ostringstream os;
  for (std::size_t i = 0; i < p.nodes.size(); ++i) {
    if (i) os << " - ";
    os << p.nodes[i];
  }
  if (p.edges.empty()) os << " (co-located)";
  return os.str();
}

}  // namespace

std::string describe(const Evaluator& evaluator,
                     const EmbeddingSolution& sol) {
  const ModelIndex& index = evaluator.index();
  const EmbeddingProblem& prob = index.problem();
  const net::VnfCatalog& catalog = prob.net().catalog();
  std::ostringstream os;
  os << std::fixed << std::setprecision(2);

  os << "flow: node " << prob.flow.source << " -> node "
     << prob.flow.destination << " (rate " << prob.flow.rate << ", size "
     << prob.flow.size << ")\n";
  for (std::size_t l = 0; l < prob.dag().num_layers(); ++l) {
    os << "layer " << l + 1 << ":";
    for (SlotId s : index.layer_slots(l)) {
      os << "  " << catalog.name(index.slot_type(s)) << "@node"
         << sol.placement[s];
    }
    os << '\n';
  }
  os << "inter-layer real-paths (multicast per layer):\n";
  for (std::size_t i = 0; i < sol.inter_paths.size(); ++i) {
    os << "  [group " << index.inter_paths()[i].layer << "] "
       << path_str(sol.inter_paths[i]) << '\n';
  }
  if (!sol.inner_paths.empty()) {
    os << "inner-layer real-paths (to mergers):\n";
    for (std::size_t i = 0; i < sol.inner_paths.size(); ++i) {
      os << "  [layer " << index.inner_paths()[i].layer + 1 << "] "
         << path_str(sol.inner_paths[i]) << '\n';
    }
  }
  const ResourceUsage u = evaluator.usage(sol);
  const auto [vnf, link] = evaluator.cost_breakdown(u);
  os << "cost: " << vnf + link << " (VNF rental " << vnf << " + links "
     << link << ")\n";
  return os.str();
}

std::string describe_search(const SolveResult& result) {
  const graph::PathQueryCounters& c = result.path_queries;
  std::ostringstream os;
  os << "search: expanded " << result.expanded_sub_solutions
     << " sub-solutions, " << result.candidate_solutions << " candidates; "
     << "dijkstra " << c.dijkstra_calls;
  if (c.nodes_settled > 0) os << " (" << c.nodes_settled << " settled)";
  os << ", yen " << c.yen_calls;
  if (c.bfs_calls > 0) os << ", bfs " << c.bfs_calls;
  if (c.steiner_calls > 0) os << ", steiner " << c.steiner_calls;
  os << ", path-cache " << c.cache_hits << "/"
     << c.cache_hits + c.cache_misses << " hits";
  if (c.cache_hits + c.cache_misses > 0) {
    os << " (" << util::format_percent(c.hit_rate()) << ")";
  }
  if (c.evictions > 0) os << ", " << c.evictions << " evicted";
  return os.str();
}

std::string to_dot(const Evaluator& evaluator, const EmbeddingSolution& sol,
                   const std::string& name) {
  const ModelIndex& index = evaluator.index();
  const EmbeddingProblem& prob = index.problem();
  const net::Network& net = prob.net();
  const graph::Graph& g = net.topology();
  const ResourceUsage u = evaluator.usage(sol);

  // VNFs rented per node, for labels.
  std::vector<std::string> rented(g.num_nodes());
  for (SlotId s = 0; s < index.num_slots(); ++s) {
    std::string& label = rented[sol.placement[s]];
    if (!label.empty()) label += "\\n";
    label += net.catalog().name(index.slot_type(s));
  }

  std::ostringstream os;
  os << std::fixed << std::setprecision(2);
  os << "graph \"" << name << "\" {\n  overlap=false;\n";
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    os << "  n" << v << " [label=\"" << v;
    if (!rented[v].empty()) os << "\\n" << rented[v];
    os << "\"";
    if (v == prob.flow.source || v == prob.flow.destination) {
      os << ",shape=doublecircle";
    } else if (!rented[v].empty()) {
      os << ",shape=box,style=bold";
    } else {
      os << ",color=gray";
    }
    os << "];\n";
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge& ed = g.edge(e);
    os << "  n" << ed.u << " -- n" << ed.v;
    if (u.link_uses[e] > 0) {
      os << " [style=bold,label=\"x" << u.link_uses[e] << "\"]";
    } else {
      os << " [color=gray]";
    }
    os << ";\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace dagsfc::core
