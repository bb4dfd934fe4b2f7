#include "graph/graph.hpp"

#include <algorithm>

namespace dagsfc::graph {

NodeId Graph::add_node() {
  adjacency_.emplace_back();
  csr_fresh_.store(false, std::memory_order_release);
  return static_cast<NodeId>(adjacency_.size() - 1);
}

EdgeId Graph::add_edge(NodeId u, NodeId v, double weight) {
  DAGSFC_CHECK(u < adjacency_.size() && v < adjacency_.size());
  DAGSFC_CHECK_MSG(u != v, "self loops are not allowed");
  DAGSFC_CHECK_MSG(weight >= 0.0, "edge weights (prices) must be >= 0");
  DAGSFC_CHECK_MSG(!find_edge(u, v).has_value(),
                   "parallel edges are not allowed");
  const auto id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{u, v, weight});
  adjacency_[u].push_back(Incidence{id, v});
  adjacency_[v].push_back(Incidence{id, u});
  csr_fresh_.store(false, std::memory_order_release);
  return id;
}

CsrView Graph::csr() const {
  if (!csr_fresh_.load(std::memory_order_acquire)) build_csr();
  return CsrView{csr_offsets_, csr_incidence_, csr_weights_};
}

void Graph::build_csr() const {
  std::lock_guard lock(csr_mu_);
  if (csr_fresh_.load(std::memory_order_relaxed)) return;
  const std::size_t n = adjacency_.size();
  csr_offsets_.resize(n + 1);
  csr_incidence_.clear();
  csr_incidence_.reserve(2 * edges_.size());
  csr_weights_.clear();
  csr_weights_.reserve(2 * edges_.size());
  csr_edge_slots_.assign(edges_.size(), {0, 0});
  std::uint32_t offset = 0;
  for (std::size_t v = 0; v < n; ++v) {
    csr_offsets_[v] = offset;
    // Row order = incidence-list insertion order, so CSR iteration visits
    // neighbors exactly as neighbors() does (determinism contract).
    for (const Incidence& inc : adjacency_[v]) {
      const auto slot = static_cast<std::uint32_t>(csr_incidence_.size());
      csr_incidence_.push_back(inc);
      csr_weights_.push_back(edges_[inc.edge].weight);
      // Each undirected edge appears in exactly two rows; record both slots
      // (in row order: u's first, then v's — the order doesn't matter).
      auto& slots = csr_edge_slots_[inc.edge];
      if (inc.neighbor == edges_[inc.edge].v) {
        slots[0] = slot;  // this is u's row
      } else {
        slots[1] = slot;  // this is v's row
      }
    }
    offset += static_cast<std::uint32_t>(adjacency_[v].size());
  }
  csr_offsets_[n] = offset;
  csr_fresh_.store(true, std::memory_order_release);
}

void Graph::set_weight(EdgeId e, double weight) {
  DAGSFC_CHECK(e < edges_.size());
  DAGSFC_CHECK(weight >= 0.0);
  edges_[e].weight = weight;
  if (csr_fresh_.load(std::memory_order_acquire)) {
    // Write the CSR weight mirror through so the packed view stays valid
    // without a rebuild. Mutating concurrently with readers is undefined
    // behaviour (same contract as every other mutator).
    const auto& slots = csr_edge_slots_[e];
    csr_weights_[slots[0]] = weight;
    csr_weights_[slots[1]] = weight;
  }
}

std::optional<EdgeId> Graph::find_edge(NodeId u, NodeId v) const {
  // Scan the smaller incidence list (checked inside the probe helper).
  const NodeId probe = find_edge_probe_endpoint(u, v);
  const NodeId want = probe == u ? v : u;
  for (const Incidence& inc : adjacency_[probe]) {
    if (inc.neighbor == want) return inc.edge;
  }
  return std::nullopt;
}

double Graph::average_degree() const noexcept {
  if (adjacency_.empty()) return 0.0;
  return 2.0 * static_cast<double>(edges_.size()) /
         static_cast<double>(adjacency_.size());
}

double Graph::path_cost(const Path& p) const {
  double total = 0.0;
  for (EdgeId e : p.edges) total += edge(e).weight;
  return total;
}

bool Graph::path_valid(const Path& p) const {
  if (p.nodes.empty()) return p.edges.empty();
  if (p.edges.size() + 1 != p.nodes.size()) return false;
  for (NodeId v : p.nodes) {
    if (!has_node(v)) return false;
  }
  for (std::size_t i = 0; i < p.edges.size(); ++i) {
    if (p.edges[i] >= edges_.size()) return false;
    const Edge& e = edges_[p.edges[i]];
    const NodeId a = p.nodes[i];
    const NodeId b = p.nodes[i + 1];
    if (!((e.u == a && e.v == b) || (e.u == b && e.v == a))) return false;
  }
  return true;
}

namespace {
std::size_t reachable_from(const Graph& g, NodeId start,
                           std::vector<char>& seen) {
  std::vector<NodeId> stack{start};
  seen[start] = 1;
  std::size_t count = 0;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    ++count;
    for (const Incidence& inc : g.neighbors(v)) {
      if (!seen[inc.neighbor]) {
        seen[inc.neighbor] = 1;
        stack.push_back(inc.neighbor);
      }
    }
  }
  return count;
}
}  // namespace

bool is_connected(const Graph& g) {
  if (g.num_nodes() == 0) return true;
  std::vector<char> seen(g.num_nodes(), 0);
  return reachable_from(g, 0, seen) == g.num_nodes();
}

std::size_t component_count(const Graph& g) {
  std::vector<char> seen(g.num_nodes(), 0);
  std::size_t components = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!seen[v]) {
      ++components;
      (void)reachable_from(g, v, seen);
    }
  }
  return components;
}

}  // namespace dagsfc::graph
