#include "core/search_tree.hpp"

#include <algorithm>

namespace dagsfc::core {

SearchTree SearchTree::from_expander(const graph::RingExpander& expander) {
  SearchTree t;
  t.assign(expander);
  return t;
}

void SearchTree::assign(const graph::RingExpander& expander) {
  const auto& visited = expander.visited();
  DAGSFC_CHECK(!visited.empty());
  for (graph::NodeId v : network_) index_of_[v] = kNone;
  nodes_.clear();
  network_.assign(visited.begin(), visited.end());

  // Discovery order keeps rings contiguous: the expander appends each ring's
  // nodes in order.
  graph::NodeId max_node = 0;
  for (graph::NodeId v : visited) max_node = std::max(max_node, v);
  if (index_of_.size() <= max_node) index_of_.resize(max_node + 1, kNone);

  for (graph::NodeId v : visited) {
    const auto idx = static_cast<TreeIndex>(nodes_.size());
    Node n;
    n.network_node = v;
    const graph::NodeId parent = expander.bfs_parent(v);
    if (parent != graph::kInvalidNode) {
      const TreeIndex pidx = index_of_[parent];
      DAGSFC_ASSERT(pidx != kNone);
      n.father = pidx;
      n.ring = nodes_[pidx].ring + 1;
    }
    index_of_[v] = idx;
    nodes_.push_back(n);
  }
}

SearchTree::TreeIndex SearchTree::find(graph::NodeId v) const {
  if (v >= index_of_.size()) return kNone;
  return index_of_[v];
}

double SearchTree::append_path_to_root(
    const graph::Graph& g, graph::NodeId v, std::vector<graph::NodeId>& nodes,
    std::vector<graph::EdgeId>& edges) const {
  TreeIndex i = find(v);
  DAGSFC_CHECK_MSG(i != kNone, "node was not reached by this search");
  double cost = 0.0;
  nodes.push_back(nodes_[i].network_node);
  while (nodes_[i].father != kNone) {
    const TreeIndex f = nodes_[i].father;
    const auto e =
        g.find_edge(nodes_[i].network_node, nodes_[f].network_node);
    DAGSFC_CHECK_MSG(e.has_value(), "father hop is not a network link");
    edges.push_back(*e);
    cost += g.edge(*e).weight;
    nodes.push_back(nodes_[f].network_node);
    i = f;
  }
  return cost;
}

graph::Path SearchTree::path_to_root(const graph::Graph& g,
                                     graph::NodeId v) const {
  graph::Path p;
  p.cost = append_path_to_root(g, v, p.nodes, p.edges);
  return p;
}

graph::Path SearchTree::path_from_root(const graph::Graph& g,
                                       graph::NodeId v) const {
  graph::Path p = path_to_root(g, v);
  std::reverse(p.nodes.begin(), p.nodes.end());
  std::reverse(p.edges.begin(), p.edges.end());
  return p;
}

std::vector<SearchTree::BinaryNode> SearchTree::binary_view() const {
  std::vector<BinaryNode> out(nodes_.size());
  for (TreeIndex i = 0; i < nodes_.size(); ++i) {
    out[i].father = nodes_[i].father;
    out[i].network_node = nodes_[i].network_node;
    // Left child: the first node this one discovered in the next iteration
    // — the lowest index fathered by it, as indices follow discovery.
    const TreeIndex f = nodes_[i].father;
    if (f != kNone && out[f].left_child == kNone) out[f].left_child = i;
  }
  // Right child: the next node discovered in the same iteration. Nodes are
  // stored in discovery order, so rings are contiguous index ranges.
  for (TreeIndex i = 0; i + 1 < nodes_.size(); ++i) {
    if (nodes_[i + 1].ring == nodes_[i].ring) {
      out[i].right_child = i + 1;
    }
  }
  return out;
}

}  // namespace dagsfc::core
