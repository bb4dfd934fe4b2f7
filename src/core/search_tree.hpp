#pragma once
/// \file search_tree.hpp
/// Forward/Backward Search Trees (paper §4.2.2, §4.3.2, Table 1, Fig. 4).
///
/// An FST stores the result of one forward search I^F_l: the root is the
/// layer's start node, each later tree node is a network node first reached
/// in some BFS iteration, and its *father* (the dotted arrow of Fig. 4) is
/// the neighbor through which it was discovered — so walking father pointers
/// instantiates a real-path back to the root. A BST is structurally
/// identical with the layer's end node (merger) as root.
///
/// The paper stores the tree in a binary left-child/right-sibling encoding
/// (Table 1: father, left child = first node found in the next iteration,
/// right child = next node of the same iteration). We keep father pointers
/// in discovery order for the algorithms and expose the equivalent binary
/// encoding through binary_view() — tests verify the two views agree.
///
/// The backtracking engine runs one search per sub-solution and merger, so
/// a tree is rebuilt in place (assign()) and hands out real-paths by
/// appending to caller buffers: once warm, neither allocates.

#include <vector>

#include "graph/bfs.hpp"
#include "graph/graph.hpp"

namespace dagsfc::core {

class SearchTree {
 public:
  using TreeIndex = std::uint32_t;
  static constexpr TreeIndex kNone = static_cast<TreeIndex>(-1);

  struct Node {
    graph::NodeId network_node = graph::kInvalidNode;  // Table 1 element 4
    TreeIndex father = kNone;                          // element 1
    std::uint32_t ring = 0;  ///< BFS iteration that discovered the node
  };

  /// Binary left-child/right-sibling record per Table 1.
  struct BinaryNode {
    TreeIndex father = kNone;
    TreeIndex left_child = kNone;   ///< first child (next iteration)
    TreeIndex right_child = kNone;  ///< next node of the same iteration
    graph::NodeId network_node = graph::kInvalidNode;
  };

  /// Builds the tree from a completed RingExpander: one tree node per
  /// visited network node, fathered by its BFS parent.
  static SearchTree from_expander(const graph::RingExpander& expander);
  /// Rebuilds this tree from \p expander in place, reusing its storage.
  void assign(const graph::RingExpander& expander);

  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
  [[nodiscard]] const Node& node(TreeIndex i) const {
    DAGSFC_CHECK(i < nodes_.size());
    return nodes_[i];
  }
  [[nodiscard]] TreeIndex root() const noexcept { return 0; }
  [[nodiscard]] graph::NodeId root_network_node() const {
    return node(0).network_node;
  }

  /// Tree index of a network node, or kNone if it was not searched.
  [[nodiscard]] TreeIndex find(graph::NodeId v) const;
  [[nodiscard]] bool contains(graph::NodeId v) const {
    return find(v) != kNone;
  }

  /// All network nodes in the tree, in discovery order.
  [[nodiscard]] const std::vector<graph::NodeId>& network_nodes() const {
    return network_;
  }

  /// Appends the real-path from \p v to the root, obtained by walking
  /// father pointers (the "existing path to the root" of §4.2.2), to
  /// \p nodes and \p edges, both in to-root order, and returns its cost
  /// summed in that order. Requires v in the tree and each father hop to be
  /// an actual link of \p g.
  double append_path_to_root(const graph::Graph& g, graph::NodeId v,
                             std::vector<graph::NodeId>& nodes,
                             std::vector<graph::EdgeId>& edges) const;
  /// The same path as a graph::Path.
  [[nodiscard]] graph::Path path_to_root(const graph::Graph& g,
                                         graph::NodeId v) const;
  /// Same path reversed: root → v.
  [[nodiscard]] graph::Path path_from_root(const graph::Graph& g,
                                           graph::NodeId v) const;

  /// The paper's binary encoding, index-aligned with node().
  [[nodiscard]] std::vector<BinaryNode> binary_view() const;

 private:
  std::vector<Node> nodes_;
  std::vector<graph::NodeId> network_;  // nodes_[i].network_node, in order
  std::vector<TreeIndex> index_of_;     // network node -> tree index
};

}  // namespace dagsfc::core
