#pragma once
/// \file bfs.hpp
/// Breadth-first search in "rings", the primitive behind the paper's forward
/// and backward searches (§4.2, §4.3): iteration q of the search adds every
/// node adjacent to the set accumulated after iteration q−1.

#include <functional>
#include <vector>

#include "graph/graph.hpp"
#include "graph/workspace.hpp"

namespace dagsfc::graph {

/// Predicate limiting which nodes a search may enter. Returning false makes
/// the node invisible (used by the backward search, which is restricted to
/// the forward-search node set).
using NodeFilter = std::function<bool(NodeId)>;

/// The one ring search, incremental: the caller pulls one ring at a time
/// and stops when its own coverage condition holds — exactly the shape of
/// the paper's forward search, which stops as soon as the accumulated node
/// set hosts all VNFs of the layer. A caller that wants every ring expands
/// until expand() returns empty. Also supports a hard cap on the
/// visited-set size (MBBE strategy (1): |V^{F,l}| ≤ X_max).
///
/// All working state lives in a SearchWorkspace's BFS section (stamps
/// instead of a per-construction O(V) seen array). Pass the solver's
/// workspace to reuse its buffers across the thousands of ring searches a
/// sweep performs; with no workspace the expander owns a private one. At
/// most one expander may use a given workspace at a time — the embedders
/// satisfy this because each ring search completes (and is copied out into a
/// SearchTree) before the next begins.
class RingExpander {
 public:
  explicit RingExpander(const Graph& g, NodeId start, NodeFilter filter = {},
                        SearchWorkspace* ws = nullptr);
  RingExpander(RingExpander&&) = delete;  // ws_ may point at own_ws_

  /// Expands one more ring. Returns the newly reached nodes; empty when the
  /// reachable (filtered) component is exhausted.
  const std::vector<NodeId>& expand();

  [[nodiscard]] const std::vector<NodeId>& current_ring() const noexcept {
    return ws_->bfs_ring();
  }
  /// All nodes reached so far, in discovery order (start first).
  [[nodiscard]] const std::vector<NodeId>& visited() const noexcept {
    return ws_->bfs_visited();
  }
  [[nodiscard]] bool contains(NodeId v) const { return ws_->bfs_seen(v); }
  /// Number of completed expand() calls; ring index of current_ring().
  [[nodiscard]] std::size_t iterations() const noexcept { return iterations_; }
  [[nodiscard]] NodeId bfs_parent(NodeId v) const {
    DAGSFC_CHECK(g_.has_node(v));
    return ws_->bfs_parent(v);
  }

 private:
  const Graph& g_;
  NodeFilter filter_;
  SearchWorkspace own_ws_;  // used only when the caller passes none
  SearchWorkspace* ws_;     // mutable view even from const accessors
  std::size_t iterations_ = 0;
};

}  // namespace dagsfc::graph
