#pragma once
/// \file dijkstra.hpp
/// Min-cost path queries over link prices. Used by the RANV/MINV baselines,
/// by MBBE's strategy (2) (meta-path instantiation via minimum-cost paths on
/// the real-time network), and as the relaxation inside Yen's algorithm.
///
/// Three API tiers:
///   * Flat tier — dijkstra_into() and friends run over the graph's CSR view
///     with a caller-owned SearchWorkspace and an optional EdgeMask. Warm
///     calls are allocation-free; results live in the workspace until the
///     next search and can be exported on demand. Yen's spur searches, the
///     Steiner DP's base case (one search per terminal) and the shard
///     plane's border summaries (one per border node) run on it.
///   * Resumable tier — LazyTree owns its labels and frontier, so a search
///     can stop at one target and later resume toward a farther one. It
///     runs the flat tier's relaxation loop and heap; PathCache entries are
///     LazyTrees, and every PathOracle min-cost query reads one.
///   * Legacy tier — the original EdgeFilter signatures, kept for callers
///     that don't carry a workspace (ILP bound generation, the shard
///     substrate, one-off tests). They materialize the filter into a mask
///     and run the flat kernels through a per-thread workspace.
///
/// Every tier is bit-identical to the frozen seed kernels, which live
/// outside the production libraries as the tests' oracle (graph::reference,
/// under reference/).

#include <optional>
#include <vector>

#include "graph/edge_mask.hpp"
#include "graph/graph.hpp"
#include "graph/workspace.hpp"

namespace dagsfc::graph {

/// Single-source shortest path tree by edge weight (price).
struct ShortestPathTree {
  NodeId source = kInvalidNode;
  std::vector<double> dist;        // kInfCost if unreachable
  std::vector<NodeId> parent;      // kInvalidNode for source/unreached
  std::vector<EdgeId> parent_edge;

  [[nodiscard]] bool reached(NodeId v) const {
    return v < dist.size() && dist[v] < kInfCost;
  }
  /// Reconstructs the min-cost path source→target; nullopt if unreachable.
  [[nodiscard]] std::optional<Path> path_to(NodeId target) const;
  /// Appends that path's node and edge ids to the caller's buffers (no
  /// allocation once they are warm). Requires reached(target).
  void append_path_to(NodeId target, std::vector<NodeId>& nodes,
                      std::vector<EdgeId>& edges) const;
};

// --- flat tier -----------------------------------------------------------

/// Dijkstra from \p source into \p ws. A null \p mask means all edges are
/// usable; \p stop_at = kInvalidNode means exhaust the graph, otherwise the
/// search stops once \p stop_at is the next node to settle, its label final
/// (same early exit as the seed's point-to-point query). On a warm
/// workspace this performs no heap allocation. The mask (when given) must
/// cover g.num_edges() bits. Returns the number of nodes settled (rows
/// scanned).
std::size_t dijkstra_into(const Graph& g, NodeId source, SearchWorkspace& ws,
                          const EdgeMask* mask = nullptr,
                          NodeId stop_at = kInvalidNode);

/// Copies the last search out of \p ws into an owning tree over \p n nodes
/// (pass g.num_nodes(); unreached slots get the kInfCost/kInvalid fill the
/// seed used).
[[nodiscard]] ShortestPathTree export_tree(const SearchWorkspace& ws,
                                           std::size_t n);

/// Reconstructs the path to \p target straight from \p ws — exactly
/// ShortestPathTree::path_to without materializing the tree.
[[nodiscard]] std::optional<Path> extract_path(const SearchWorkspace& ws,
                                               NodeId target);

/// Full search + export, for callers that want an owning tree.
[[nodiscard]] ShortestPathTree dijkstra(const Graph& g, NodeId source,
                                        SearchWorkspace& ws,
                                        const EdgeMask* mask = nullptr);

/// Point-to-point min-cost path with early exit at \p target.
[[nodiscard]] std::optional<Path> min_cost_path(const Graph& g, NodeId source,
                                                NodeId target,
                                                SearchWorkspace& ws,
                                                const EdgeMask* mask = nullptr);

// --- resumable tier ------------------------------------------------------

/// A single-source Dijkstra search that settles nodes on demand: the
/// graph::PathCache's tree entry. It runs the flat tier's relaxation loop
/// and heap, popping in the same strict (dist, node) order, but it stops as
/// soon as the queried target's distance is final and keeps its frontier
/// (tentative labels plus heap), so a later query for a farther node
/// resumes where the last one stopped instead of starting over.
///
/// The settled nodes are always a prefix of the full search's pop sequence,
/// with the same dist/parent bits: a popped node's label never changes
/// again, and every call continues the one pop sequence. So each answer
/// equals a fresh full dijkstra() bit for bit. Each call takes the
/// usable-edge mask in force now; the owner guarantees it differs from the
/// mask the search started under only by edges whose loss cannot change the
/// settled prefix or the frontier (path_cache.hpp's footprint contract),
/// and an entry it has invalidated refuses to resume.
///
/// Per-node state is `dist` plus one fused parent link per node; the heap
/// is reserved for one entry per node and freed when the search runs out
/// of frontier. Not thread-safe.
class LazyTree {
 public:
  /// Seeds a search from \p source over \p g; nothing is settled yet.
  LazyTree(const Graph& g, NodeId source);

  LazyTree(const LazyTree&) = delete;
  LazyTree& operator=(const LazyTree&) = delete;

  /// Settles until \p target's distance is final or the frontier runs out,
  /// scanning edges allowed by \p mask (null ⇒ all). Returns the number of
  /// nodes this call settled — 0 when the answer was already final.
  std::size_t settle(const Graph& g, NodeId target, const EdgeMask* mask);
  /// Settles every reachable node.
  std::size_t settle_all(const Graph& g, const EdgeMask* mask);

  /// Whether \p v's label is final: the smallest key left on the heap is
  /// at least dist[v], so no later relaxation can improve it. True for
  /// every settled node, and for a tentative one no pending pop can
  /// undercut. O(1).
  [[nodiscard]] bool is_final(NodeId v) const;
  /// Whether the frontier is exhausted — every reachable node settled.
  [[nodiscard]] bool complete() const noexcept { return heap_.empty(); }

  [[nodiscard]] bool reached(NodeId v) const {
    return v < dist.size() && dist[v] < kInfCost;
  }
  /// Parent links, tentative on the frontier and final where settled;
  /// kInvalidNode / kInvalidEdge at the source and beyond the frontier.
  [[nodiscard]] NodeId parent(NodeId v) const { return links_[v].parent; }
  [[nodiscard]] EdgeId parent_edge(NodeId v) const { return links_[v].edge; }

  /// The min-cost path source → \p target (as ShortestPathTree::path_to
  /// builds it); nullopt if unreachable. Requires is_final(target).
  [[nodiscard]] std::optional<Path> path_to(NodeId target) const;
  /// Appends that path's node and edge ids to the caller's buffers.
  /// Requires reached(target) and is_final(target).
  void append_path_to(NodeId target, std::vector<NodeId>& nodes,
                      std::vector<EdgeId>& edges) const;

  /// Marks the entry stale: its owner's network changed under it. Reads of
  /// what it already settled stay allowed; resuming fails a DAGSFC_CHECK.
  void invalidate() noexcept { invalidated_ = true; }
  [[nodiscard]] bool invalidated() const noexcept { return invalidated_; }

  /// The search's root. Read-only, like `dist`: only the search writes.
  NodeId source;
  /// Distance labels: final where settled, tentative on the frontier,
  /// kInfCost beyond it.
  std::vector<double> dist;

 private:
  template <typename Stop>
  std::size_t resume(const Graph& g, const EdgeMask* mask, const Stop& stop);

  std::vector<ParentLink> links_;
  SearchHeap heap_;
  bool invalidated_ = false;
};

// --- legacy tier ---------------------------------------------------------

/// Dijkstra from \p source over the whole graph (or the filtered subgraph).
[[nodiscard]] ShortestPathTree dijkstra(const Graph& g, NodeId source,
                                        const EdgeFilter& filter = {});

/// Point-to-point min-cost path with early exit at \p target.
[[nodiscard]] std::optional<Path> min_cost_path(const Graph& g, NodeId source,
                                                NodeId target,
                                                const EdgeFilter& filter = {});

}  // namespace dagsfc::graph
