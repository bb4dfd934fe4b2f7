#pragma once
/// \file dijkstra.hpp
/// Min-cost path queries over link prices. Used by the RANV/MINV baselines,
/// by MBBE's strategy (2) (meta-path instantiation via minimum-cost paths on
/// the real-time network), and as the relaxation inside Yen's algorithm.
///
/// Two tiers, both over the graph's CSR view and an optional EdgeMask, the
/// one edge predicate (null ⇒ every edge usable):
///   * One-shot searches — dijkstra_into() and min_cost_path() run over a
///     caller-owned SearchWorkspace. Warm calls are allocation-free; the
///     result lives in the workspace until its next search. Yen's spur
///     searches and the Steiner DP's base case (one search per terminal)
///     run on it.
///   * Resumable searches — LazyTree owns its labels and frontier, so a
///     search can stop at one target and later resume toward a farther
///     one. It runs the one-shot tier's relaxation loop and heap; PathCache
///     entries are LazyTrees, and every PathOracle min-cost query reads one.
///
/// Every entry point checks that a mask covers the graph's edge ids and
/// throws ContractViolation when it is shorter. Both tiers are
/// bit-identical to the frozen seed kernels, which live outside the
/// production libraries as the tests' oracle (graph::reference, under
/// reference/).

#include <optional>
#include <vector>

#include "graph/edge_mask.hpp"
#include "graph/graph.hpp"
#include "graph/workspace.hpp"

namespace dagsfc::graph {

// --- one-shot tier -------------------------------------------------------

/// Dijkstra from \p source into \p ws. A null \p mask means all edges are
/// usable; \p stop_at = kInvalidNode means exhaust the graph, otherwise the
/// search stops once \p stop_at is the next node to settle, its label final
/// (same early exit as the seed's point-to-point query). On a warm
/// workspace this performs no heap allocation. A mask shorter than
/// g.num_edges() bits throws ContractViolation. Returns the number of nodes
/// settled (rows scanned).
std::size_t dijkstra_into(const Graph& g, NodeId source, SearchWorkspace& ws,
                          const EdgeMask* mask = nullptr,
                          NodeId stop_at = kInvalidNode);

/// The min-cost path source → \p target of the last search in \p ws;
/// nullopt if unreachable.
[[nodiscard]] std::optional<Path> extract_path(const SearchWorkspace& ws,
                                               NodeId target);

/// Point-to-point min-cost path with early exit at \p target.
[[nodiscard]] std::optional<Path> min_cost_path(const Graph& g, NodeId source,
                                                NodeId target,
                                                SearchWorkspace& ws,
                                                const EdgeMask* mask = nullptr);

// --- resumable tier ------------------------------------------------------

/// A single-source Dijkstra search that settles nodes on demand: the
/// graph::PathCache's tree entry. It runs the one-shot tier's relaxation
/// loop and heap, popping in the same strict (dist, node) order, but it
/// stops as soon as the queried target's distance is final and keeps its
/// frontier (tentative labels plus heap), so a later query for a farther
/// node resumes where the last one stopped instead of starting over.
///
/// The settled nodes are always a prefix of the full search's pop sequence,
/// with the same dist/parent bits: a popped node's label never changes
/// again, and every call continues the one pop sequence. So each answer
/// equals a fresh full dijkstra_into() search bit for bit. Each call takes
/// the usable-edge mask in force now; the owner guarantees it differs from
/// the mask the search started under only by edges whose loss cannot change
/// the settled prefix or the frontier (path_cache.hpp's footprint
/// contract), and an entry it has invalidated refuses to resume.
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
  /// scanning edges allowed by \p mask (null ⇒ all; a mask shorter than
  /// g.num_edges() bits throws ContractViolation). Returns the number of
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

  /// The min-cost path source → \p target (as extract_path() builds it);
  /// nullopt if unreachable. Requires is_final(target).
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

}  // namespace dagsfc::graph
