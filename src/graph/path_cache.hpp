#pragma once
/// \file path_cache.hpp
/// Footprint-invalidated memoization of shortest-path computations.
///
/// The embedders spend most of their time re-running Dijkstra and Yen
/// between the same endpoints while the residual network has not changed:
/// BBE/MBBE re-derive the min-cost paths of a sub-solution's end node once
/// per parent, and the baselines route every meta-path from scratch. A
/// PathCache memoizes those results keyed by (context, endpoints, k), where
/// context is the flow rate in the owner's integer residual units — the one
/// extra input the usable-edge mask depends on — so flows whose rates differ
/// in units never share entries.
///
/// ## Resumable tree entries
///
/// A tree entry is a graph::LazyTree: a Dijkstra search from its source
/// that settles only as far as its queries have needed. A miss starts one
/// with nothing settled; each query settles it until its target's distance
/// is final and keeps the frontier, so a later query for a farther node
/// resumes it. The settled nodes are a prefix of the full search's pop
/// sequence with the same dist/parent bits, so a point-to-point answer read
/// from an entry equals the full tree's (and the early-exit search's).
///
/// ## Invalidation contract
///
/// Entries are kept alive by events, not by version keys: the owner (a
/// net::CapacityLedger) forwards every link-residual change through
/// on_link_debit() / on_link_credit() with the residual counts before and
/// after. A change matters to the cached entries of rate r only when it
/// flips the edge's usability at that rate (usable ⇔ residual ≥ r, compared
/// exactly in units); anything short of a flip leaves the rate-r usable-edge
/// set — and therefore every rate-r result — untouched, so most commits
/// evict nothing.
///
/// When a debit DOES flip an edge e = (u, v) unusable at rate r:
///   * Tree entries at rate r whose parent-edge footprint avoids e are
///     kept; the rest are evicted. The footprint is every node's parent
///     edge — final on settled nodes, tentative on the frontier — and e is
///     in it exactly when it is the parent edge of u or of v (the owner
///     passes the endpoints; the test is two lookups). This is exact, not
///     heuristic: pops happen in (dist, node) order and a node's parent is
///     the first relaxation to reach its current distance. Without e, every
///     relaxation the search ran except those through e happens alike, and
///     a relaxation through e that is nobody's parent either never improved
///     a label or was superseded by a strict improvement. So a fresh search
///     without e pops the same prefix with the same dist/parent bits and
///     ends with the same frontier labels; only stale heap entries differ,
///     and those are skipped. Resuming the kept entry under the new mask is
///     therefore a fresh search, bit for bit.
///   * Yen entries at rate r are evicted wholesale. Intersection-only
///     eviction would be wrong for k-paths: a spur path using e can mask
///     an equal-cost e-free alternative from the candidate pool, so a
///     result that never mentions e may still change when e disappears.
/// A credit that flips e usable evicts every rate-r entry of both kinds —
/// a newly usable edge can improve (or lexicographically re-rank) paths
/// anywhere. Instance-capacity changes never reach the cache; edge
/// usability depends only on link residuals.
///
/// Entries are shared_ptr-owned so callers can hold them across later cache
/// calls. An entry evicted by a hook is marked invalidated:
/// what it settled stays readable, but resuming it fails a DAGSFC_CHECK —
/// its frontier no longer matches the network. An entry dropped only to
/// make room is not invalidated: it is still exact until the next residual
/// change, which is all a holder within one solve needs. The cache is NOT
/// thread-safe; it is owned per-CapacityLedger, and ledgers are not shared
/// across threads.

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"

namespace dagsfc::graph {

/// Observability counters for the solver path queries. The `*_calls`
/// fields count computations started (cache misses included, hits and
/// resumed searches excluded); hits/misses/evictions count cache events
/// only. `nodes_settled` is the Dijkstra work those searches did, summed
/// over first runs and resumes: nodes settled (rows scanned). `bfs_calls`
/// tallies the backtracking engine's ring searches and `steiner_calls` the
/// exact solvers' multicast pricing, so the inter-layer path work is
/// visible alongside the Dijkstra/Yen unicast work.
struct PathQueryCounters {
  std::size_t dijkstra_calls = 0;
  std::size_t yen_calls = 0;
  std::size_t bfs_calls = 0;
  std::size_t steiner_calls = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t evictions = 0;
  std::size_t nodes_settled = 0;

  PathQueryCounters& operator+=(const PathQueryCounters& o) {
    dijkstra_calls += o.dijkstra_calls;
    yen_calls += o.yen_calls;
    bfs_calls += o.bfs_calls;
    steiner_calls += o.steiner_calls;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    evictions += o.evictions;
    nodes_settled += o.nodes_settled;
    return *this;
  }

  /// hits / (hits + misses); 0 when the cache was never consulted.
  [[nodiscard]] double hit_rate() const noexcept {
    const std::size_t n = cache_hits + cache_misses;
    return n ? static_cast<double>(cache_hits) / static_cast<double>(n) : 0.0;
  }
};

/// Tallies of the event-driven invalidation path, for tests and telemetry.
/// `flips` counts (mutation, cached-rate) pairs where the edge's usability
/// actually flipped — the only events that evict anything.
struct InvalidationStats {
  std::size_t link_debits = 0;
  std::size_t link_credits = 0;
  std::size_t flips = 0;
  std::size_t trees_evicted = 0;
  std::size_t yens_evicted = 0;
};

class PathCache {
 public:
  /// \p max_entries bounds trees and k-path lists separately; when an
  /// insert would exceed the bound the store is cleared (entries are all
  /// current under event invalidation, so there is no stale tier to shed
  /// first).
  explicit PathCache(std::size_t max_entries = 1024)
      : max_entries_(max_entries == 0 ? 1 : max_entries) {}

  /// The cached search from \p source, started on a miss with nothing
  /// settled. Callers settle it toward their targets (LazyTree::settle)
  /// under the current usable-edge mask at this rate. \p context must be
  /// the flow rate in the owner's residual units — the invalidation hooks
  /// compare it with residual counts to find usability flips. A miss counts
  /// one dijkstra call.
  [[nodiscard]] std::shared_ptr<LazyTree> search(const Graph& g,
                                                 NodeId source,
                                                 std::uint64_t context,
                                                 PathQueryCounters& c);

  /// search() settled to completion under \p mask (null ⇒ all edges).
  [[nodiscard]] std::shared_ptr<const LazyTree> tree(const Graph& g,
                                                     NodeId source,
                                                     std::uint64_t context,
                                                     const EdgeMask* mask,
                                                     PathQueryCounters& c);

  /// Yen's k cheapest loopless paths source → target under \p mask (null
  /// ⇒ all edges), searching through \p ws on a miss.
  [[nodiscard]] std::shared_ptr<const std::vector<Path>> k_paths(
      const Graph& g, NodeId source, NodeId target, std::size_t k,
      std::uint64_t context, const EdgeMask* mask, SearchWorkspace& ws,
      PathQueryCounters& c);

  /// Residual-change notifications (see the invalidation contract above),
  /// in the owner's residual units. A debit carries the edge's endpoints
  /// \p u and \p v for the footprint test.
  void on_link_debit(EdgeId e, NodeId u, NodeId v, std::int64_t before,
                     std::int64_t after);
  void on_link_credit(EdgeId e, std::int64_t before, std::int64_t after);

  [[nodiscard]] std::size_t num_trees() const noexcept {
    return trees_.size();
  }
  [[nodiscard]] std::size_t num_k_paths() const noexcept {
    return yens_.size();
  }
  [[nodiscard]] const InvalidationStats& invalidation_stats() const noexcept {
    return inval_;
  }

 private:
  struct TreeKey {
    std::uint64_t context;
    NodeId source;
    auto operator<=>(const TreeKey&) const = default;
  };
  struct YenKey {
    std::uint64_t context;
    NodeId source;
    NodeId target;
    std::size_t k;
    auto operator<=>(const YenKey&) const = default;
  };
  /// Whether edge \p e = (u, v) is some node's final or tentative parent
  /// edge in \p t.
  static bool in_footprint(const LazyTree& t, EdgeId e, NodeId u,
                           NodeId v) noexcept {
    return t.parent_edge(u) == e || t.parent_edge(v) == e;
  }

  /// Refcounted index of the distinct contexts present in one store,
  /// sorted by context. Mutation hooks consult it first: with no
  /// cached rate flipping (the overwhelmingly common case — e.g. every
  /// residual a serving worker's compose copies into its scratch view),
  /// the hook is O(distinct rates), touches no entries and allocates
  /// nothing. Only actual flips walk entries, and then only the flipped
  /// context's contiguous range of the (context-first ordered) map.
  using ContextIndex = std::vector<std::pair<std::uint64_t, std::size_t>>;
  static void index_add(ContextIndex& index, std::uint64_t context);
  static void index_remove(ContextIndex& index, std::uint64_t context,
                           std::size_t n);

  /// The distinct cached contexts whose usability a residual change from
  /// \p before to \p after flips, either way, ascending; counts them in
  /// inval_.flips.
  std::vector<std::uint64_t> flipped_contexts(std::int64_t before,
                                              std::int64_t after);

  /// Evicts (and invalidates) every tree / k-path entry cached under
  /// \p context.
  void evict_tree_context(std::uint64_t context);
  void evict_yen_context(std::uint64_t context);

  /// Clears \p store (and its context index) if one more insert would not
  /// fit under max_entries_. Dropped trees are not invalidated.
  template <typename Store>
  void make_room(Store& store, ContextIndex& index, PathQueryCounters& c);

  std::size_t max_entries_;
  std::map<TreeKey, std::shared_ptr<LazyTree>> trees_;
  std::map<YenKey, std::shared_ptr<const std::vector<Path>>> yens_;
  ContextIndex tree_contexts_;
  ContextIndex yen_contexts_;
  InvalidationStats inval_;
};

}  // namespace dagsfc::graph
