#pragma once
/// \file path_oracle.hpp
/// The one gateway through which embedders ask shortest-path questions.
///
/// A PathOracle binds the topology, the residual ledger and the flow rate,
/// restricts every query to the links that can carry the rate, and answers
/// each query through the ledger's graph::PathCache, tallying
/// graph::PathQueryCounters, which the embedders surface on SolveResult.
///
/// The oracle also owns the per-solve machinery the kernels want: a
/// SearchWorkspace (caller-supplied so a worker thread can reuse one across
/// solves, or embedded as a fallback) and an epoch-keyed usable-edge mask —
/// link_can_carry is re-evaluated per edge only when the ledger epoch
/// moves, not per probe.
///
/// Min-cost questions go through resumable searches (graph::LazyTree):
/// search() hands out the ledger's cached search from a source, shared
/// across queries and solves, and settle() runs it only until the
/// asked-for target's distance is final. min_cost_path() settles it up to
/// its target, so several targets from one source share one search, one
/// query each; tree() settles everything (LAYERED and the EXACT test
/// oracle read whole trees). Yen results are cached per (rate, endpoints,
/// k); the ledger supplies the rate's cache context (its unit count).
///
/// Every answer is bit-identical to the seed kernels run from scratch over
/// the links that can carry the rate: a search's settled nodes are a prefix
/// of the full Dijkstra pop sequence with the same dist/parent bits, so the
/// parent chain of a settled target equals the early-exit run's and the
/// full tree's (targets are finalized when popped; later relaxations cannot
/// improve them), and cached Yen results are the same deterministic
/// k_shortest_paths() output. tests/test_path_cache.cpp holds every query
/// kind to that across debits and credits of one long-lived ledger.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/path_cache.hpp"
#include "graph/steiner.hpp"
#include "graph/workspace.hpp"
#include "graph/yen.hpp"
#include "net/ledger.hpp"

namespace dagsfc::core {

using graph::NodeId;

class PathOracle {
 public:
  /// \p ws lets the caller lend a long-lived workspace (per worker thread);
  /// when null the oracle uses an embedded one, so warm reuse then spans one
  /// solve instead of many.
  explicit PathOracle(const graph::Graph& g, const net::CapacityLedger& ledger,
                      double rate, graph::SearchWorkspace* ws = nullptr)
      : g_(&g),
        ledger_(&ledger),
        rate_(rate),
        context_(net::CapacityLedger::rate_context(rate)),
        ws_(ws != nullptr ? ws : &own_ws_) {}

  PathOracle(const PathOracle&) = delete;
  PathOracle& operator=(const PathOracle&) = delete;

  /// The workspace queries run through — for callers (ring searches) that
  /// share the oracle's buffers.
  [[nodiscard]] graph::SearchWorkspace& workspace() noexcept { return *ws_; }

  /// The min-cost search from \p source over usable links: the ledger's
  /// cached entry (a hit, or a miss that starts it). Settle it toward each
  /// target with settle().
  [[nodiscard]] std::shared_ptr<graph::LazyTree> search(NodeId source);

  /// Settles \p t until \p target's distance is final; true iff the
  /// target is reachable. Counts the settled nodes.
  bool settle(graph::LazyTree& t, NodeId target);

  /// Complete min-cost tree from \p source over usable links.
  [[nodiscard]] std::shared_ptr<const graph::LazyTree> tree(NodeId source);

  /// Min-cost path a → b over usable links; nullopt when unreachable.
  [[nodiscard]] std::optional<graph::Path> min_cost_path(NodeId a, NodeId b);

  /// Yen's k cheapest paths a → b over usable links.
  [[nodiscard]] std::vector<graph::Path> k_shortest(NodeId a, NodeId b,
                                                    std::size_t k);

  /// Yen under a caller-supplied mask (e.g. restricted to a search-tree
  /// node set), which must cover the graph's edges. Never cached — the
  /// mask's contents are not keyable — but still counted.
  [[nodiscard]] std::vector<graph::Path> k_shortest_filtered(
      NodeId a, NodeId b, std::size_t k, const graph::EdgeMask& mask);

  /// Minimum Steiner tree over usable links (the exact solvers' multicast
  /// pricing). Counted in PathQueryCounters::steiner_calls.
  [[nodiscard]] std::optional<graph::SteinerTree> steiner(
      const std::vector<NodeId>& terminals);

  /// Tallies one BFS ring search run by the caller through workspace() —
  /// the backtracking engine's forward/backward expansions, which don't
  /// route through the oracle's query methods but should still show up in
  /// the solver's path-work accounting.
  void note_bfs() noexcept { ++counters_.bfs_calls; }

  [[nodiscard]] const graph::PathQueryCounters& counters() const noexcept {
    return counters_;
  }

  /// The usable-links mask, rebuilt from link_can_carry only when the
  /// ledger epoch has moved since the last query. Valid until the next
  /// call after the epoch moves.
  [[nodiscard]] const graph::EdgeMask* usable_mask();

 private:
  /// usable_mask(), except it returns nullptr when no edge is currently
  /// masked out — the kernels then skip the per-arc bit test. Same
  /// admissible edge set either way.
  [[nodiscard]] const graph::EdgeMask* effective_mask();

  const graph::Graph* g_;
  const net::CapacityLedger* ledger_;
  double rate_;
  /// The cache key part the usable-links mask depends on besides the
  /// ledger epoch: flows whose rates differ in units never share entries.
  std::uint64_t context_;
  graph::PathQueryCounters counters_;

  graph::SearchWorkspace own_ws_;
  graph::SearchWorkspace* ws_;

  graph::EdgeMaskBuffer usable_mask_;
  graph::EdgeMask usable_view_;
  std::uint64_t mask_epoch_ = 0;
  bool mask_ready_ = false;
  bool mask_full_ = false;  // no cleared bits in the current usable mask
};

}  // namespace dagsfc::core
