#pragma once
/// \file reference.hpp
/// The seed search implementations, preserved verbatim.
///
/// When the flat kernels (CSR + SearchWorkspace + EdgeMask) replaced these,
/// the originals moved here instead of being deleted. They live in their own
/// library, dagsfc::reference, which no production library links. It serves
/// two purposes:
///   1. Oracle for the differential tests (tests/test_search_flat.cpp,
///      tests/test_path_cache.cpp): the flat kernels and every PathOracle
///      query must be bit-identical to these, and the embedder golden rows
///      (tests/corpus/embedder_golden.txt) were recorded through them.
///   2. The honest "before" arm of bench/micro_graph, so the recorded
///      speedups compare against the real seed code, not a strawman.
///
/// The seed kernels take the seed's edge predicate (EdgeFilter, a
/// std::function) and return the seed's owning tree (ShortestPathTree).
/// Both types live here, with the kernels: production code restricts its
/// searches with an EdgeMask and reads results from a SearchWorkspace or a
/// LazyTree.
///
/// Do not "optimize" anything in this library — its value is being a frozen
/// baseline.

#include <functional>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "graph/steiner.hpp"

namespace dagsfc::graph::reference {

/// Predicate limiting which edges a search may traverse. Absent ⇒ all edges
/// usable.
using EdgeFilter = std::function<bool(EdgeId)>;

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
};

/// Seed Dijkstra: fresh O(V) arrays + std::priority_queue per call.
[[nodiscard]] ShortestPathTree dijkstra(const Graph& g, NodeId source,
                                        const EdgeFilter& filter = {});

/// Seed point-to-point query with early exit at \p target.
[[nodiscard]] std::optional<Path> min_cost_path(const Graph& g, NodeId source,
                                                NodeId target,
                                                const EdgeFilter& filter = {});

/// Seed Yen: fresh closure + std::sets per spur candidate.
[[nodiscard]] std::vector<Path> k_shortest_paths(const Graph& g, NodeId source,
                                                 NodeId target, std::size_t k,
                                                 const EdgeFilter& filter = {});

/// Seed Dreyfus–Wagner DP over the adjacency lists.
[[nodiscard]] std::optional<SteinerTree> steiner_tree(
    const Graph& g, const std::vector<NodeId>& terminals,
    const EdgeFilter& filter = {});

}  // namespace dagsfc::graph::reference
