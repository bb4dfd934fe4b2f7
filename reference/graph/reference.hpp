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
/// Do not "optimize" anything in this library — its value is being a frozen
/// baseline.

#include <optional>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"
#include "graph/steiner.hpp"

namespace dagsfc::graph::reference {

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
