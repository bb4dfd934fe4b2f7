#pragma once
/// \file yen.hpp
/// Yen's algorithm for the k cheapest loopless paths. The paper's model
/// enumerates real-paths p^a_{b,ρ} within a real-path set P^a_b; BBE's
/// candidate generation uses alternative real-paths between fixed endpoints,
/// which this provides deterministically (ties broken by node sequence).

#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"

namespace dagsfc::graph {

/// Flat tier: up to \p k cheapest simple paths source→target in ascending
/// cost order, searching through \p ws (whose base/spur mask buffers the
/// spur loop reuses — one word-copy per spur instead of a closure over fresh
/// std::sets). A null \p mask admits every edge. Results are bit-identical
/// to the legacy overload below.
[[nodiscard]] std::vector<Path> k_shortest_paths(const Graph& g, NodeId source,
                                                 NodeId target, std::size_t k,
                                                 const EdgeMask* mask,
                                                 SearchWorkspace& ws);

/// Legacy tier: up to \p k cheapest simple paths source→target in ascending
/// cost order. Honors \p filter the same way dijkstra() does. Returns fewer
/// than k paths when the graph does not contain them.
[[nodiscard]] std::vector<Path> k_shortest_paths(const Graph& g, NodeId source,
                                                 NodeId target, std::size_t k,
                                                 const EdgeFilter& filter = {});

}  // namespace dagsfc::graph
