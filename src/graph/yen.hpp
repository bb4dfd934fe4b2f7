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

/// Up to \p k cheapest simple paths source→target in ascending cost
/// order; fewer when the masked subgraph (null \p mask ⇒ every edge) does
/// not contain them. Searches through \p ws, whose base/spur mask buffers
/// the spur loop reuses — one word-copy per spur instead of a predicate
/// over fresh std::sets. A mask shorter than g.num_edges() bits throws
/// ContractViolation.
[[nodiscard]] std::vector<Path> k_shortest_paths(const Graph& g, NodeId source,
                                                 NodeId target, std::size_t k,
                                                 const EdgeMask* mask,
                                                 SearchWorkspace& ws);

}  // namespace dagsfc::graph
