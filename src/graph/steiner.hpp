#pragma once
/// \file steiner.hpp
/// Exact minimum Steiner tree (Dreyfus–Wagner DP).
///
/// Why the embedding library needs this: the paper's formula (9) charges each
/// network link at most once per layer for the *inter-layer multicast* from
/// the previous layer's end node to all VNFs of the next layer. The cheapest
/// such multicast is exactly a minimum Steiner tree whose terminals are
/// {start node} ∪ {layer VNF nodes}. LAYERED's parallel-layer gadget (and
/// the EXACT test oracle) use this DP to price placements optimally; the
/// heuristics only approximate it with unions of shortest paths, and the
/// gap is measured in tests and the ablation bench.
///
/// Complexity O(3^k·n + 2^k·n log n·deg) for k terminals — fine for the
/// layer widths the paper uses (φ ≤ 5, so k ≤ 6) on small graphs.

#include <optional>
#include <vector>

#include "graph/dijkstra.hpp"
#include "graph/graph.hpp"

namespace dagsfc::graph {

struct SteinerTree {
  double cost = 0.0;
  std::vector<EdgeId> edges;  // unique edges of the tree
};

/// Minimum-weight tree connecting all \p terminals (duplicates allowed
/// and ignored; at most 14 distinct) through the masked subgraph (null
/// \p mask ⇒ every edge). Returns nullopt when the terminals are not
/// mutually reachable there; a single distinct terminal yields an empty
/// zero-cost tree. \p ws runs the base-case Dijkstras (one dijkstra_into
/// per terminal) and the subset relaxations' heap, and holds the DP tables
/// in its scratch vectors. A mask shorter than g.num_edges() bits throws
/// ContractViolation.
[[nodiscard]] std::optional<SteinerTree> steiner_tree(
    const Graph& g, const std::vector<NodeId>& terminals, const EdgeMask* mask,
    SearchWorkspace& ws);

}  // namespace dagsfc::graph
