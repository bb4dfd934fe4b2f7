#pragma once
/// \file graph.hpp
/// Weighted undirected simple graph — the structural substrate for the
/// target network (paper §3.2: G = (V, E), bidirectional links).
///
/// Nodes and edges are dense integer ids, so algorithm working sets are flat
/// vectors indexed by id (no hashing on hot paths). Edge weights here carry
/// the per-unit-rate link price c_e; capacities and VNF inventory live one
/// layer up in net::Network.
///
/// Besides the per-node incidence lists the graph maintains a packed CSR
/// (compressed sparse row) view — one offset array plus one contiguous
/// Incidence array — built lazily on first use and invalidated by structural
/// mutation. The search kernels (dijkstra/yen/steiner/bfs) iterate the CSR
/// rows so relaxation loops stream one flat array instead of chasing
/// vector<vector> pointers. CSR row order equals incidence-list insertion
/// order, so switching views never changes any deterministic tie-break.
///
/// A search that may use only some links (those with residual bandwidth,
/// those inside a search tree) takes an EdgeMask (edge_mask.hpp): the one
/// edge predicate the kernels accept.

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace dagsfc::graph {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
inline constexpr EdgeId kInvalidEdge = static_cast<EdgeId>(-1);

inline constexpr double kInfCost = std::numeric_limits<double>::infinity();

/// An undirected edge endpoint pair plus its weight (link price).
struct Edge {
  NodeId u = kInvalidNode;
  NodeId v = kInvalidNode;
  double weight = 0.0;

  /// The endpoint opposite \p from. Requires from ∈ {u, v}.
  [[nodiscard]] NodeId other(NodeId from) const {
    DAGSFC_CHECK(from == u || from == v);
    return from == u ? v : u;
  }
};

/// Incidence record stored per node: the edge and the neighbor it leads to.
struct Incidence {
  EdgeId edge = kInvalidEdge;
  NodeId neighbor = kInvalidNode;
};

/// A walk through the graph: node sequence plus the edges between
/// consecutive nodes (edges.size() == nodes.size() - 1). An empty path has
/// no nodes; a zero-length path has one node and no edges.
struct Path {
  std::vector<NodeId> nodes;
  std::vector<EdgeId> edges;
  double cost = 0.0;

  [[nodiscard]] bool empty() const noexcept { return nodes.empty(); }
  [[nodiscard]] std::size_t length() const noexcept { return edges.size(); }
  [[nodiscard]] NodeId source() const {
    DAGSFC_CHECK(!nodes.empty());
    return nodes.front();
  }
  [[nodiscard]] NodeId target() const {
    DAGSFC_CHECK(!nodes.empty());
    return nodes.back();
  }
};

/// Read-only packed adjacency: offsets has num_nodes()+1 entries and
/// incidence holds every (edge, neighbor) record, rows back to back in node
/// order. weights runs parallel to incidence (weights[s] is the weight of
/// incidence[s].edge) so relaxation loops stream two flat arrays instead of
/// chasing a random edge-array load per arc; set_weight writes the cached
/// copies through. Spans point into the owning Graph — they are invalidated
/// by the next structural mutation, so do not hold a view across
/// add_node/add_edge.
struct CsrView {
  std::span<const std::uint32_t> offsets;
  std::span<const Incidence> incidence;
  std::span<const double> weights;

  [[nodiscard]] std::span<const Incidence> row(NodeId v) const {
    return incidence.subspan(offsets[v], offsets[v + 1] - offsets[v]);
  }
};

class Graph {
 public:
  Graph() = default;
  /// Creates \p n isolated nodes.
  explicit Graph(std::size_t n) : adjacency_(n) {}

  // The CSR cache (atomic flag + build mutex) is not copyable; copies and
  // moved-to graphs rebuild their view lazily on first use.
  Graph(const Graph& other)
      : edges_(other.edges_), adjacency_(other.adjacency_) {}
  Graph& operator=(const Graph& other) {
    if (this != &other) {
      edges_ = other.edges_;
      adjacency_ = other.adjacency_;
      csr_fresh_.store(false, std::memory_order_release);
    }
    return *this;
  }
  Graph(Graph&& other) noexcept
      : edges_(std::move(other.edges_)),
        adjacency_(std::move(other.adjacency_)),
        csr_offsets_(std::move(other.csr_offsets_)),
        csr_incidence_(std::move(other.csr_incidence_)),
        csr_weights_(std::move(other.csr_weights_)),
        csr_edge_slots_(std::move(other.csr_edge_slots_)) {
    csr_fresh_.store(other.csr_fresh_.load(std::memory_order_acquire),
                     std::memory_order_release);
    other.csr_fresh_.store(false, std::memory_order_release);
  }
  Graph& operator=(Graph&& other) noexcept {
    if (this != &other) {
      edges_ = std::move(other.edges_);
      adjacency_ = std::move(other.adjacency_);
      csr_offsets_ = std::move(other.csr_offsets_);
      csr_incidence_ = std::move(other.csr_incidence_);
      csr_weights_ = std::move(other.csr_weights_);
      csr_edge_slots_ = std::move(other.csr_edge_slots_);
      csr_fresh_.store(other.csr_fresh_.load(std::memory_order_acquire),
                       std::memory_order_release);
      other.csr_fresh_.store(false, std::memory_order_release);
    }
    return *this;
  }

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return adjacency_.size();
  }
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return edges_.size();
  }

  /// Appends an isolated node and returns its id.
  NodeId add_node();

  /// Adds an undirected edge u—v with weight \p weight (≥ 0). Rejects self
  /// loops and parallel edges (the paper's networks are simple graphs).
  EdgeId add_edge(NodeId u, NodeId v, double weight);

  /// Updates the weight of an existing edge. The CSR view caches weights
  /// alongside the incidence records, so this writes the (at most two)
  /// cached copies through instead of invalidating the view — repricing
  /// edges between searches never triggers a rebuild.
  void set_weight(EdgeId e, double weight);

  [[nodiscard]] const Edge& edge(EdgeId e) const {
    DAGSFC_CHECK(e < edges_.size());
    return edges_[e];
  }

  /// The whole edge array, indexed by EdgeId — the flat companion to csr()
  /// for relaxation loops and edge-mask construction.
  [[nodiscard]] std::span<const Edge> edges() const noexcept {
    return edges_;
  }

  /// Incidence list of \p v: every (edge, neighbor) pair.
  [[nodiscard]] std::span<const Incidence> neighbors(NodeId v) const {
    DAGSFC_CHECK(v < adjacency_.size());
    return adjacency_[v];
  }

  [[nodiscard]] std::size_t degree(NodeId v) const {
    return neighbors(v).size();
  }

  /// Packed adjacency for the search kernels, built on first call and
  /// invalidated by add_node/add_edge. The lazy build is guarded so that
  /// any number of threads may call csr() on a *quiescent* graph (the usual
  /// read-mostly pattern: build topology, then search from many workers);
  /// mutating concurrently with readers is undefined, exactly as before.
  [[nodiscard]] CsrView csr() const;

  /// Id of the edge u—v if present. Scans the incidence list of the
  /// lower-degree endpoint, so a leaf—hub probe costs O(deg(leaf)), not
  /// O(deg(hub)).
  [[nodiscard]] std::optional<EdgeId> find_edge(NodeId u, NodeId v) const;

  /// The endpoint whose incidence list find_edge(u, v) scans — exposed so
  /// the degree-asymmetry contract is directly testable.
  [[nodiscard]] NodeId find_edge_probe_endpoint(NodeId u, NodeId v) const {
    DAGSFC_CHECK(u < adjacency_.size() && v < adjacency_.size());
    return adjacency_[u].size() <= adjacency_[v].size() ? u : v;
  }

  [[nodiscard]] bool has_node(NodeId v) const noexcept {
    return v < adjacency_.size();
  }

  /// 2·|E| / |V| — the "network connectivity" knob of the paper's §5.1.
  [[nodiscard]] double average_degree() const noexcept;

  /// Total weight of a path and structural validity against this graph.
  [[nodiscard]] double path_cost(const Path& p) const;
  [[nodiscard]] bool path_valid(const Path& p) const;

 private:
  void build_csr() const;

  std::vector<Edge> edges_;
  std::vector<std::vector<Incidence>> adjacency_;

  // Lazily derived, logically-const packed view (double-checked build).
  // csr_weights_ mirrors edges_[].weight per CSR slot; csr_edge_slots_ maps
  // each edge to its two slots so set_weight can write the mirror through.
  mutable std::vector<std::uint32_t> csr_offsets_;
  mutable std::vector<Incidence> csr_incidence_;
  mutable std::vector<double> csr_weights_;
  mutable std::vector<std::array<std::uint32_t, 2>> csr_edge_slots_;
  mutable std::atomic<bool> csr_fresh_{false};
  mutable std::mutex csr_mu_;
};

/// True iff every node is reachable from node 0 (or the graph is empty).
[[nodiscard]] bool is_connected(const Graph& g);

/// Number of connected components.
[[nodiscard]] std::size_t component_count(const Graph& g);

}  // namespace dagsfc::graph
