#pragma once
/// \file network.hpp
/// The priced cloud network (paper §3.2, "Model of Target Network").
///
/// A Network wraps a graph::Graph whose edge weights are the per-unit-rate
/// link prices c_e, adds per-link bandwidth capacities r_e, and records which
/// VNF instances are deployed on each node: instance f_v(i) with rental price
/// c_{v,f(i)} and processing capacity r_{v,f(i)}. At most one instance of a
/// type exists per node, matching the paper's f_v(i) notation.
///
/// Instances get dense ids so residual-capacity tracking (ledger.hpp) is two
/// flat arrays. Per-type node sets V_i are maintained incrementally because
/// every embedding algorithm iterates them, and a dense node × type table
/// answers find_instance() with one load: the solvers ask it per candidate
/// host and per cost term.

#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "net/vnf.hpp"

namespace dagsfc::net {

using graph::EdgeId;
using graph::NodeId;

using InstanceId = std::uint32_t;
inline constexpr InstanceId kInvalidInstance = static_cast<InstanceId>(-1);

/// A deployed VNF instance f_v(i).
struct VnfInstance {
  NodeId node = graph::kInvalidNode;
  VnfTypeId type = 0;
  double price = 0.0;     ///< c_{v,f(i)} per unit of traffic rate
  double capacity = 0.0;  ///< r_{v,f(i)} total processable rate
};

class Network {
 public:
  /// Takes ownership of the topology. Edge weights of \p g are interpreted
  /// as link prices. Every link starts with \p default_link_capacity.
  Network(graph::Graph g, VnfCatalog catalog,
          double default_link_capacity = 1e9);

  [[nodiscard]] const graph::Graph& topology() const noexcept { return g_; }
  [[nodiscard]] const VnfCatalog& catalog() const noexcept { return catalog_; }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return g_.num_nodes();
  }
  [[nodiscard]] std::size_t num_links() const noexcept {
    return g_.num_edges();
  }
  [[nodiscard]] std::size_t num_instances() const noexcept {
    return instances_.size();
  }

  // --- links -------------------------------------------------------------

  [[nodiscard]] double link_price(EdgeId e) const {
    return g_.edge(e).weight;
  }
  void set_link_price(EdgeId e, double price) { g_.set_weight(e, price); }
  [[nodiscard]] double link_capacity(EdgeId e) const {
    DAGSFC_CHECK(e < link_capacity_.size());
    return link_capacity_[e];
  }
  void set_link_capacity(EdgeId e, double capacity);

  // --- VNF deployment ----------------------------------------------------

  /// Deploys an instance of \p type on \p node. Requires the type to be
  /// valid and not the dummy (the dummy VNF is never deployed — it only
  /// marks the stretched SFC's endpoints), and no existing instance of the
  /// same type on the node. Returns the new instance id.
  InstanceId deploy(NodeId node, VnfTypeId type, double price,
                    double capacity);

  [[nodiscard]] const VnfInstance& instance(InstanceId id) const {
    DAGSFC_CHECK(id < instances_.size());
    return instances_[id];
  }

  /// Reprices a deployed instance (scenario knobs; metamorphic tests scale
  /// every price by a constant).
  void set_instance_price(InstanceId id, double price) {
    DAGSFC_CHECK(id < instances_.size());
    instances_[id].price = price;
  }

  /// Instance of \p type on \p node, if deployed. O(1).
  [[nodiscard]] std::optional<InstanceId> find_instance(NodeId node,
                                                        VnfTypeId type) const;

  [[nodiscard]] bool has_vnf(NodeId node, VnfTypeId type) const {
    return find_instance(node, type).has_value();
  }

  /// All instance ids deployed on \p node (the node's F_v).
  [[nodiscard]] std::span<const InstanceId> instances_on(NodeId node) const;

  /// The node set V_i hosting \p type, in deployment order.
  [[nodiscard]] const std::vector<NodeId>& nodes_with(VnfTypeId type) const;

  /// Mean link price / mean instance price — diagnostics for the pricing
  /// knobs ("average price ratio" in §5.1). Zero when undefined.
  [[nodiscard]] double mean_link_price() const;
  [[nodiscard]] double mean_vnf_price() const;

 private:
  [[nodiscard]] std::size_t slot(NodeId node, VnfTypeId type) const noexcept {
    return static_cast<std::size_t>(node) * catalog_.num_types() + type;
  }

  graph::Graph g_;
  VnfCatalog catalog_;
  std::vector<double> link_capacity_;
  std::vector<VnfInstance> instances_;
  std::vector<std::vector<InstanceId>> node_instances_;  // by node
  std::vector<std::vector<NodeId>> type_nodes_;          // V_i by type
  // node · num_types + type → instance (kInvalidInstance where none).
  std::vector<InstanceId> instance_at_;
};

}  // namespace dagsfc::net
