#include "net/network.hpp"

#include "net/ledger.hpp"

namespace dagsfc::net {

Network::Network(graph::Graph g, VnfCatalog catalog,
                 double default_link_capacity)
    : g_(std::move(g)),
      catalog_(std::move(catalog)),
      link_capacity_(g_.num_edges(), default_link_capacity),
      node_instances_(g_.num_nodes()),
      type_nodes_(catalog_.num_types()),
      instance_at_(g_.num_nodes() * catalog_.num_types(), kInvalidInstance) {
  DAGSFC_CHECK(CapacityLedger::countable(default_link_capacity));
}

void Network::set_link_capacity(EdgeId e, double capacity) {
  DAGSFC_CHECK(e < link_capacity_.size());
  DAGSFC_CHECK(CapacityLedger::countable(capacity));
  link_capacity_[e] = capacity;
}

InstanceId Network::deploy(NodeId node, VnfTypeId type, double price,
                           double capacity) {
  DAGSFC_CHECK(g_.has_node(node));
  DAGSFC_CHECK(catalog_.valid(type));
  DAGSFC_CHECK_MSG(!catalog_.is_dummy(type), "the dummy VNF is not deployable");
  DAGSFC_CHECK(price >= 0.0 && CapacityLedger::countable(capacity));
  DAGSFC_CHECK_MSG(!find_instance(node, type).has_value(),
                   "node already hosts an instance of this type");
  const auto id = static_cast<InstanceId>(instances_.size());
  instances_.push_back(VnfInstance{node, type, price, capacity});
  node_instances_[node].push_back(id);
  type_nodes_[type].push_back(node);
  instance_at_[slot(node, type)] = id;
  return id;
}

std::optional<InstanceId> Network::find_instance(NodeId node,
                                                 VnfTypeId type) const {
  DAGSFC_CHECK(g_.has_node(node));
  DAGSFC_CHECK(catalog_.valid(type));
  const InstanceId id = instance_at_[slot(node, type)];
  if (id == kInvalidInstance) return std::nullopt;
  return id;
}

std::span<const InstanceId> Network::instances_on(NodeId node) const {
  DAGSFC_CHECK(g_.has_node(node));
  return node_instances_[node];
}

const std::vector<NodeId>& Network::nodes_with(VnfTypeId type) const {
  DAGSFC_CHECK(catalog_.valid(type));
  return type_nodes_[type];
}

double Network::mean_link_price() const {
  if (g_.num_edges() == 0) return 0.0;
  double total = 0.0;
  for (EdgeId e = 0; e < g_.num_edges(); ++e) total += g_.edge(e).weight;
  return total / static_cast<double>(g_.num_edges());
}

double Network::mean_vnf_price() const {
  if (instances_.empty()) return 0.0;
  double total = 0.0;
  for (const auto& inst : instances_) total += inst.price;
  return total / static_cast<double>(instances_.size());
}

}  // namespace dagsfc::net
