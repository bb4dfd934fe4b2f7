#include "net/ledger.hpp"

namespace dagsfc::net {

CapacityLedger::CapacityLedger(const Network& network) : net_(&network) {
  link_residual_.reserve(network.num_links());
  for (EdgeId e = 0; e < network.num_links(); ++e) {
    link_residual_.push_back(network.link_capacity(e));
  }
  instance_residual_.reserve(network.num_instances());
  for (InstanceId id = 0; id < network.num_instances(); ++id) {
    instance_residual_.push_back(network.instance(id).capacity);
  }
  link_stamp_.assign(network.num_links(), 0);
  instance_stamp_.assign(network.num_instances(), 0);
}

CapacityLedger::CapacityLedger(const CapacityLedger& other)
    : net_(other.net_),
      link_residual_(other.link_residual_),
      instance_residual_(other.instance_residual_),
      link_stamp_(other.link_stamp_),
      instance_stamp_(other.instance_stamp_),
      epoch_(other.epoch_) {}

CapacityLedger& CapacityLedger::operator=(const CapacityLedger& other) {
  if (this != &other) {
    net_ = other.net_;
    link_residual_ = other.link_residual_;
    instance_residual_ = other.instance_residual_;
    link_stamp_ = other.link_stamp_;
    instance_stamp_ = other.instance_stamp_;
    epoch_ = other.epoch_;
    cache_.reset();  // caches are per-instance, never shared
  }
  return *this;
}

graph::PathCache& CapacityLedger::path_cache() const {
  if (!cache_) cache_ = std::make_unique<graph::PathCache>();
  return *cache_;
}

bool CapacityLedger::node_offers(NodeId node, VnfTypeId type,
                                 double rate) const {
  const auto id = net_->find_instance(node, type);
  return id.has_value() && instance_can_process(*id, rate);
}

void CapacityLedger::note_link_changed(EdgeId e, double before, double after) {
  link_stamp_[e] = epoch_;
  if (cache_) {
    if (after < before) {
      const graph::Edge& ed = net_->topology().edge(e);
      cache_->on_link_debit(e, ed.u, ed.v, before, after, kEps);
    } else if (after > before) {
      cache_->on_link_credit(e, before, after, kEps);
    }
  }
}

void CapacityLedger::consume_link(EdgeId e, double rate) {
  DAGSFC_CHECK(rate >= 0.0);
  DAGSFC_CHECK_MSG(link_can_carry(e, rate), "link over-subscribed");
  const double before = link_residual_[e];
  link_residual_[e] -= rate;
  ++epoch_;
  note_link_changed(e, before, link_residual_[e]);
}

void CapacityLedger::consume_instance(InstanceId id, double rate) {
  DAGSFC_CHECK(rate >= 0.0);
  DAGSFC_CHECK_MSG(instance_can_process(id, rate), "VNF over-subscribed");
  instance_residual_[id] -= rate;
  ++epoch_;
  instance_stamp_[id] = epoch_;
}

void CapacityLedger::release_link(EdgeId e, double rate) {
  DAGSFC_CHECK(rate >= 0.0);
  DAGSFC_CHECK(e < link_residual_.size());
  const double before = link_residual_[e];
  link_residual_[e] += rate;
  ++epoch_;
  DAGSFC_CHECK_MSG(
      link_residual_[e] <= net_->link_capacity(e) + kEps,
      "release exceeds nominal link capacity");
  note_link_changed(e, before, link_residual_[e]);
}

void CapacityLedger::release_instance(InstanceId id, double rate) {
  DAGSFC_CHECK(rate >= 0.0);
  DAGSFC_CHECK(id < instance_residual_.size());
  instance_residual_[id] += rate;
  ++epoch_;
  DAGSFC_CHECK_MSG(
      instance_residual_[id] <= net_->instance(id).capacity + kEps,
      "release exceeds nominal instance capacity");
  instance_stamp_[id] = epoch_;
}

void CapacityLedger::set_link_residual(EdgeId e, double residual) {
  DAGSFC_CHECK(e < link_residual_.size());
  DAGSFC_CHECK_MSG(residual >= -kEps, "residual below zero");
  DAGSFC_CHECK_MSG(residual <= net_->link_capacity(e) + kEps,
                   "residual exceeds nominal link capacity");
  const double before = link_residual_[e];
  if (before == residual) return;  // no mutation, no epoch bump
  link_residual_[e] = residual;
  ++epoch_;
  note_link_changed(e, before, residual);
}

void CapacityLedger::set_instance_residual(InstanceId id, double residual) {
  DAGSFC_CHECK(id < instance_residual_.size());
  DAGSFC_CHECK_MSG(residual >= -kEps, "residual below zero");
  DAGSFC_CHECK_MSG(residual <= net_->instance(id).capacity + kEps,
                   "residual exceeds nominal instance capacity");
  if (instance_residual_[id] == residual) return;
  instance_residual_[id] = residual;
  ++epoch_;
  instance_stamp_[id] = epoch_;
}

bool CapacityLedger::can_apply(std::span<const std::uint32_t> link_uses,
                               std::span<const std::uint32_t> instance_uses,
                               double rate) const {
  DAGSFC_CHECK(link_uses.size() <= link_residual_.size());
  DAGSFC_CHECK(instance_uses.size() <= instance_residual_.size());
  for (InstanceId id = 0; id < instance_uses.size(); ++id) {
    if (instance_uses[id] == 0) continue;
    if (!instance_can_process(id,
                              static_cast<double>(instance_uses[id]) * rate)) {
      return false;
    }
  }
  for (EdgeId e = 0; e < link_uses.size(); ++e) {
    if (link_uses[e] == 0) continue;
    if (!link_can_carry(e, static_cast<double>(link_uses[e]) * rate)) {
      return false;
    }
  }
  return true;
}

void CapacityLedger::apply(std::span<const std::uint32_t> link_uses,
                           std::span<const std::uint32_t> instance_uses,
                           double rate) {
  for (InstanceId id = 0; id < instance_uses.size(); ++id) {
    if (instance_uses[id] > 0) {
      consume_instance(id, static_cast<double>(instance_uses[id]) * rate);
    }
  }
  for (EdgeId e = 0; e < link_uses.size(); ++e) {
    if (link_uses[e] > 0) {
      consume_link(e, static_cast<double>(link_uses[e]) * rate);
    }
  }
}

void CapacityLedger::unapply(std::span<const std::uint32_t> link_uses,
                             std::span<const std::uint32_t> instance_uses,
                             double rate) {
  for (InstanceId id = 0; id < instance_uses.size(); ++id) {
    if (instance_uses[id] > 0) {
      release_instance(id, static_cast<double>(instance_uses[id]) * rate);
    }
  }
  for (EdgeId e = 0; e < link_uses.size(); ++e) {
    if (link_uses[e] > 0) {
      release_link(e, static_cast<double>(link_uses[e]) * rate);
    }
  }
}

bool CapacityLedger::footprint_unchanged_since(
    std::span<const std::uint32_t> link_uses,
    std::span<const std::uint32_t> instance_uses,
    std::uint64_t since_epoch) const {
  DAGSFC_CHECK(link_uses.size() <= link_stamp_.size());
  DAGSFC_CHECK(instance_uses.size() <= instance_stamp_.size());
  for (InstanceId id = 0; id < instance_uses.size(); ++id) {
    if (instance_uses[id] != 0 && instance_stamp_[id] > since_epoch) {
      return false;
    }
  }
  for (EdgeId e = 0; e < link_uses.size(); ++e) {
    if (link_uses[e] != 0 && link_stamp_[e] > since_epoch) return false;
  }
  return true;
}

double CapacityLedger::total_link_consumed() const {
  double total = 0.0;
  for (EdgeId e = 0; e < link_residual_.size(); ++e) {
    total += net_->link_capacity(e) - link_residual_[e];
  }
  return total;
}

double CapacityLedger::total_instance_consumed() const {
  double total = 0.0;
  for (InstanceId id = 0; id < instance_residual_.size(); ++id) {
    total += net_->instance(id).capacity - instance_residual_[id];
  }
  return total;
}

}  // namespace dagsfc::net
