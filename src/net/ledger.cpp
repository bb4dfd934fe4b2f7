#include "net/ledger.hpp"

namespace dagsfc::net {

CapacityLedger::CapacityLedger(const Network& network) : net_(&network) {
  const std::size_t links = network.num_links();
  const std::size_t instances = network.num_instances();
  units_[kLink].resize(links);
  for (EdgeId e = 0; e < links; ++e) {
    units_[kLink][e] = units(network.link_capacity(e));
  }
  units_[kInstance].resize(instances);
  for (InstanceId id = 0; id < instances; ++id) {
    units_[kInstance][id] = units(network.instance(id).capacity);
  }
  stamps_[kLink].assign(links, 0);
  stamps_[kInstance].assign(instances, 0);
}

graph::PathCache& CapacityLedger::path_cache() const {
  if (!cache_.ptr) cache_.ptr = std::make_unique<graph::PathCache>();
  return *cache_.ptr;
}

double CapacityLedger::capacity(Kind k, std::size_t i) const {
  return k == kLink ? net_->link_capacity(static_cast<EdgeId>(i))
                    : net_->instance(static_cast<InstanceId>(i)).capacity;
}

double CapacityLedger::residual(Kind k, std::size_t i) const {
  const Units left = count(k, i);
  const double nominal = capacity(k, i);
  return nominal - static_cast<double>(units(nominal) - left) / kUnitsPerRate;
}

double CapacityLedger::total_consumed(Kind k) const {
  double total = 0.0;
  for (std::size_t i = 0; i < units_[k].size(); ++i) {
    total += static_cast<double>(units(capacity(k, i)) - units_[k][i]) /
             kUnitsPerRate;
  }
  return total;
}

bool CapacityLedger::at_nominal() const {
  for (const Kind k : {kLink, kInstance}) {
    for (std::size_t i = 0; i < units_[k].size(); ++i) {
      if (units_[k][i] != units(capacity(k, i))) return false;
    }
  }
  return true;
}

bool CapacityLedger::node_offers(NodeId node, VnfTypeId type,
                                 double rate) const {
  const auto id = net_->find_instance(node, type);
  return id.has_value() && instance_can_process(*id, rate);
}

namespace {

/// Whether \p uses × \p need fits in \p room (≥ 0), without forming a
/// product that could overflow.
bool fits(std::uint32_t uses, std::int64_t need, std::int64_t room) {
  if (uses == 1) return need <= room;
  return need == 0 || static_cast<std::int64_t>(uses) <= room / need;
}

}  // namespace

void CapacityLedger::change(Kind k, std::size_t i, std::uint32_t uses,
                            Units need, bool credit) {
  const Units left = count(k, i);
  if (credit) {
    DAGSFC_CHECK_MSG(fits(uses, need, units(capacity(k, i)) - left),
                     "release exceeds nominal capacity");
    store(k, i, left + uses * need);
  } else {
    DAGSFC_CHECK_MSG(fits(uses, need, left),
                     k == kLink ? "link over-subscribed" : "VNF over-subscribed");
    store(k, i, left - uses * need);
  }
}

void CapacityLedger::change_all(std::span<const std::uint32_t> link_uses,
                                std::span<const std::uint32_t> instance_uses,
                                double rate, bool credit) {
  const Units need = units(rate);
  for (InstanceId id = 0; id < instance_uses.size(); ++id) {
    if (instance_uses[id] > 0) {
      change(kInstance, id, instance_uses[id], need, credit);
    }
  }
  for (EdgeId e = 0; e < link_uses.size(); ++e) {
    if (link_uses[e] > 0) change(kLink, e, link_uses[e], need, credit);
  }
}

void CapacityLedger::assign(Kind k, std::size_t i, Units residual) {
  const Units left = count(k, i);
  DAGSFC_CHECK_MSG(residual <= units(capacity(k, i)),
                   "residual exceeds nominal capacity");
  if (left != residual) store(k, i, residual);
}

void CapacityLedger::copy(Kind k, std::size_t i, const CapacityLedger& from) {
  DAGSFC_CHECK_MSG(from.net_ == net_, "ledgers over different networks");
  assign(k, i, from.count(k, i));
}

void CapacityLedger::store(Kind k, std::size_t i, Units residual) {
  const Units before = units_[k][i];
  units_[k][i] = residual;
  stamps_[k][i] = ++epoch_;
  graph::PathCache* cache = cache_.ptr.get();
  if (k != kLink || cache == nullptr) return;
  const auto e = static_cast<EdgeId>(i);
  if (residual < before) {
    const graph::Edge& ed = net_->topology().edge(e);
    cache->on_link_debit(e, ed.u, ed.v, before, residual);
  } else if (residual > before) {
    cache->on_link_credit(e, before, residual);
  }
}

bool CapacityLedger::can_apply(std::span<const std::uint32_t> link_uses,
                               std::span<const std::uint32_t> instance_uses,
                               double rate) const {
  DAGSFC_CHECK(link_uses.size() <= units_[kLink].size());
  DAGSFC_CHECK(instance_uses.size() <= units_[kInstance].size());
  const Units need = units(rate);
  for (InstanceId id = 0; id < instance_uses.size(); ++id) {
    if (instance_uses[id] != 0 &&
        !fits(instance_uses[id], need, units_[kInstance][id])) {
      return false;
    }
  }
  for (EdgeId e = 0; e < link_uses.size(); ++e) {
    if (link_uses[e] != 0 && !fits(link_uses[e], need, units_[kLink][e])) {
      return false;
    }
  }
  return true;
}

bool CapacityLedger::footprint_unchanged_since(
    std::span<const std::uint32_t> link_uses,
    std::span<const std::uint32_t> instance_uses,
    std::uint64_t since_epoch) const {
  DAGSFC_CHECK(link_uses.size() <= stamps_[kLink].size());
  DAGSFC_CHECK(instance_uses.size() <= stamps_[kInstance].size());
  for (InstanceId id = 0; id < instance_uses.size(); ++id) {
    if (instance_uses[id] != 0 && stamps_[kInstance][id] > since_epoch) {
      return false;
    }
  }
  for (EdgeId e = 0; e < link_uses.size(); ++e) {
    if (link_uses[e] != 0 && stamps_[kLink][e] > since_epoch) return false;
  }
  return true;
}

}  // namespace dagsfc::net
