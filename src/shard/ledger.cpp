#include "shard/ledger.hpp"

#include <algorithm>
#include <cmath>

namespace dagsfc::shard {

ShardedLedger::ShardedLedger(const ShardedSubstrate& substrate)
    : substrate_(&substrate) {
  shards_.reserve(substrate.num_regions());
  // Shard ledgers are mutated only under their mutex and never searched
  // against directly (solvers run on composed scratch views), so their
  // lazily created path caches are never built.
  for (std::size_t r = 0; r < substrate.num_regions(); ++r) {
    shards_.push_back(std::make_unique<Shard>(substrate.network()));
  }
}

std::uint64_t ShardedLedger::shard_epoch(RegionId r) const {
  DAGSFC_CHECK(r < shards_.size());
  std::lock_guard lock(shards_[r]->mu);
  return shards_[r]->ledger.epoch();
}

void ShardedLedger::snapshot_epochs(std::span<const RegionId> regions,
                                    std::vector<std::uint64_t>& out) const {
  out.clear();
  out.reserve(regions.size());
  for (const RegionId r : regions) out.push_back(shard_epoch(r));
}

void ShardedLedger::compose(std::span<const RegionId> regions,
                            net::CapacityLedger& out,
                            std::vector<std::uint64_t>& epochs) const {
  DAGSFC_CHECK_MSG(&out.network() == &substrate_->network(),
                   "scratch ledger views a different Network");
  DAGSFC_CHECK_MSG(std::is_sorted(regions.begin(), regions.end()) &&
                       std::adjacent_find(regions.begin(), regions.end()) ==
                           regions.end(),
                   "region set must be sorted and duplicate-free");
  epochs.clear();
  epochs.reserve(regions.size());
  std::size_t next = 0;  // cursor into the sorted involved set
  for (RegionId r = 0; r < shards_.size(); ++r) {
    const bool involved = next < regions.size() && regions[next] == r;
    if (involved) {
      ++next;
      const Shard& shard = *shards_[r];
      std::lock_guard lock(shard.mu);
      for (const EdgeId e : substrate_->links_owned_by(r)) {
        out.set_link_residual(e, shard.ledger.link_residual(e));
      }
      for (const InstanceId id : substrate_->instances_owned_by(r)) {
        out.set_instance_residual(id, shard.ledger.instance_residual(id));
      }
      epochs.push_back(shard.ledger.epoch());
    } else {
      // Off-path regions read as exhausted — no lock needed, the value is
      // constant and set_*_residual no-ops when already zero.
      for (const EdgeId e : substrate_->links_owned_by(r)) {
        out.set_link_residual(e, 0.0);
      }
      for (const InstanceId id : substrate_->instances_owned_by(r)) {
        out.set_instance_residual(id, 0.0);
      }
    }
  }
  DAGSFC_CHECK_MSG(next == regions.size(), "region id out of range");
}

ShardedLedger::SplitUsage ShardedLedger::split_usage(
    const core::ResourceUsage& usage) const {
  SplitUsage split;
  std::vector<std::size_t> slot_of(shards_.size(),
                                   static_cast<std::size_t>(-1));
  const auto slot_for = [&](RegionId r) -> core::ResourceUsage& {
    if (slot_of[r] == static_cast<std::size_t>(-1)) {
      slot_of[r] = split.regions.size();
      split.regions.push_back(r);
      auto& u = split.per_region.emplace_back();
      u.link_uses.resize(usage.link_uses.size(), 0);
      u.instance_uses.resize(usage.instance_uses.size(), 0);
    }
    return split.per_region[slot_of[r]];
  };
  for (EdgeId e = 0; e < usage.link_uses.size(); ++e) {
    if (usage.link_uses[e] == 0) continue;
    slot_for(substrate_->owner_of_link(e)).link_uses[e] = usage.link_uses[e];
  }
  for (InstanceId id = 0; id < usage.instance_uses.size(); ++id) {
    if (usage.instance_uses[id] == 0) continue;
    slot_for(substrate_->owner_of_instance(id)).instance_uses[id] =
        usage.instance_uses[id];
  }
  // Sort by region id so lock acquisition below follows the global
  // hierarchy; the parallel arrays are permuted together.
  std::vector<std::size_t> order(split.regions.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return split.regions[a] < split.regions[b];
  });
  SplitUsage sorted;
  sorted.regions.reserve(order.size());
  sorted.per_region.reserve(order.size());
  for (const std::size_t i : order) {
    sorted.regions.push_back(split.regions[i]);
    sorted.per_region.push_back(std::move(split.per_region[i]));
  }
  return sorted;
}

CommitResult ShardedLedger::try_commit(const core::ResourceUsage& usage,
                                       double rate,
                                       std::span<const RegionId> regions,
                                       std::span<const std::uint64_t> epochs) {
  DAGSFC_CHECK(regions.size() == epochs.size());
  const SplitUsage split = split_usage(usage);
  CommitResult result;
  result.touched = split.regions;
  if (split.regions.empty()) {
    result.ok = true;
    result.path = CommitPath::kFast;
    return result;
  }

  // The footprint's owner regions must be a subset of the composed region
  // set — the restricted view makes anything else a solver bug. Pair each
  // footprint region with its snapshot epoch (both arrays sorted).
  std::vector<std::uint64_t> my_epochs(split.regions.size());
  for (std::size_t i = 0, j = 0; i < split.regions.size(); ++i) {
    while (j < regions.size() && regions[j] < split.regions[i]) ++j;
    DAGSFC_CHECK_MSG(j < regions.size() && regions[j] == split.regions[i],
                     "solution uses a resource outside its region path");
    my_epochs[i] = epochs[j];
  }

  // Lock every involved shard, ascending region id.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(split.regions.size());
  for (const RegionId r : split.regions) {
    locks.emplace_back(shards_[r]->mu);
  }

  // Classify per shard; the commit's path is the slowest shard's path.
  // Stamp and capacity checks use the full usage spans against each
  // shard's full-size ledger — exact, because resources owned elsewhere
  // carry stamp 0 and nominal residuals in this shard (see file comment).
  CommitPath path = CommitPath::kFast;
  for (std::size_t i = 0; i < split.regions.size(); ++i) {
    const net::CapacityLedger& ledger = shards_[split.regions[i]]->ledger;
    if (ledger.epoch() == my_epochs[i]) continue;
    if (ledger.footprint_unchanged_since(usage.link_uses, usage.instance_uses,
                                         my_epochs[i])) {
      path = std::max(path, CommitPath::kStamp);
      continue;
    }
    if (ledger.can_apply(split.per_region[i].link_uses,
                         split.per_region[i].instance_uses, rate)) {
      path = std::max(path, CommitPath::kValidated);
      continue;
    }
    result.conflict_region = split.regions[i];
    return result;
  }

  // All shards accept: apply each shard's slice. No shard can fail here —
  // fast/stamp shards still hold the residuals the feasible solve saw, and
  // validated shards just passed can_apply under this lock.
  for (std::size_t i = 0; i < split.regions.size(); ++i) {
    shards_[split.regions[i]]->ledger.apply(split.per_region[i].link_uses,
                                            split.per_region[i].instance_uses,
                                            rate);
  }
  result.ok = true;
  result.path = path;
  return result;
}

void ShardedLedger::release(const core::ResourceUsage& usage, double rate) {
  const SplitUsage split = split_usage(usage);
  for (std::size_t i = 0; i < split.regions.size(); ++i) {
    Shard& shard = *shards_[split.regions[i]];
    std::lock_guard lock(shard.mu);
    shard.ledger.unapply(split.per_region[i].link_uses,
                         split.per_region[i].instance_uses, rate);
  }
}

bool ShardedLedger::residuals_nominal() const {
  // Same tolerance as the flat driver's conservation check: consume/release
  // round-trips are float adds, not bitwise inverses.
  constexpr double kTol = 1e-6;
  const net::Network& net = substrate_->network();
  for (RegionId r = 0; r < shards_.size(); ++r) {
    std::lock_guard lock(shards_[r]->mu);
    const net::CapacityLedger& ledger = shards_[r]->ledger;
    for (const EdgeId e : substrate_->links_owned_by(r)) {
      if (std::abs(ledger.link_residual(e) - net.link_capacity(e)) > kTol) {
        return false;
      }
    }
    for (const InstanceId id : substrate_->instances_owned_by(r)) {
      if (std::abs(ledger.instance_residual(id) - net.instance(id).capacity) >
          kTol) {
        return false;
      }
    }
  }
  return true;
}

double ShardedLedger::link_residual(EdgeId e) const {
  const RegionId r = substrate_->owner_of_link(e);
  std::lock_guard lock(shards_[r]->mu);
  return shards_[r]->ledger.link_residual(e);
}

double ShardedLedger::instance_residual(InstanceId id) const {
  const RegionId r = substrate_->owner_of_instance(id);
  std::lock_guard lock(shards_[r]->mu);
  return shards_[r]->ledger.instance_residual(id);
}

}  // namespace dagsfc::shard
