#include "shard/ledger.hpp"

#include <algorithm>
#include <numeric>

namespace dagsfc::shard {

namespace {

/// Locks the shards of \p regions in the given (ascending) order — the
/// global lock hierarchy — and unlocks them on scope exit.
template <class Shards>
class ScopedShardLocks {
 public:
  ScopedShardLocks(const Shards& shards, std::span<const RegionId> regions)
      : shards_(shards), regions_(regions) {
    for (const RegionId r : regions_) shards_[r]->mu.lock();
  }
  ~ScopedShardLocks() {
    for (auto it = regions_.rbegin(); it != regions_.rend(); ++it) {
      shards_[*it]->mu.unlock();
    }
  }
  ScopedShardLocks(const ScopedShardLocks&) = delete;
  ScopedShardLocks& operator=(const ScopedShardLocks&) = delete;

 private:
  const Shards& shards_;
  std::span<const RegionId> regions_;
};

}  // namespace

ComposedView::ComposedView(const ShardedSubstrate& substrate)
    : scratch_(substrate.network()),
      held_(substrate.num_regions(), kNominal) {}

ShardedLedger::ShardedLedger(const ShardedSubstrate& substrate)
    : substrate_(&substrate) {
  shards_.reserve(substrate.num_regions());
  // Shard ledgers are mutated only under their mutex and never searched
  // against directly (solvers run on composed views), so their lazily
  // created path caches are never built.
  for (std::size_t r = 0; r < substrate.num_regions(); ++r) {
    shards_.push_back(std::make_unique<Shard>(substrate.network()));
  }
}

std::uint64_t ShardedLedger::shard_epoch(RegionId r) const {
  DAGSFC_CHECK(r < shards_.size());
  std::lock_guard lock(shards_[r]->mu);
  return shards_[r]->ledger.epoch();
}

std::uint64_t ShardedLedger::epoch() const {
  std::uint64_t sum = 0;
  for (RegionId r = 0; r < shards_.size(); ++r) sum += shard_epoch(r);
  return sum;
}

void ShardedLedger::snapshot_epochs(std::span<const RegionId> regions,
                                    std::vector<std::uint64_t>& out) const {
  out.clear();
  out.reserve(regions.size());
  for (const RegionId r : regions) out.push_back(shard_epoch(r));
}

void ShardedLedger::compose(std::span<const RegionId> regions,
                            ComposedView& view) const {
  net::CapacityLedger& out = view.scratch_;
  DAGSFC_CHECK_MSG(&out.network() == &substrate_->network() &&
                       view.held_.size() == shards_.size(),
                   "view was built over a different substrate");
  DAGSFC_CHECK_MSG(std::is_sorted(regions.begin(), regions.end()) &&
                       std::adjacent_find(regions.begin(), regions.end()) ==
                           regions.end(),
                   "region set must be sorted and duplicate-free");
  view.epochs_.clear();
  std::size_t next = 0;  // cursor into the sorted involved set
  for (RegionId r = 0; r < shards_.size(); ++r) {
    std::uint64_t& held = view.held_[r];
    if (next == regions.size() || regions[next] != r) {
      // Off-path regions read as exhausted — no lock needed, the value is
      // constant, so a region already zeroed is left alone.
      if (held == ComposedView::kZeroed) continue;
      for (const EdgeId e : substrate_->links_owned_by(r)) {
        out.set_link_residual(e, 0.0);
      }
      for (const InstanceId id : substrate_->instances_owned_by(r)) {
        out.set_instance_residual(id, 0.0);
      }
      held = ComposedView::kZeroed;
      continue;
    }
    ++next;
    const Shard& shard = *shards_[r];
    std::lock_guard lock(shard.mu);
    const net::CapacityLedger& live = shard.ledger;
    const std::uint64_t epoch = live.epoch();
    if (held != epoch) {
      // A zeroed or never-copied region is copied whole; otherwise only
      // the resources the shard mutated after the copied epoch can differ.
      const bool whole =
          held == ComposedView::kZeroed || held == ComposedView::kNominal;
      for (const EdgeId e : substrate_->links_owned_by(r)) {
        if (whole || live.link_stamp(e) > held) {
          out.copy_link_residual(e, live);
        }
      }
      for (const InstanceId id : substrate_->instances_owned_by(r)) {
        if (whole || live.instance_stamp(id) > held) {
          out.copy_instance_residual(id, live);
        }
      }
      held = epoch;
    }
    view.epochs_.push_back(epoch);
  }
  DAGSFC_CHECK_MSG(next == regions.size(), "region id out of range");
}

std::vector<RegionId> ShardedLedger::owners(
    const core::ResourceUsage& usage) const {
  if (shards_.size() == 1) return {0};  // a flat service's one region
  std::vector<RegionId> out;
  const auto note = [&out](RegionId r) {
    if (std::find(out.begin(), out.end(), r) == out.end()) out.push_back(r);
  };
  for (InstanceId id = 0; id < usage.instance_uses.size(); ++id) {
    if (usage.instance_uses[id] != 0) note(substrate_->owner_of_instance(id));
  }
  for (EdgeId e = 0; e < usage.link_uses.size(); ++e) {
    if (usage.link_uses[e] != 0) note(substrate_->owner_of_link(e));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ShardedLedger::apply_owned(const core::ResourceUsage& usage, double rate,
                                bool credit) {
  // Same order and arithmetic as CapacityLedger::apply/unapply, so each
  // shard sees the mutations a one-ledger apply would make of its slice.
  for (InstanceId id = 0; id < usage.instance_uses.size(); ++id) {
    const std::uint32_t uses = usage.instance_uses[id];
    if (uses == 0) continue;
    net::CapacityLedger& ledger =
        shards_[substrate_->owner_of_instance(id)]->ledger;
    if (credit) {
      ledger.release_instance(id, rate, uses);
    } else {
      ledger.consume_instance(id, rate, uses);
    }
  }
  for (EdgeId e = 0; e < usage.link_uses.size(); ++e) {
    const std::uint32_t uses = usage.link_uses[e];
    if (uses == 0) continue;
    net::CapacityLedger& ledger = shards_[substrate_->owner_of_link(e)]->ledger;
    if (credit) {
      ledger.release_link(e, rate, uses);
    } else {
      ledger.consume_link(e, rate, uses);
    }
  }
}

CommitResult ShardedLedger::try_commit(const core::ResourceUsage& usage,
                                       double rate,
                                       std::span<const RegionId> regions,
                                       std::span<const std::uint64_t> epochs) {
  DAGSFC_CHECK(regions.size() == epochs.size());
  CommitResult result;
  result.touched = owners(usage);
  if (result.touched.empty()) {
    result.ok = true;
    result.path = CommitPath::kFast;
    return result;
  }

  const ScopedShardLocks lock(shards_, result.touched);
  // Classify per shard; the commit's path is the slowest shard's path.
  // Stamp and capacity checks use the full usage spans against each
  // shard's full-size ledger — exact, because resources owned elsewhere
  // carry stamp 0 and nominal residuals in this shard (see file comment).
  CommitPath path = CommitPath::kFast;
  std::size_t j = 0;  // cursor pairing each owner with its snapshot epoch
  for (const RegionId r : result.touched) {
    while (j < regions.size() && regions[j] < r) ++j;
    // The restricted view makes a footprint outside the composed regions
    // a solver bug.
    DAGSFC_CHECK_MSG(j < regions.size() && regions[j] == r,
                     "solution uses a resource outside its region path");
    const net::CapacityLedger& ledger = shards_[r]->ledger;
    if (ledger.epoch() == epochs[j]) continue;
    if (ledger.footprint_unchanged_since(usage.link_uses, usage.instance_uses,
                                         epochs[j])) {
      path = std::max(path, CommitPath::kStamp);
      continue;
    }
    if (ledger.can_apply(usage.link_uses, usage.instance_uses, rate)) {
      path = std::max(path, CommitPath::kValidated);
      continue;
    }
    result.conflict_region = r;
    return result;
  }

  // All shards accept. No debit can fail here — fast/stamp shards still
  // hold the residuals the feasible solve saw, and validated shards just
  // passed can_apply under this lock.
  apply_owned(usage, rate, /*credit=*/false);
  result.ok = true;
  result.path = path;
  return result;
}

void ShardedLedger::release(const core::ResourceUsage& usage, double rate) {
  const std::vector<RegionId> regions = owners(usage);
  const ScopedShardLocks lock(shards_, regions);
  apply_owned(usage, rate, /*credit=*/true);
}

net::CapacityLedger ShardedLedger::residuals() const {
  std::vector<RegionId> all(shards_.size());
  std::iota(all.begin(), all.end(), RegionId{0});
  ComposedView view(*substrate_);
  compose(all, view);
  return view.ledger();
}

bool ShardedLedger::residuals_nominal() const {
  // Resources a shard does not own stay nominal in it, so each shard's
  // whole ledger must be.
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    if (!shard->ledger.at_nominal()) return false;
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
