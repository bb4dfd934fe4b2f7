#pragma once
/// \file ledger.hpp
/// ShardedLedger — residual capacity split into per-region shards, the
/// serving plane's one commit domain (a flat service is its one-region
/// case).
///
/// Each region owns one full-size net::CapacityLedger guarded by its own
/// mutex, but only the resources the region owns (ShardedSubstrate's
/// ownership map) are ever mutated in it; everything else stays at nominal
/// forever. That makes each shard the single-writer authority for its
/// resources, and lets a cross-region commit take only the locks of the
/// regions on its path — requests whose region sets are disjoint never
/// contend.
///
/// ## View composition
///
/// A solver cannot read k ledgers at once, so compose() assembles a
/// *restricted snapshot* into a worker's ComposedView: for every involved
/// region, the owner shard's live residuals are copied in (under that
/// shard's lock, taken in ascending region order); every resource owned by
/// a region outside the set reads as residual 0. A solver run against the
/// composed view is thereby confined to the allowed regions — zero-residual
/// resources fail every capacity predicate — without any id remapping:
/// solutions come out in global ids and validate unchanged.
///
/// compose() is incremental. The view remembers, per region, the shard
/// epoch it last copied (or that it holds the region zeroed):
///   * an involved region whose shard epoch has not moved is skipped;
///   * an involved region whose epoch moved copies only the resources whose
///     shard stamp is newer than the remembered epoch;
///   * an involved region the view holds zeroed (or has never copied) gets
///     a full copy;
///   * an off-path region is zeroed only when it leaves the path.
/// This is exact. The view's scratch ledger is written only by compose()
/// (solvers take it const), so between two composes it still holds what
/// the last one wrote. A shard stamps every resource it mutates with its
/// new epoch, so a resource whose stamp is at or below the remembered epoch
/// still holds the residual the view copied. Every copy is an exact unit
/// count, through CapacityLedger::copy_*_residual (a no-op on equal counts),
/// so the view's path cache sees only the footprint-scoped invalidations of
/// residuals that actually changed and stays warm across requests.
///
/// ## Commit protocol
///
/// try_commit() revalidates a solution's footprint against the live shards
/// under their locks (ascending order — the global lock hierarchy, so
/// concurrent cross-region commits cannot deadlock) and applies it
/// atomically across all of them. Classification, per shard:
///   * fast      — no shard's epoch moved since the snapshot: apply as-is;
///   * stamp     — epochs moved but no resource in the footprint was
///                 touched (per-resource stamps): the residuals the solver
///                 saw are still live, apply without re-checking;
///   * validated — the footprint was touched, but can_apply() still holds
///                 on every shard: apply (the solution's *cost* reflects
///                 the snapshot, its feasibility is re-proven);
///   * conflict  — some shard rejects: nothing is applied anywhere.
///
/// The full-span trick: stamp- and can_apply-checks run with the complete
/// usage vectors against each shard's full-size ledger. That is exact, not
/// approximate — resources owned by other shards have stamp 0 (never
/// mutated here) and nominal residuals, so they can neither fail the stamp
/// check nor the capacity check spuriously. Only the debits and credits
/// go to each resource's owner shard, in the order CapacityLedger::apply
/// would make them.

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/solution.hpp"
#include "net/ledger.hpp"
#include "shard/substrate.hpp"

namespace dagsfc::shard {

enum class CommitPath : std::uint8_t { kFast, kStamp, kValidated, kConflict };

[[nodiscard]] constexpr const char* to_string(CommitPath p) noexcept {
  switch (p) {
    case CommitPath::kFast: return "fast";
    case CommitPath::kStamp: return "stamp";
    case CommitPath::kValidated: return "validated";
    case CommitPath::kConflict: return "conflict";
  }
  return "unknown";
}

struct CommitResult {
  bool ok = false;
  CommitPath path = CommitPath::kConflict;
  /// Regions owning part of the footprint (= the shards this commit wrote,
  /// or would have written), ascending. The service's per-shard counters.
  std::vector<RegionId> touched;
  /// On conflict: the region whose shard rejected the footprint.
  RegionId conflict_region = kInvalidRegion;
};

/// A worker's private composed snapshot: the scratch ledger its solver
/// reads, plus what the scratch holds of each region. Only
/// ShardedLedger::compose writes it.
class ComposedView {
 public:
  /// The substrate must outlive the view.
  explicit ComposedView(const ShardedSubstrate& substrate);

  [[nodiscard]] const net::CapacityLedger& ledger() const noexcept {
    return scratch_;
  }
  /// Shard epochs of the last compose()'s regions, in their order — the
  /// snapshot handle try_commit() validates against.
  [[nodiscard]] std::span<const std::uint64_t> epochs() const noexcept {
    return epochs_;
  }

 private:
  friend class ShardedLedger;
  /// held_ values besides a shard epoch (epochs stay far below these).
  static constexpr std::uint64_t kNominal = ~std::uint64_t{0};
  static constexpr std::uint64_t kZeroed = kNominal - 1;

  net::CapacityLedger scratch_;
  std::vector<std::uint64_t> held_;  ///< per region: copied epoch or a tag
  std::vector<std::uint64_t> epochs_;
};

class ShardedLedger {
 public:
  /// One shard per region of \p substrate, all starting at nominal
  /// capacity. The substrate must outlive the ledger.
  explicit ShardedLedger(const ShardedSubstrate& substrate);

  [[nodiscard]] const ShardedSubstrate& substrate() const noexcept {
    return *substrate_;
  }
  [[nodiscard]] std::size_t num_shards() const noexcept {
    return shards_.size();
  }

  /// Live epoch of one shard's ledger (locks it briefly).
  [[nodiscard]] std::uint64_t shard_epoch(RegionId r) const;
  /// Sum of the shard epochs: every resource mutation ever applied bumps
  /// exactly one shard's epoch, so this counts them. With one region it is
  /// that shard's epoch.
  [[nodiscard]] std::uint64_t epoch() const;

  /// Epochs of the involved shards in the order of \p regions — the
  /// snapshot handle try_commit() validates against.
  void snapshot_epochs(std::span<const RegionId> regions,
                       std::vector<std::uint64_t>& out) const;

  /// Brings \p view up to the restricted snapshot of \p regions (see file
  /// comment) and records each involved shard's epoch in view.epochs(),
  /// parallel to \p regions. \p regions must be sorted ascending and
  /// duplicate-free; \p view must have been built over this ledger's
  /// substrate.
  void compose(std::span<const RegionId> regions, ComposedView& view) const;

  /// Commits \p usage (rate-scaled) across the shards of \p regions,
  /// revalidating against \p epochs from compose(). All-or-nothing: on
  /// conflict no shard is modified. \p regions sorted ascending.
  CommitResult try_commit(const core::ResourceUsage& usage, double rate,
                          std::span<const RegionId> regions,
                          std::span<const std::uint64_t> epochs);

  /// Releases a previously committed footprint (flow departure). The
  /// owning shards are derived from the usage itself.
  void release(const core::ResourceUsage& usage, double rate);

  /// The live residuals of every resource, each copied from its owner shard
  /// (exactly), as one ledger over the substrate's network. Only the
  /// residuals are meaningful; the copy's epoch and stamps are its own.
  [[nodiscard]] net::CapacityLedger residuals() const;

  /// True iff every shard's owned resources are back at their nominal unit
  /// counts, exactly — the conservation oracle for commit/release
  /// batteries. Locks shards one at a time, so call only at quiescence.
  [[nodiscard]] bool residuals_nominal() const;

  /// Direct locked read of one resource's live residual (diagnostics).
  [[nodiscard]] double link_residual(EdgeId e) const;
  [[nodiscard]] double instance_residual(InstanceId id) const;

 private:
  /// Regions owning at least one counted resource of \p usage, ascending
  /// (a one-shard ledger answers its one region without scanning).
  [[nodiscard]] std::vector<RegionId> owners(
      const core::ResourceUsage& usage) const;
  /// Debits (or, with \p credit, credits) every counted use in its owner
  /// shard. The caller holds the owners' locks.
  void apply_owned(const core::ResourceUsage& usage, double rate,
                   bool credit);

  struct Shard {
    explicit Shard(const net::Network& n) : ledger(n) {}
    mutable std::mutex mu;
    net::CapacityLedger ledger;
  };

  const ShardedSubstrate* substrate_;
  // unique_ptr because Shard holds a mutex (not movable, so not
  // vector-element material) and because it pins each shard's cache line
  // group to its own allocation — no false sharing between shard mutexes.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace dagsfc::shard
