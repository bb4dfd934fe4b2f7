#pragma once
/// \file ledger.hpp
/// Residual-capacity tracking — the "real-time network graph G_l" of
/// Algorithm 1.
///
/// A CapacityLedger starts from a Network's nominal capacities and is
/// debited as embeddings commit resources: every use of a VNF instance
/// consumes the flow rate R of its processing capability (constraint (2)),
/// and every traversal of a link consumes R of its bandwidth (constraint
/// (3)). Ledgers are value types — candidate exploration copies them; the
/// sequential multi-flow examples keep one long-lived ledger across
/// admissions.
///
/// ## MVCC state
///
/// Every debit or credit bumps a monotonic epoch() counter *and* stamps the
/// touched resource with the new epoch value (link_stamp / instance_stamp).
/// The global epoch orders all mutations; the per-resource stamps let a
/// commit validate only the footprint it touches: if every resource a
/// solution uses carries a stamp at or below the epoch its solving snapshot
/// was taken at, the residuals the solver saw for that footprint are still
/// the live residuals — the commit is valid without re-checking capacities
/// (footprint_unchanged_since). That is the serve layer's stamp-validated
/// commit path.
///
/// ## Path-cache coupling
///
/// The ledger owns a per-instance graph::PathCache, created on the first
/// path_cache() call: a ledger that is never searched (a shard's) never
/// builds one, and a copy builds none until its first query. Link debits and
/// credits forward (edge, residual-before/after, kEps) to the cache, which
/// evicts exactly the entries whose results a usability flip could change;
/// instance mutations never touch the cache (edge usability depends only
/// on link residuals). Copies inherit residuals, stamps and epoch but
/// start with no cache (caches are never shared — they are not
/// thread-safe).
///
/// A ledger that serves as a solver's private view (a serving worker's
/// scratch, shard::ComposedView) is written only through set_*_residual, so
/// its cache sees exactly the footprint-scoped invalidations the copied
/// residual changes call for and stays warm across requests.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/path_cache.hpp"
#include "net/network.hpp"

namespace dagsfc::net {

class CapacityLedger {
 public:
  explicit CapacityLedger(const Network& network);

  CapacityLedger(const CapacityLedger& other);
  CapacityLedger& operator=(const CapacityLedger& other);
  CapacityLedger(CapacityLedger&&) noexcept = default;
  CapacityLedger& operator=(CapacityLedger&&) noexcept = default;

  [[nodiscard]] const Network& network() const noexcept { return *net_; }

  [[nodiscard]] double link_residual(EdgeId e) const {
    DAGSFC_CHECK(e < link_residual_.size());
    return link_residual_[e];
  }
  [[nodiscard]] double instance_residual(InstanceId id) const {
    DAGSFC_CHECK(id < instance_residual_.size());
    return instance_residual_[id];
  }

  [[nodiscard]] bool link_can_carry(EdgeId e, double rate) const {
    return link_residual(e) >= rate - kEps;
  }
  [[nodiscard]] bool instance_can_process(InstanceId id, double rate) const {
    return instance_residual(id) >= rate - kEps;
  }

  /// True iff \p node hosts an instance of \p type with ≥ \p rate residual.
  [[nodiscard]] bool node_offers(NodeId node, VnfTypeId type,
                                 double rate) const;

  /// Debits. Contract-checked against over-subscription; call the predicate
  /// first when admission can fail.
  void consume_link(EdgeId e, double rate);
  void consume_instance(InstanceId id, double rate);

  /// Credits (used when a tentative reservation is rolled back).
  void release_link(EdgeId e, double rate);
  void release_instance(InstanceId id, double rate);

  /// Sets one resource's residual to exactly \p residual (bitwise — no
  /// subtraction round-trip), going through the normal mutation epilogue so
  /// the epoch, per-resource stamp and path-cache invalidation all observe
  /// the change. Residual must lie in [−kEps, nominal capacity
  /// + kEps]: consume_link/consume_instance admit a debit down to −kEps
  /// (a capacity-1.0 link after debits 0.3, 0.3, 0.3, 0.1 holds −2.8e-17),
  /// so any residual a live ledger holds can be copied here bitwise.
  /// This is the shard layer's view-composition primitive: a scratch ledger
  /// is overwritten with each owner shard's live residuals (and zeros for
  /// everything outside the allowed regions) before a restricted solve.
  void set_link_residual(EdgeId e, double residual);
  void set_instance_residual(InstanceId id, double residual);

  /// Bulk counterparts over a whole embedding's reuse counts (the α vectors
  /// of core::ResourceUsage, indexed by EdgeId / InstanceId; entries beyond
  /// the vectors' lengths are implicitly zero). Each counted use costs
  /// \p rate; these are the one shared implementation behind
  /// Evaluator::feasible/commit/release, the dynamic sim's departures, and
  /// the serve layer's optimistic commits.
  [[nodiscard]] bool can_apply(std::span<const std::uint32_t> link_uses,
                               std::span<const std::uint32_t> instance_uses,
                               double rate) const;
  /// Debits every counted use. Contract-checked; call can_apply() first
  /// when admission may fail.
  void apply(std::span<const std::uint32_t> link_uses,
             std::span<const std::uint32_t> instance_uses, double rate);
  /// Credits every counted use — the exact inverse of apply().
  void unapply(std::span<const std::uint32_t> link_uses,
               std::span<const std::uint32_t> instance_uses, double rate);

  /// Sum of capacity already consumed (diagnostics).
  [[nodiscard]] double total_link_consumed() const;
  [[nodiscard]] double total_instance_consumed() const;

  /// Monotonic version of the residual state: bumped by every consume_* /
  /// release_*. Two equal epochs of one ledger instance imply identical
  /// residuals everywhere.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  // --- MVCC stamps --------------------------------------------------------

  /// Epoch of the last mutation of one resource (0 = never mutated). Stamps
  /// are monotone per resource and never exceed epoch().
  [[nodiscard]] std::uint64_t link_stamp(EdgeId e) const {
    DAGSFC_CHECK(e < link_stamp_.size());
    return link_stamp_[e];
  }
  [[nodiscard]] std::uint64_t instance_stamp(InstanceId id) const {
    DAGSFC_CHECK(id < instance_stamp_.size());
    return instance_stamp_[id];
  }

  /// Footprint-scoped MVCC validation: true iff no resource counted in the
  /// footprint has been mutated after \p since_epoch — i.e. a snapshot
  /// taken at since_epoch saw, for this footprint, exactly the live
  /// residuals, so a solution feasible against the snapshot is feasible
  /// now without re-checking capacities.
  [[nodiscard]] bool footprint_unchanged_since(
      std::span<const std::uint32_t> link_uses,
      std::span<const std::uint32_t> instance_uses,
      std::uint64_t since_epoch) const;

  /// The ledger's shortest-path cache, created on first access. The cache
  /// is logically state — it never changes observable results — hence
  /// usable through const ledgers.
  [[nodiscard]] graph::PathCache& path_cache() const;

 private:
  static constexpr double kEps = 1e-9;

  /// Shared epilogue of every link mutation: stamp, and forward the
  /// residual change to the cache's footprint-scoped invalidation.
  void note_link_changed(EdgeId e, double before, double after);

  const Network* net_;
  std::vector<double> link_residual_;
  std::vector<double> instance_residual_;
  std::vector<std::uint64_t> link_stamp_;
  std::vector<std::uint64_t> instance_stamp_;
  std::uint64_t epoch_ = 0;

  mutable std::unique_ptr<graph::PathCache> cache_;
};

}  // namespace dagsfc::net
