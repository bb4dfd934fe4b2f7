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
/// ## Capacity units
///
/// The ledger is the one place that knows how capacity is counted. It holds
/// every residual as an integer count of units of 10⁻⁹ rate and compares
/// counts exactly, so constraints (2) and (3) are checked without a
/// tolerance and any admit/release sequence returns every residual to its
/// nominal count bit for bit. Rates and capacities enter and leave as
/// doubles: each is rounded to the nearest unit where it enters, and
/// prices and costs never see units. The unit is decimal, so every rate
/// and capacity with at most nine fractional digits (0.3, 0.7, 1.3, 8,
/// 1e9) is exact. A countable amount is finite, non-negative and at most
/// the int64 range once rounded (about 9.2e9); Network accepts only
/// countable capacities, and EmbeddingProblem only rates of at least one
/// unit. A read returns the nominal capacity less the amount debited, so a
/// drained resource reads its capacity exactly.
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
/// credits forward (edge, residual units before/after) to the cache, which
/// evicts exactly the entries whose results a usability flip could change;
/// a cache context is a rate's unit count (rate_context), so the cache
/// compares counts the way the ledger does. Instance mutations never touch
/// the cache (edge usability depends only on link residuals). Copies
/// inherit residuals, stamps and epoch but start with no cache (caches are
/// never shared — they are not thread-safe).
///
/// A ledger that serves as a solver's private view (a serving worker's
/// scratch, shard::ComposedView) is written only through set_*_residual and
/// copy_*_residual, so its cache sees exactly the footprint-scoped
/// invalidations the copied residual changes call for and stays warm across
/// requests.

#include <array>
#include <cmath>
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

  [[nodiscard]] const Network& network() const noexcept { return *net_; }

  /// Whether \p amount (a rate or a capacity) has a unit count: finite,
  /// non-negative and within the int64 range once rounded.
  [[nodiscard]] static bool countable(double amount) noexcept {
    const double scaled = amount * kUnitsPerRate;
    return scaled >= 0.0 && scaled < 0x1p63;  // false for NaN too
  }
  /// Whether \p rate is a flow rate: countable and at least one unit.
  [[nodiscard]] static bool valid_rate(double rate) noexcept {
    return countable(rate) && std::rint(rate * kUnitsPerRate) >= 1.0;
  }
  /// The cache context of \p rate: its unit count. Contract-checked
  /// countable.
  [[nodiscard]] static std::uint64_t rate_context(double rate) {
    return static_cast<std::uint64_t>(units(rate));
  }

  /// Live residuals in rate: the nominal capacity less the amount debited.
  [[nodiscard]] double link_residual(EdgeId e) const {
    return residual(kLink, e);
  }
  [[nodiscard]] double instance_residual(InstanceId id) const {
    return residual(kInstance, id);
  }
  /// True iff every residual is back at its nominal count.
  [[nodiscard]] bool at_nominal() const;

  [[nodiscard]] bool link_can_carry(EdgeId e, double rate) const {
    return count(kLink, e) >= units(rate);
  }
  [[nodiscard]] bool instance_can_process(InstanceId id, double rate) const {
    return count(kInstance, id) >= units(rate);
  }

  /// True iff \p node hosts an instance of \p type with ≥ \p rate residual.
  [[nodiscard]] bool node_offers(NodeId node, VnfTypeId type,
                                 double rate) const;

  /// Debits \p uses × \p rate. Contract-checked against
  /// over-subscription; call the predicate first when admission can fail.
  void consume_link(EdgeId e, double rate, std::uint32_t uses = 1) {
    change(kLink, e, uses, units(rate), /*credit=*/false);
  }
  void consume_instance(InstanceId id, double rate, std::uint32_t uses = 1) {
    change(kInstance, id, uses, units(rate), /*credit=*/false);
  }

  /// Credits \p uses × \p rate (a rollback or a departure).
  /// Contract-checked against exceeding the nominal capacity.
  void release_link(EdgeId e, double rate, std::uint32_t uses = 1) {
    change(kLink, e, uses, units(rate), /*credit=*/true);
  }
  void release_instance(InstanceId id, double rate, std::uint32_t uses = 1) {
    change(kInstance, id, uses, units(rate), /*credit=*/true);
  }

  /// Sets one resource's residual, through the normal mutation epilogue so
  /// the epoch, per-resource stamp and path-cache invalidation all observe
  /// the change (a no-op when the count is unchanged). \p residual must
  /// lie in [0, nominal capacity]. HIER zeroes the resources outside its
  /// allowed regions with it.
  void set_link_residual(EdgeId e, double residual) {
    assign(kLink, e, units(residual));
  }
  void set_instance_residual(InstanceId id, double residual) {
    assign(kInstance, id, units(residual));
  }
  /// Sets one resource's residual to \p from's count of it, exactly. This
  /// is the shard layer's view-composition primitive: a scratch ledger is
  /// overwritten with each owner shard's live residuals before a restricted
  /// solve. \p from must be a ledger over the same network.
  void copy_link_residual(EdgeId e, const CapacityLedger& from) {
    copy(kLink, e, from);
  }
  void copy_instance_residual(InstanceId id, const CapacityLedger& from) {
    copy(kInstance, id, from);
  }

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
             std::span<const std::uint32_t> instance_uses, double rate) {
    change_all(link_uses, instance_uses, rate, /*credit=*/false);
  }
  /// Credits every counted use — the exact inverse of apply().
  void unapply(std::span<const std::uint32_t> link_uses,
               std::span<const std::uint32_t> instance_uses, double rate) {
    change_all(link_uses, instance_uses, rate, /*credit=*/true);
  }

  /// Sum of capacity already consumed (diagnostics).
  [[nodiscard]] double total_link_consumed() const {
    return total_consumed(kLink);
  }
  [[nodiscard]] double total_instance_consumed() const {
    return total_consumed(kInstance);
  }

  /// Monotonic version of the residual state: bumped by every consume_* /
  /// release_*. Two equal epochs of one ledger instance imply identical
  /// residuals everywhere.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  // --- MVCC stamps --------------------------------------------------------

  /// Epoch of the last mutation of one resource (0 = never mutated). Stamps
  /// are monotone per resource and never exceed epoch().
  [[nodiscard]] std::uint64_t link_stamp(EdgeId e) const {
    DAGSFC_CHECK(e < stamps_[kLink].size());
    return stamps_[kLink][e];
  }
  [[nodiscard]] std::uint64_t instance_stamp(InstanceId id) const {
    DAGSFC_CHECK(id < stamps_[kInstance].size());
    return stamps_[kInstance][id];
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
  using Units = std::int64_t;
  static constexpr double kUnitsPerRate = 1e9;
  /// Residual counts and stamps are kept in one array per resource kind.
  enum Kind : std::size_t { kLink = 0, kInstance = 1 };

  /// \p amount in units, rounded to nearest. Contract-checked countable.
  [[nodiscard]] static Units units(double amount) {
    DAGSFC_CHECK_MSG(countable(amount),
                     "rate or capacity is negative, not finite or too large");
    return static_cast<Units>(std::rint(amount * kUnitsPerRate));
  }
  /// Resource \p i's residual count, range-checked.
  [[nodiscard]] Units count(Kind k, std::size_t i) const {
    DAGSFC_CHECK(i < units_[k].size());
    return units_[k][i];
  }
  [[nodiscard]] double capacity(Kind k, std::size_t i) const;
  [[nodiscard]] double residual(Kind k, std::size_t i) const;
  [[nodiscard]] double total_consumed(Kind k) const;

  /// The one residual mutation: debits (or, with \p credit, credits)
  /// \p uses × \p need units, checking that the product fits before it is
  /// formed.
  void change(Kind k, std::size_t i, std::uint32_t uses, Units need,
              bool credit);
  void change_all(std::span<const std::uint32_t> link_uses,
                  std::span<const std::uint32_t> instance_uses, double rate,
                  bool credit);
  /// Sets a residual to \p residual ≤ nominal (a no-op when unchanged).
  void assign(Kind k, std::size_t i, Units residual);
  void copy(Kind k, std::size_t i, const CapacityLedger& from);
  /// Shared epilogue: bump the epoch, stamp, and forward a link's residual
  /// change to the cache's footprint-scoped invalidation.
  void store(Kind k, std::size_t i, Units residual);

  /// A cache slot that copies as empty: caches are per-instance, never
  /// shared.
  struct OwnCache {
    OwnCache() = default;
    OwnCache(const OwnCache&) noexcept {}
    OwnCache& operator=(const OwnCache&) noexcept {
      ptr.reset();
      return *this;
    }
    OwnCache(OwnCache&&) noexcept = default;
    OwnCache& operator=(OwnCache&&) noexcept = default;
    std::unique_ptr<graph::PathCache> ptr;
  };

  const Network* net_;
  std::array<std::vector<Units>, 2> units_;
  std::array<std::vector<std::uint64_t>, 2> stamps_;
  std::uint64_t epoch_ = 0;
  mutable OwnCache cache_;
};

}  // namespace dagsfc::net
