#pragma once
/// \file hier.hpp
/// HierarchicalEmbedder ("HIER") — two-stage embedding over a sharded
/// substrate.
///
/// Stage one plans coarsely: the k cheapest region sequences between the
/// flow's source and destination regions on the contracted region graph
/// (ShardedSubstrate::region_paths), using the price summaries instead of
/// the full topology. Stage two solves exactly, but small: for each
/// candidate region set, the substrate ledger is *restricted* — every
/// resource owned by a region outside the set has its residual forced to
/// zero — and a flat inner embedder (BBE, MBBE, or LAYERED) runs on the
/// restricted view. Zero-residual resources fail every capacity predicate,
/// so the inner solver is confined to the candidate's regions without any
/// id remapping; its solution is in global ids and passes
/// core::SolutionValidator unchanged. The embedder returns the cheapest
/// solution across candidates (best-of-k); candidates are tried in
/// ascending summary-cost order, so ties keep the coarsely-cheapest plan.
///
/// Restriction trades optimality for locality: HIER's cost is ≥ the flat
/// inner algorithm's cost on the full substrate (a restricted search space
/// cannot beat the unrestricted optimum) — the payoff is that each solve
/// touches only the shards on its region path, which is what makes the
/// sharded serving layer scale. flat_fallback recovers admissions the
/// restriction would lose: when every candidate fails, retry once
/// unrestricted.

#include <memory>
#include <span>
#include <vector>

#include "core/embedder.hpp"
#include "shard/substrate.hpp"

namespace dagsfc::shard {

enum class InnerAlgorithm : std::uint8_t { kBbe, kMbbe, kLayered };

[[nodiscard]] constexpr const char* to_string(InnerAlgorithm a) noexcept {
  switch (a) {
    case InnerAlgorithm::kBbe: return "bbe";
    case InnerAlgorithm::kMbbe: return "mbbe";
    case InnerAlgorithm::kLayered: return "layered";
  }
  return "unknown";
}

/// Parses "bbe" / "mbbe" / "layered"; throws std::invalid_argument
/// otherwise (CLI flag plumbing).
[[nodiscard]] InnerAlgorithm inner_algorithm_from_string(
    const std::string& name);

/// Constructs a fresh flat solver for stage two (default options).
[[nodiscard]] std::unique_ptr<core::Embedder> make_inner_embedder(
    InnerAlgorithm algorithm);

struct HierOptions {
  std::size_t region_paths = 4;  ///< stage-one candidates (k of k-shortest)
  InnerAlgorithm inner = InnerAlgorithm::kMbbe;
  /// Retry once on the unrestricted substrate when every candidate fails.
  /// Off by default: the serving layer wants the restricted failure (a
  /// flat retry would need every shard's lock).
  bool flat_fallback = false;
};

/// Stage one: up to \p k candidate region sets for a src→dst flow, cheapest
/// summary first (ShardedSubstrate::region_paths), each sorted ascending.
/// Region paths are loopless, so every set is duplicate-free. Written into
/// \p out, whose buffers are reused; empty when the endpoints' regions are
/// disconnected. Searches through the caller's \p ws. Shared by this
/// embedder and the serving plane.
void candidate_region_sets(const ShardedSubstrate& substrate, NodeId src,
                           NodeId dst, std::size_t k,
                           graph::SearchWorkspace& ws,
                           std::vector<std::vector<RegionId>>& out);

/// Zeroes, in place, the residual of every resource owned by a region
/// outside \p regions (sorted ascending) — this embedder's restriction of
/// a ledger copy; the serving plane's ShardedLedger::compose zeroes its
/// views the same way.
void restrict_to_regions(const ShardedSubstrate& substrate,
                         std::span<const RegionId> regions,
                         net::CapacityLedger& ledger);

class HierarchicalEmbedder final : public core::Embedder {
 public:
  /// \p substrate must outlive the embedder and must shard the same
  /// Network every solve's problem and ledger reference.
  explicit HierarchicalEmbedder(const ShardedSubstrate& substrate,
                                const HierOptions& opts = {});

  [[nodiscard]] std::string name() const override { return "HIER"; }

  [[nodiscard]] const ShardedSubstrate& substrate() const noexcept {
    return *substrate_;
  }
  [[nodiscard]] const core::Embedder& inner() const noexcept {
    return *inner_;
  }
  [[nodiscard]] const HierOptions& options() const noexcept { return opts_; }

 protected:
  [[nodiscard]] core::SolveResult do_solve(
      const core::ModelIndex& index, const net::CapacityLedger& ledger,
      Rng& rng, core::TraceSink* trace,
      graph::SearchWorkspace* workspace) const override;

 private:
  const ShardedSubstrate* substrate_;
  HierOptions opts_;
  std::unique_ptr<core::Embedder> inner_;
};

}  // namespace dagsfc::shard
