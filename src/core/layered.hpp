#pragma once
/// \file layered.hpp
/// Joint placement+routing embedder over the implicit layered product
/// graph (ROADMAP item: Sallam et al., "Shortest Path and Maximum Flow
/// Problems Under Service Function Chaining Constraints").
///
/// The layered construction crosses the stretched SFC's levels with the
/// substrate: state (l, v) means "layers 1..l are embedded and the packet
/// currently sits at node v". Three arc families connect the states:
///
///   * routing arcs  (l, v) → (l, w)   — one per usable substrate edge,
///     priced at the link price; they exist on every level whose *next*
///     layer is sequential (and on the final level ω, toward the
///     destination);
///   * placement arcs (l, v) → (l+1, v) — when the next layer is sequential
///     and v hosts its VNF with residual capacity, priced at the rent;
///   * gadget transitions (l, p) ⇒ (l+1, m) — when the next layer is
///     parallel: settling the boundary state fires the same enumeration the
///     exact solver runs per DP cell (minimum Steiner multicast over
///     {p} ∪ assignment, formula (9); rents; inner shortest paths to each
///     merger candidate, formula (10)), because multicast pricing is not
///     expressible as per-arc costs.
///
/// One Dijkstra pass over this graph — never materialized; successors are
/// expanded on the fly over the CSR view with a per-worker SearchWorkspace
/// (prepare_states()) — therefore chooses VNF nodes and real paths jointly
/// and is exact for the uncapacitated objective, like the EXACT test oracle
/// (reference/core/exact.hpp) but with the per-layer Cartesian DP replaced
/// by label merging on routing levels. Capacities are screened per resource while searching and
/// checked for real post-hoc, exactly like the exact solver.
///
/// An optional end-to-end delay budget (Ren & Han, "Embedding the Minimum
/// Cost SFC with End-to-end Delay Constraint") turns the scalar search into
/// a bounded bi-criteria one: labels carry (cost, delay), a label is
/// dominated only when both coordinates are, and the first settled label at
/// the goal is the cheapest embedding whose critical-path delay (the
/// core/delay.hpp model) fits the budget. An unset or infinite budget takes
/// the scalar code path — "no budget" *is* "budget = ∞" by construction, so
/// the two are bitwise-identical.

#include <optional>

#include "core/delay.hpp"
#include "core/embedder.hpp"

namespace dagsfc::core {

struct LayeredOptions {
  /// End-to-end delay budget (critical-path semantics of core/delay.hpp).
  /// Unset or infinite: plain min-cost search.
  std::optional<double> delay_budget_ms;
  /// Delay model used when a budget is set.
  DelayModel delay_model;
  /// Upper bound on the estimated parallel-gadget work (boundary states ×
  /// assignments, the same estimate EXACT uses) before refusing.
  std::size_t max_work = 5'000'000;
  /// Safety valve for the bi-criteria mode: maximum labels created before
  /// the solve fails with a clear reason instead of thrashing.
  std::size_t max_labels = 2'000'000;
};

class LayeredEmbedder final : public Embedder {
 public:
  explicit LayeredEmbedder(const LayeredOptions& opts = {}) : opts_(opts) {}

  [[nodiscard]] std::string name() const override { return "LAYERED"; }

 protected:
  [[nodiscard]] SolveResult do_solve(const ModelIndex& index,
                                     const net::CapacityLedger& ledger,
                                     Rng& rng, TraceSink* trace,
                                     graph::SearchWorkspace* workspace)
      const override;

 private:
  LayeredOptions opts_;
};

}  // namespace dagsfc::core
