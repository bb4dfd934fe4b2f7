#pragma once
/// \file backtracking.hpp
/// The Breadth-first Backtracking Embedding engine (paper §4, Algorithm 1),
/// parameterized so that plain BBE and MBBE are two option presets:
///
///   BBE   — meta-paths instantiated by walking FST/BST tree paths; no
///           forward-search cap; all candidate sub-solutions kept.
///   MBBE  — strategy (1): forward search bounded by X_max nodes;
///           strategy (2): meta-paths instantiated by minimum-cost paths on
///           the real-time (residual) network;
///           strategy (3): only the cheapest X_d children of each
///           sub-solution enter the sub-solution tree (X_d-tree).
///
/// Per layer, for every sub-solution of the previous layer, the engine
/// expands that sub-solution's end node: forward search (§4.2) from it until
/// the searched node set hosts all VNFs the layer requires, then — for
/// parallel layers — backward search (§4.3) from every merger-hosting node
/// of the forward set, restricted to the forward set, and finally candidate
/// sub-solution generation (§4.4) over VNF allocations inside the backward
/// set. The expansion depends only on the end node, so sub-solutions that
/// share one share it: the first records its searches and candidates, the
/// others replay them at their own cumulative cost and delay (DESIGN.md §14,
/// "Shared expansions"). After the last layer each surviving sub-solution is
/// completed with a minimum-cost path to the destination and the cheapest
/// feasible complete solution wins.
///
/// Two safety valves the paper implies but does not parameterize (it reports
/// BBE running out of memory at SFC size > 5): a cap on allocations
/// enumerated per FST-BST pair and a cap on the per-layer sub-solution pool.
/// Both default high enough not to bind in the paper's configurations and
/// are surfaced in the ablation bench.

#include <optional>

#include "core/delay.hpp"
#include "core/embedder.hpp"
#include "core/search_tree.hpp"

namespace dagsfc::core {

struct BacktrackingOptions {
  /// MBBE strategy (2): instantiate meta-paths with Dijkstra min-cost paths
  /// on the residual network instead of FST/BST tree walks.
  bool min_cost_path_instantiation = false;
  /// MBBE strategy (1): forward search halts once its node set reaches this
  /// size; 0 = unbounded (BBE).
  std::size_t x_max = 0;
  /// MBBE strategy (3): cheapest children kept per sub-solution; 0 = all.
  std::size_t x_d = 0;
  /// Safety valve: VNF allocations enumerated per FST-BST pair.
  std::size_t max_assignments_per_pair = 256;
  /// Safety valve: per-layer sub-solution pool (cheapest kept).
  std::size_t max_pool = 4096;
  /// Candidate real-paths enumerated per meta-path — the paper's ρ index
  /// over the real-path set P^a_b (its §4.5 complexity analysis calls the
  /// per-pair path multiplicity h). 1 = only the tree path (BBE) or the
  /// min-cost path (MBBE); >1 adds Yen alternatives (restricted to the
  /// search-tree node set in tree mode).
  std::size_t paths_per_meta_path = 1;
  /// Safety valve: path combinations enumerated per (merger, allocation).
  std::size_t max_path_combos = 8;
  /// Optional end-to-end delay budget (critical-path semantics, see
  /// core/delay.hpp): sub-solutions whose accumulated delay exceeds the
  /// budget are pruned and the final winner is the cheapest embedding that
  /// *meets the bound* — the cost/latency joint optimization the paper
  /// defers to future work. Pruning stays cost-first (X_d keeps the
  /// cheapest in-budget children), so a very tight budget can fail even
  /// when a feasible embedding exists. nullopt = unconstrained.
  std::optional<double> delay_budget_ms;
  /// Delay model used when delay_budget_ms is set.
  DelayModel delay_model;
};

class BacktrackingEngine {
 public:
  explicit BacktrackingEngine(BacktrackingOptions opts) : opts_(opts) {}

  [[nodiscard]] const BacktrackingOptions& options() const noexcept {
    return opts_;
  }

  /// \p trace, when non-null, receives the layer-by-layer Decision events
  /// (ring searches, X_max caps, X_d/max_pool pruning, final candidates).
  /// \p workspace is an optional caller-owned search-buffer loan (see
  /// Embedder::solve).
  [[nodiscard]] SolveResult run(const ModelIndex& index,
                                const net::CapacityLedger& ledger,
                                TraceSink* trace = nullptr,
                                graph::SearchWorkspace* workspace =
                                    nullptr) const;

 private:
  BacktrackingOptions opts_;
};

/// Plain BBE (§4.1–§4.4).
class BbeEmbedder final : public Embedder {
 public:
  BbeEmbedder() : engine_(BacktrackingOptions{}) {}
  explicit BbeEmbedder(const BacktrackingOptions& opts) : engine_(opts) {}

  [[nodiscard]] std::string name() const override { return "BBE"; }

 protected:
  [[nodiscard]] SolveResult do_solve(const ModelIndex& index,
                                     const net::CapacityLedger& ledger,
                                     Rng& rng, TraceSink* trace,
                                     graph::SearchWorkspace* workspace)
      const override;

 private:
  BacktrackingEngine engine_;
};

struct MbbeOptions {
  std::size_t x_max = 50;  ///< forward-search node cap (≤ n)
  std::size_t x_d = 4;     ///< children kept per sub-solution
  /// Optional delay budget, forwarded to the engine (see
  /// BacktrackingOptions::delay_budget_ms).
  std::optional<double> delay_budget_ms;
  DelayModel delay_model;
};

/// Mini-path BBE (§4.5) — BBE plus the three complementary strategies.
class MbbeEmbedder final : public Embedder {
 public:
  explicit MbbeEmbedder(const MbbeOptions& opts = {});

  [[nodiscard]] std::string name() const override { return "MBBE"; }

 protected:
  [[nodiscard]] SolveResult do_solve(const ModelIndex& index,
                                     const net::CapacityLedger& ledger,
                                     Rng& rng, TraceSink* trace,
                                     graph::SearchWorkspace* workspace)
      const override;

 private:
  BacktrackingEngine engine_;
};

}  // namespace dagsfc::core
