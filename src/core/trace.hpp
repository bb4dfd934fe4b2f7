#pragma once
/// \file trace.hpp (core)
/// Structured per-solve tracing: typed SolveEvents emitted by the embedders
/// through an optional TraceSink, and EmbeddingTrace, the standard sink that
/// records them for inspection, aggregation, and Chrome-trace export.
///
/// The event stream is designed so that a solve is *auditable*:
///   * Decision events record the layer-by-layer search — candidate nodes
///     scored, ring-search extents, X_max caps and the uncapped retry, X_d
///     pruning, pool trims, and final candidate completions;
///   * Cost events reproduce objective (1) term by term: one VnfTerm per
///     rented instance (α_{v,i} of formula (7)) and one LinkTerm per charged
///     link, where the inter-layer multicast discount of formula (9) is
///     visible as raw path incidences vs. charged uses. Summing the terms in
///     event order is bitwise-equal to the Evaluator's reported cost;
///   * Cache events attribute shortest-path work (Dijkstra/Yen calls,
///     path-cache hits/misses) without ever influencing decisions — cached
///     and uncached runs differ only in this category.
///
/// Everything here is pay-for-use: call sites guard on a nullable sink, so a
/// null-trace solve executes the exact same instruction stream as before the
/// instrumentation (verified bit-for-bit by tests/test_trace.cpp).

#include <cstdint>
#include <string>
#include <vector>

namespace dagsfc::core {

/// Coarse grouping of SolveEvent kinds; Cache is the only category allowed
/// to differ between cache-on and cache-off runs of the same instance.
enum class TraceCategory : std::uint8_t { Meta, Decision, Cost, Cache };

enum class TraceEventKind : std::uint8_t {
  // --- Meta ---
  SolveBegin,      ///< s0 = algorithm name
  SolveEnd,        ///< i0 = ok (0/1), v0 = cost, s0 = failure reason
  // --- Decision: backtracking search (BBE/MBBE, Algorithm 1) ---
  LayerEnter,      ///< i0 = layer, i1 = parent pool size
  ForwardSearch,   ///< i0 = layer, i1 = start node, i2 = nodes searched,
                   ///< v0 = success (0/1), v1 = X_max-capped (0/1)
  BackwardSearch,  ///< i0 = layer, i1 = merger node, i2 = nodes searched,
                   ///< v0 = success (0/1)
  UncappedRetry,   ///< i0 = layer that exhausted under the X_max cap
  CandidateChild,  ///< i0 = layer, i1 = end node, i2 = parent index,
                   ///< v0 = cumulative cost
  ChildrenPruned,  ///< i0 = layer, i1 = generated, i2 = kept (X_d)
  PoolPruned,      ///< i0 = layer, i1 = before, i2 = after (max_pool)
  LayerDone,       ///< i0 = layer, i1 = surviving pool size
  FinalCandidate,  ///< i0 = end node, v0 = total cost, v1 = new-best (0/1)
  // --- Decision: assign-then-route baselines (RANV/MINV) ---
  SlotChoice,      ///< i0 = slot, i1 = node, i2 = candidate count, v0 = price
  MetaPathRouted,  ///< i0 = 0 inter / 1 inner, i1 = path index, i2 = hops,
                   ///< v0 = path cost
  // --- Decision: exact layer DP ---
  DpLayer,         ///< i0 = layer, i1 = cells considered, i2 = cells kept
  // --- Decision: layered product-graph search (LAYERED) ---
  LayeredLevel,    ///< i0 = level, i1 = states settled, i2 = relaxations
  LayeredGadget,   ///< i0 = layer, i1 = boundary node, i2 = labels relaxed,
                   ///< v0 = boundary cost, v1 = assignments enumerated
  // --- Cost: objective (1) reconstruction ---
  VnfTerm,         ///< i0 = instance, i1 = α uses, i2 = hosting node,
                   ///< v0 = term value (α·price·z), v1 = price
  LinkTerm,        ///< i0 = edge, i1 = charged uses (α_e), i2 = raw path
                   ///< incidences, v0 = term value (α_e·price·z), v1 = price
  // --- Cache: shortest-path work attribution ---
  PathQueries,     ///< i0 = dijkstra computations, i1 = yen computations,
                   ///< i2 = nodes the Dijkstra searches settled
  CacheStats,      ///< i0 = hits, i1 = misses, i2 = evictions
};

[[nodiscard]] TraceCategory category(TraceEventKind kind) noexcept;

/// Human-readable event-kind name ("forward_search", "vnf_term", ...).
[[nodiscard]] const char* kind_name(TraceEventKind kind) noexcept;

/// One typed solve event. Field meaning depends on `kind` (see the enum);
/// unused fields stay at their defaults so events compare cleanly.
struct SolveEvent {
  TraceEventKind kind = TraceEventKind::SolveBegin;
  std::int64_t i0 = 0;
  std::int64_t i1 = 0;
  std::int64_t i2 = 0;
  double v0 = 0.0;
  double v1 = 0.0;
  std::string s0;

  [[nodiscard]] bool operator==(const SolveEvent&) const = default;
};

/// Receiver interface the embedders emit into. Implementations must tolerate
/// being driven from any single thread (one solve = one thread); they are
/// not required to be thread-safe across concurrent solves — use one sink
/// per solve.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const SolveEvent& e) = 0;
};

/// Null-safe emission helper for call sites:
///   Tracer trace(sink);
///   if (trace) { ... build event ...; trace(ev); }
class Tracer {
 public:
  explicit Tracer(TraceSink* sink) noexcept : sink_(sink) {}

  [[nodiscard]] explicit operator bool() const noexcept {
    return sink_ != nullptr;
  }

  void operator()(SolveEvent e) const {
    if (sink_ != nullptr) sink_->on_event(e);
  }

  [[nodiscard]] TraceSink* sink() const noexcept { return sink_; }

 private:
  TraceSink* sink_;
};

/// Additive roll-up of a trace, cheap enough to keep per trial and sum
/// across a Monte-Carlo run.
struct TraceCounts {
  std::uint64_t decision_events = 0;
  std::uint64_t forward_searches = 0;
  std::uint64_t backward_searches = 0;
  std::uint64_t uncapped_retries = 0;
  std::uint64_t candidate_children = 0;
  std::uint64_t children_dropped = 0;   ///< by X_d pruning
  std::uint64_t pool_dropped = 0;       ///< by max_pool trimming
  std::uint64_t final_candidates = 0;
  std::uint64_t vnf_terms = 0;
  std::uint64_t link_terms = 0;
  std::uint64_t multicast_shared_uses = 0;  ///< Σ (raw incidences − charged)

  TraceCounts& operator+=(const TraceCounts& o) noexcept;
  [[nodiscard]] bool operator==(const TraceCounts&) const = default;
};

/// The standard sink: records every event in emission order and offers the
/// derived views the tests and CLI need. One instance per solve.
class EmbeddingTrace final : public TraceSink {
 public:
  void on_event(const SolveEvent& e) override;

  [[nodiscard]] const std::vector<SolveEvent>& events() const noexcept {
    return events_;
  }

  [[nodiscard]] TraceCounts counts() const;

  /// Re-derives objective (1) by summing the Cost events in emission order.
  /// The embedder emits terms with the Evaluator's exact arithmetic and
  /// ordering, so for a successful solve this is bitwise-equal to
  /// SolveResult::cost. Returns 0.0 when no cost events were recorded.
  [[nodiscard]] double reconstructed_cost() const;

  /// Σ over LinkTerm events of (raw path incidences − charged uses): the
  /// total number of link charges saved by inter-layer multicast sharing
  /// (formula (9) vs. charging every path independently).
  [[nodiscard]] std::uint64_t multicast_sharing() const;

  /// Events of this trace rendered as a Chrome trace_event JSON document
  /// (logical timestamps = event index; tid/pid fixed at 0, so the output
  /// is byte-stable across runs and thread counts).
  [[nodiscard]] std::string to_chrome_json() const;

  /// Compact multi-line human summary for the CLI.
  [[nodiscard]] std::string summary() const;

  void clear() { events_.clear(); }

 private:
  std::vector<SolveEvent> events_;
};

}  // namespace dagsfc::core
