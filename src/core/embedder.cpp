#include "core/embedder.hpp"

#include "util/metrics.hpp"

namespace dagsfc::core {

SolveResult Embedder::solve(const ModelIndex& index,
                            const net::CapacityLedger& ledger, Rng& rng,
                            TraceSink* trace,
                            graph::SearchWorkspace* workspace) const {
  const Tracer t(trace);
  if (t) {
    SolveEvent begin;
    begin.kind = TraceEventKind::SolveBegin;
    begin.s0 = name();
    t(begin);
  }

  SolveResult r;
  {
    // Per-algorithm wall-time meter on the global registry
    // (dagsfc_phase_seconds{phase="solve/<name>"}). Unlike
    // DAGSFC_PHASE_SCOPE it cannot be a per-site static, because the phase
    // name depends on the embedder; the registry lookup is once per solve —
    // noise next to the solve itself.
    const util::PhaseMeter meter(util::MetricRegistry::global(),
                                 "solve/" + name());
    const util::PhaseTimer timer(meter);
    r = do_solve(index, ledger, rng, trace, workspace);
  }

  if (t) {
    if (r.ok()) {
      // Cost events: objective (1) term by term, in the Evaluator's exact
      // order and arithmetic, so EmbeddingTrace::reconstructed_cost() is
      // bitwise-equal to r.cost.
      const net::Network& net = index.problem().net();
      const Evaluator evaluator(index);
      for (const Evaluator::CostTerm& term :
           evaluator.cost_terms(*r.solution)) {
        SolveEvent e;
        e.kind = term.vnf ? TraceEventKind::VnfTerm : TraceEventKind::LinkTerm;
        e.i0 = term.id;
        e.i1 = term.uses;
        e.i2 = term.vnf
                   ? static_cast<std::int64_t>(
                         net.instance(static_cast<net::InstanceId>(term.id))
                             .node)
                   : static_cast<std::int64_t>(term.raw_uses);
        e.v0 = term.value;
        e.v1 = term.price;
        t(e);
      }
    }
    // Cache events: shortest-path work attribution. The only category
    // allowed to differ between cache-on and cache-off runs.
    {
      SolveEvent q;
      q.kind = TraceEventKind::PathQueries;
      q.i0 = static_cast<std::int64_t>(r.path_queries.dijkstra_calls);
      q.i1 = static_cast<std::int64_t>(r.path_queries.yen_calls);
      q.i2 = static_cast<std::int64_t>(r.path_queries.nodes_settled);
      t(q);
      SolveEvent c;
      c.kind = TraceEventKind::CacheStats;
      c.i0 = static_cast<std::int64_t>(r.path_queries.cache_hits);
      c.i1 = static_cast<std::int64_t>(r.path_queries.cache_misses);
      c.i2 = static_cast<std::int64_t>(r.path_queries.evictions);
      t(c);
    }
    SolveEvent end;
    end.kind = TraceEventKind::SolveEnd;
    end.i0 = r.ok() ? 1 : 0;
    end.v0 = r.cost;
    end.s0 = r.failure_reason;
    t(end);
  }
  return r;
}

}  // namespace dagsfc::core
