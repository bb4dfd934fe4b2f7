#include "sim/runner.hpp"

#include "util/timer.hpp"

namespace dagsfc::sim {

std::vector<AlgorithmStats> run_comparison(
    const ExperimentConfig& cfg,
    const std::vector<const core::Embedder*>& algorithms,
    const RunOptions& opts) {
  cfg.validate();
  DAGSFC_CHECK_MSG(!algorithms.empty(), "no algorithms to compare");

  std::vector<AlgorithmStats> totals(algorithms.size());
  for (std::size_t a = 0; a < algorithms.size(); ++a) {
    totals[a].name = algorithms[a]->name();
  }

  // Pre-derive one seed per trial so the trial → stream mapping does not
  // depend on scheduling.
  Rng seeder(cfg.seed);
  std::vector<std::uint64_t> trial_seeds(cfg.trials);
  for (auto& s : trial_seeds) s = seeder.fork_seed();

  struct TrialRow {
    bool ok = false;
    double cost = 0.0;
    double vnf = 0.0;
    double link = 0.0;
    double ms = 0.0;
    double expanded = 0.0;
    graph::PathQueryCounters path_queries;
    core::TraceCounts trace;
  };
  // Each trial writes only its own slot; the reduction below runs in trial
  // order, so the accumulated statistics are bit-identical for any thread
  // count (floating-point addition is not associative).
  std::vector<std::vector<TrialRow>> results(
      cfg.trials, std::vector<TrialRow>(algorithms.size()));

  ThreadPool pool(opts.threads);
  // One search workspace per pool worker (slot 0 serves the caller thread
  // when the pool is size 0 / parallel_for degrades to inline execution),
  // so every trial on a worker reuses warm buffers.
  std::vector<graph::SearchWorkspace> workspaces(pool.size() + 1);
  parallel_for(pool, cfg.trials, [&](std::size_t trial) {
    graph::SearchWorkspace& ws = workspaces[ThreadPool::current_worker_id()];
    Rng rng(trial_seeds[trial]);
    const Scenario scenario = make_scenario(rng, cfg);
    const sfc::DagSfc dag = make_sfc(rng, scenario.network.catalog(), cfg);

    core::EmbeddingProblem problem;
    problem.network = &scenario.network;
    problem.sfc = &dag;
    problem.flow = core::Flow{scenario.source, scenario.destination,
                              cfg.flow_rate, cfg.flow_size};
    const core::ModelIndex index(problem);

    const core::Evaluator evaluator(index);
    std::vector<TrialRow>& rows = results[trial];
    for (std::size_t a = 0; a < algorithms.size(); ++a) {
      core::EmbeddingTrace trace;
      core::TraceSink* sink = opts.collect_traces ? &trace : nullptr;
      WallTimer timer;
      const core::SolveResult r =
          algorithms[a]->solve_fresh(index, rng, sink, &ws);
      rows[a].ms = timer.elapsed_ms();
      if (sink != nullptr) rows[a].trace = trace.counts();
      rows[a].ok = r.ok();
      rows[a].cost = r.cost;
      rows[a].expanded = static_cast<double>(r.expanded_sub_solutions);
      rows[a].path_queries = r.path_queries;
      if (r.ok()) {
        const auto [vnf, link] =
            evaluator.cost_breakdown(evaluator.usage(*r.solution));
        rows[a].vnf = vnf;
        rows[a].link = link;
      }
    }
  });

  for (const auto& rows : results) {
    for (std::size_t a = 0; a < algorithms.size(); ++a) {
      totals[a].wall_ms.add(rows[a].ms);
      totals[a].expanded.add(rows[a].expanded);
      totals[a].path_queries += rows[a].path_queries;
      totals[a].trace += rows[a].trace;
      if (rows[a].ok) {
        totals[a].cost.add(rows[a].cost);
        totals[a].vnf_cost.add(rows[a].vnf);
        totals[a].link_cost.add(rows[a].link);
        ++totals[a].successes;
      } else {
        ++totals[a].failures;
      }
    }
  }

  return totals;
}

void fill_registry(const std::vector<AlgorithmStats>& stats,
                   util::MetricRegistry& registry,
                   const std::string& point_label) {
  for (const AlgorithmStats& s : stats) {
    util::MetricLabels labels{{"algo", s.name}};
    if (!point_label.empty()) labels.emplace_back("point", point_label);

    registry.counter("dagsfc_solver_successes_total", labels)
        .inc(s.successes);
    registry.counter("dagsfc_solver_failures_total", labels).inc(s.failures);

    const graph::PathQueryCounters& q = s.path_queries;
    registry.counter("dagsfc_path_dijkstra_calls_total", labels)
        .inc(q.dijkstra_calls);
    registry.counter("dagsfc_path_nodes_settled_total", labels)
        .inc(q.nodes_settled);
    registry.counter("dagsfc_path_yen_calls_total", labels).inc(q.yen_calls);
    registry.counter("dagsfc_path_bfs_calls_total", labels).inc(q.bfs_calls);
    registry.counter("dagsfc_path_steiner_calls_total", labels)
        .inc(q.steiner_calls);
    registry.counter("dagsfc_path_cache_hits_total", labels)
        .inc(q.cache_hits);
    registry.counter("dagsfc_path_cache_misses_total", labels)
        .inc(q.cache_misses);
    registry.counter("dagsfc_path_cache_evictions_total", labels)
        .inc(q.evictions);

    registry.gauge("dagsfc_solver_success_ratio", labels)
        .set(s.success_rate());
    registry.gauge("dagsfc_path_cache_hit_ratio", labels)
        .set(s.cache_hit_rate());
    registry.gauge("dagsfc_solver_cost_mean", labels).set(s.cost.mean());
    registry.gauge("dagsfc_solver_vnf_cost_mean", labels)
        .set(s.vnf_cost.mean());
    registry.gauge("dagsfc_solver_link_cost_mean", labels)
        .set(s.link_cost.mean());
    registry.gauge("dagsfc_solver_wall_ms_mean", labels)
        .set(s.wall_ms.mean());
    registry.gauge("dagsfc_solver_expanded_mean", labels)
        .set(s.expanded.mean());

    // Trace counters only when tracing actually ran — all-zero trace
    // families would just be noise in the exposition.
    const core::TraceCounts& t = s.trace;
    if (t.decision_events || t.vnf_terms) {
      registry.counter("dagsfc_trace_decision_events_total", labels)
          .inc(t.decision_events);
      registry.counter("dagsfc_trace_forward_searches_total", labels)
          .inc(t.forward_searches);
      registry.counter("dagsfc_trace_backward_searches_total", labels)
          .inc(t.backward_searches);
      registry.counter("dagsfc_trace_uncapped_retries_total", labels)
          .inc(t.uncapped_retries);
      registry.counter("dagsfc_trace_candidate_children_total", labels)
          .inc(t.candidate_children);
      registry.counter("dagsfc_trace_children_dropped_total", labels)
          .inc(t.children_dropped);
      registry.counter("dagsfc_trace_pool_dropped_total", labels)
          .inc(t.pool_dropped);
      registry.counter("dagsfc_trace_final_candidates_total", labels)
          .inc(t.final_candidates);
      registry.counter("dagsfc_trace_vnf_terms_total", labels)
          .inc(t.vnf_terms);
      registry.counter("dagsfc_trace_link_terms_total", labels)
          .inc(t.link_terms);
      registry.counter("dagsfc_trace_multicast_shared_uses_total", labels)
          .inc(t.multicast_shared_uses);
    }
  }
}

}  // namespace dagsfc::sim
