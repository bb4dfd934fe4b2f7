/// Tests for the observability subsystem: the Chrome trace export, the
/// DAGSFC_PHASE_SCOPE phase meters, core::EmbeddingTrace (typed solve
/// events), and the three contracts the tracing design rests on:
///   1. tracing never changes a solve (disabled-trace solves bit-identical),
///   2. traces are deterministic (byte-stable Chrome JSON across runs and
///      thread counts),
///   3. the Cost events reproduce objective (1) bitwise, and cache-on vs
///      cache-off traces differ only in Cache-category events.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core/backtracking.hpp"
#include "core/baselines.hpp"
#include "core/exact.hpp"
#include "core/trace.hpp"
#include "net/io.hpp"
#include "sfc/io.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

#ifndef DAGSFC_CORPUS_DIR
#error "DAGSFC_CORPUS_DIR must be defined by the build"
#endif

namespace dagsfc {
namespace {

// ---------------------------------------------------------------------------
// util::to_chrome_trace

TEST(ChromeTrace, ExportIsWellFormed) {
  std::vector<util::TraceEvent> events(2);
  events[0].name = "say \"hi\"";
  events[0].cat = "test";
  events[0].phase = 'i';
  events[0].num_args.emplace_back("count", 3.0);
  events[0].str_args.emplace_back("why", "line\nbreak");
  events[1].name = "plain";

  const std::string json = util::to_chrome_trace(events, /*pid=*/7);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"say \\\"hi\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"count\":3,\"why\":\"line\\nbreak\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"pid\":7"), std::string::npos);
  // Events without a category get the "default" bucket.
  EXPECT_NE(json.find("\"cat\":\"default\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// DAGSFC_PHASE_SCOPE: per-phase wall-time meters on the global registry

std::uint64_t phase_calls(const util::RegistrySnapshot& snap,
                          const std::string& phase) {
  return snap.counter_value("dagsfc_phase_calls_total", {{"phase", phase}});
}

double phase_seconds(const util::RegistrySnapshot& snap,
                     const std::string& phase) {
  return snap.gauge_value("dagsfc_phase_seconds", {{"phase", phase}});
}

TEST(PhaseScope, BumpsCallsAndSecondsInTheGlobalRegistry) {
  const util::MetricRegistry& registry = util::MetricRegistry::global();
  const util::RegistrySnapshot before = registry.snapshot();
  for (int i = 0; i < 3; ++i) {
    DAGSFC_PHASE_SCOPE("x");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const util::RegistrySnapshot after = registry.snapshot();
  EXPECT_EQ(phase_calls(after, "x") - phase_calls(before, "x"), 3u);
  // Three scopes that each slept at least 1 ms.
  EXPECT_GE(phase_seconds(after, "x") - phase_seconds(before, "x"), 0.003);
}

TEST(PhaseScope, BbeSolveRegistersTheBacktrackingPhases) {
  // perfbench's fig6_offline reads these three phases by name.
  const util::MetricRegistry& registry = util::MetricRegistry::global();
  const util::RegistrySnapshot before = registry.snapshot();
  auto fx = test::canonical_fixture();
  const core::BbeEmbedder bbe;
  net::CapacityLedger ledger(fx->index->problem().net());
  Rng rng(1);
  ASSERT_TRUE(bbe.solve(*fx->index, ledger, rng).ok());
  const util::RegistrySnapshot after = registry.snapshot();
  for (const char* phase : {"backtracking/ring_search", "backtracking/layer",
                            "backtracking/complete"}) {
    SCOPED_TRACE(phase);
    const util::MetricLabels labels{{"phase", phase}};
    EXPECT_NE(after.find("dagsfc_phase_calls_total", labels), nullptr);
    EXPECT_NE(after.find("dagsfc_phase_seconds", labels), nullptr);
    EXPECT_GT(phase_calls(after, phase), phase_calls(before, phase));
    EXPECT_GE(phase_seconds(after, phase), phase_seconds(before, phase));
  }
}

// ---------------------------------------------------------------------------
// core::EmbeddingTrace on the canonical fixture

core::SolveResult solve_traced(const core::Embedder& algo,
                               const core::ModelIndex& index,
                               std::uint64_t seed,
                               core::EmbeddingTrace* trace) {
  net::CapacityLedger ledger(index.problem().net());
  Rng rng(seed);
  return algo.solve(index, ledger, rng, trace);
}

TEST(EmbeddingTrace, SolveEnvelopeAndBitwiseReconstruction) {
  auto fx = test::canonical_fixture();
  const core::MbbeEmbedder mbbe;
  core::EmbeddingTrace trace;
  const auto r = solve_traced(mbbe, *fx->index, 1, &trace);
  ASSERT_TRUE(r.ok());

  const auto& events = trace.events();
  ASSERT_GE(events.size(), 4u);
  EXPECT_EQ(events.front().kind, core::TraceEventKind::SolveBegin);
  EXPECT_EQ(events.front().s0, "MBBE");
  EXPECT_EQ(events.back().kind, core::TraceEventKind::SolveEnd);
  EXPECT_EQ(events.back().i0, 1);
  EXPECT_EQ(events.back().v0, r.cost);  // bitwise

  // The per-term reconstruction of objective (1) must be *bitwise* equal to
  // the evaluator's reported cost — same terms, same summation order.
  EXPECT_EQ(trace.reconstructed_cost(), r.cost);

  const core::TraceCounts c = trace.counts();
  EXPECT_GT(c.decision_events, 0u);
  EXPECT_GT(c.forward_searches, 0u);
  EXPECT_GT(c.backward_searches, 0u);
  EXPECT_GT(c.candidate_children, 0u);
  EXPECT_GT(c.vnf_terms, 0u);
  EXPECT_GT(c.link_terms, 0u);

  const std::string s = trace.summary();
  EXPECT_NE(s.find("MBBE"), std::string::npos);
  EXPECT_NE(s.find("ok"), std::string::npos);
}

TEST(EmbeddingTrace, FailureSolvesCarryTheReason) {
  // Destination 4 exists but no merger-capable parallel embedding below: use
  // a layer type that is nowhere deployed by cloning the canonical fixture
  // with an SFC that asks for type 3 twice the network cannot satisfy — the
  // simplest robust failure is an SFC requiring a type with no instances.
  test::NetBuilder b(4, 2);
  b.link(0, 1, 1.0).link(1, 2, 1.0).link(2, 3, 1.0);
  b.put(1, 1, 5.0);  // type 2 never deployed
  auto fx = test::make_fixture(b.build(), sfc::DagSfc({sfc::Layer{{2}}}),
                               core::Flow{0, 3, 1.0, 1.0});
  const core::MbbeEmbedder mbbe;
  core::EmbeddingTrace trace;
  const auto r = solve_traced(mbbe, *fx->index, 1, &trace);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(trace.events().back().kind, core::TraceEventKind::SolveEnd);
  EXPECT_EQ(trace.events().back().i0, 0);
  EXPECT_EQ(trace.events().back().s0, r.failure_reason);
  EXPECT_NE(trace.summary().find("FAILED"), std::string::npos);
}

TEST(EmbeddingTrace, TraceCountsAreAdditive) {
  core::TraceCounts a;
  a.forward_searches = 2;
  a.vnf_terms = 3;
  a.multicast_shared_uses = 1;
  core::TraceCounts b;
  b.forward_searches = 5;
  b.link_terms = 4;
  a += b;
  EXPECT_EQ(a.forward_searches, 7u);
  EXPECT_EQ(a.vnf_terms, 3u);
  EXPECT_EQ(a.link_terms, 4u);
  EXPECT_EQ(a.multicast_shared_uses, 1u);
}

// ---------------------------------------------------------------------------
// Corpus contracts

/// The solvers the corpus contracts below run: the set minus LAYERED.
std::vector<const core::Embedder*> traced_embedders(
    const test::EmbedderSet& set) {
  return {&set.ranv, &set.minv, &set.bbe, &set.mbbe, &set.exact};
}

class CorpusTrace : public ::testing::TestWithParam<const char*> {};

TEST_P(CorpusTrace, TracedSolveIsBitIdenticalToUntraced) {
  const test::CorpusInstance inst(DAGSFC_CORPUS_DIR, GetParam());
  const test::EmbedderSet set;
  for (const core::Embedder* algo : traced_embedders(set)) {
    SCOPED_TRACE(algo->name());
    core::EmbeddingTrace trace;
    const auto traced = solve_traced(*algo, *inst.index, 1, &trace);
    const auto plain = solve_traced(*algo, *inst.index, 1, nullptr);
    test::expect_identical(traced, plain);
  }
}

TEST_P(CorpusTrace, CostEventsReconstructObjectiveBitwise) {
  const test::CorpusInstance inst(DAGSFC_CORPUS_DIR, GetParam());
  const test::EmbedderSet set;
  for (const core::Embedder* algo : traced_embedders(set)) {
    SCOPED_TRACE(algo->name());
    core::EmbeddingTrace trace;
    const auto r = solve_traced(*algo, *inst.index, 1, &trace);
    if (!r.ok()) continue;
    EXPECT_EQ(trace.reconstructed_cost(), r.cost);
    // Charged link uses never exceed the raw path incidences, and VNF terms
    // are never discounted.
    for (const core::SolveEvent& e : trace.events()) {
      if (e.kind == core::TraceEventKind::LinkTerm) {
        EXPECT_LE(e.i1, e.i2);
      }
      if (e.kind == core::TraceEventKind::VnfTerm) {
        EXPECT_GE(e.i1, 1);
      }
    }
  }
}

TEST_P(CorpusTrace, ChromeJsonIsByteStableAcrossThreadCounts) {
  const test::CorpusInstance inst(DAGSFC_CORPUS_DIR, GetParam());
  const core::MbbeEmbedder mbbe;

  auto traced_json = [&]() {
    core::EmbeddingTrace trace;
    (void)solve_traced(mbbe, *inst.index, 1, &trace);
    return trace.to_chrome_json();
  };

  const std::string main_thread = traced_json();
  EXPECT_FALSE(main_thread.empty());
  // Re-run on pool workers: logical clocks and pinned tid/pid make the
  // document identical byte for byte regardless of which thread solves.
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    ThreadPool pool(threads);
    std::vector<std::string> outputs(threads * 2);
    parallel_for(pool, outputs.size(),
                 [&](std::size_t i) { outputs[i] = traced_json(); });
    for (const std::string& out : outputs) EXPECT_EQ(out, main_thread);
  }
}

TEST_P(CorpusTrace, CacheOnOffDifferOnlyInCacheEvents) {
  const test::CorpusInstance inst(DAGSFC_CORPUS_DIR, GetParam());
  const test::EmbedderSet set;
  for (const core::Embedder* algo : traced_embedders(set)) {
    SCOPED_TRACE(algo->name());
    // One ledger solved twice: the first solve starts from a cold cache,
    // the second finds every entry the first one left behind.
    net::CapacityLedger ledger(inst.index->problem().net());
    core::EmbeddingTrace cold;
    core::EmbeddingTrace warm;
    Rng cold_rng(1);
    (void)algo->solve(*inst.index, ledger, cold_rng, &cold);
    Rng warm_rng(1);
    (void)algo->solve(*inst.index, ledger, warm_rng, &warm);

    auto non_cache = [](const core::EmbeddingTrace& t) {
      std::vector<core::SolveEvent> out;
      for (const core::SolveEvent& e : t.events()) {
        if (core::category(e.kind) != core::TraceCategory::Cache) {
          out.push_back(e);
        }
      }
      return out;
    };
    // Decision/Meta/Cost streams are identical — what the cache holds may
    // never change what the solver decides, only how the shortest-path
    // work is served.
    EXPECT_EQ(non_cache(warm), non_cache(cold));

    // The warm solve misses nothing the cold one already looked up.
    for (const core::SolveEvent& e : warm.events()) {
      if (e.kind == core::TraceEventKind::CacheStats) {
        EXPECT_EQ(e.i1, 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Instances, CorpusTrace,
                         ::testing::Values("ring12", "leafspine14", "waxman20",
                                           "tightline5"),
                         [](const auto& param_info) { return param_info.param; });

// ---------------------------------------------------------------------------
// sim runner aggregation

TEST(RunnerTraces, CollectTracesAggregatesDeterministically) {
  sim::ExperimentConfig cfg;
  cfg.trials = 8;
  cfg.network_size = 14;
  cfg.network_connectivity = 3.0;
  cfg.catalog_size = 6;
  cfg.sfc_size = 3;
  cfg.seed = 0x7ace;

  const core::MinvEmbedder minv;
  const core::MbbeEmbedder mbbe;
  const std::vector<const core::Embedder*> algos{&minv, &mbbe};

  sim::RunOptions with_traces;
  with_traces.collect_traces = true;
  with_traces.threads = 1;
  const auto serial = sim::run_comparison(cfg, algos, with_traces);
  with_traces.threads = 4;
  const auto parallel = sim::run_comparison(cfg, algos, with_traces);

  ASSERT_EQ(serial.size(), 2u);
  for (std::size_t a = 0; a < serial.size(); ++a) {
    SCOPED_TRACE(serial[a].name);
    // Trace roll-ups are sums of integers reduced in trial order: identical
    // for any thread count.
    EXPECT_EQ(serial[a].trace, parallel[a].trace);
    EXPECT_GT(serial[a].trace.vnf_terms, 0u);
  }
  // MBBE performs ring searches; MINV does not.
  EXPECT_EQ(serial[0].trace.forward_searches, 0u);
  EXPECT_GT(serial[1].trace.forward_searches, 0u);

  // Tracing must not perturb the results themselves.
  sim::RunOptions plain;
  plain.threads = 2;
  const auto untraced = sim::run_comparison(cfg, algos, plain);
  for (std::size_t a = 0; a < serial.size(); ++a) {
    EXPECT_EQ(untraced[a].trace, core::TraceCounts{});
    EXPECT_EQ(untraced[a].successes, serial[a].successes);
    EXPECT_DOUBLE_EQ(untraced[a].cost.mean(), serial[a].cost.mean());
    EXPECT_EQ(untraced[a].path_queries.dijkstra_calls,
              serial[a].path_queries.dijkstra_calls);
  }
}

}  // namespace
}  // namespace dagsfc
