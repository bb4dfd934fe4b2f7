/// Tests for the observability subsystem: util::TraceRecorder (ring buffer,
/// spans, worker-lane tagging, Chrome export), core::EmbeddingTrace (typed
/// solve events), and the three contracts the tracing design rests on:
///   1. tracing never changes a solve (disabled-trace solves bit-identical),
///   2. traces are deterministic (byte-stable Chrome JSON across runs and
///      thread counts),
///   3. the Cost events reproduce objective (1) bitwise, and cache-on vs
///      cache-off traces differ only in Cache-category events.

#include <gtest/gtest.h>

#include "core/backtracking.hpp"
#include "core/baselines.hpp"
#include "core/exact.hpp"
#include "core/trace.hpp"
#include "net/io.hpp"
#include "sfc/io.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

#ifndef DAGSFC_CORPUS_DIR
#error "DAGSFC_CORPUS_DIR must be defined by the build"
#endif

namespace dagsfc {
namespace {

// ---------------------------------------------------------------------------
// util::TraceRecorder

TEST(TraceRecorder, LogicalClockStampsSequentially) {
  util::TraceRecorder rec;
  rec.instant("a");
  rec.instant("b", "cat");
  rec.instant("c");
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[0].ts, 0u);
  EXPECT_EQ(events[1].ts, 1u);
  EXPECT_EQ(events[1].cat, "cat");
  EXPECT_EQ(events[2].ts, 2u);
}

TEST(TraceRecorder, RingDropsOldestAndCounts) {
  util::TraceRecorder rec(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) rec.instant(std::to_string(i));
  EXPECT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.dropped(), 2u);
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "2");  // oldest surviving
  EXPECT_EQ(events[2].name, "4");
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(TraceRecorder, DisabledRecorderIgnoresEvents) {
  util::TraceRecorder rec;
  rec.set_enabled(false);
  rec.instant("dropped");
  { util::TraceSpan span(&rec, "also dropped"); }
  EXPECT_EQ(rec.size(), 0u);
  rec.set_enabled(true);
  rec.instant("kept");
  EXPECT_EQ(rec.size(), 1u);
}

TEST(TraceRecorder, SpanRecordsBeginEndPair) {
  util::TraceRecorder rec;
  {
    util::TraceSpan span(&rec, "work", "phase");
    rec.instant("inside");
  }
  { util::TraceSpan null_span(nullptr, "noop"); }  // must not crash
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[0].name, "work");
  EXPECT_EQ(events[1].name, "inside");
  EXPECT_EQ(events[2].phase, 'E');
  EXPECT_EQ(events[2].name, "work");
}

TEST(TraceRecorder, TagsPoolWorkerLanes) {
  EXPECT_EQ(ThreadPool::current_worker_id(), 0u);  // main thread
  util::TraceRecorder rec;
  ThreadPool pool(3);
  parallel_for(pool, 16, [&](std::size_t i) {
    rec.instant("task " + std::to_string(i));
  });
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 16u);
  for (const auto& e : events) {
    EXPECT_GE(e.tid, 1u);
    EXPECT_LE(e.tid, 3u);
  }
}

TEST(TraceRecorder, ChromeExportIsWellFormed) {
  util::TraceRecorder rec;
  util::TraceEvent e;
  e.name = "say \"hi\"";
  e.cat = "test";
  e.phase = 'i';
  e.num_args.emplace_back("count", 3.0);
  e.str_args.emplace_back("why", "line\nbreak");
  rec.record(std::move(e));
  rec.instant("plain");

  const std::string json = util::to_chrome_trace(rec.snapshot(), /*pid=*/7);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"say \\\"hi\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"count\":3,\"why\":\"line\\nbreak\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"pid\":7"), std::string::npos);
  // Events without a category get the "default" bucket.
  EXPECT_NE(json.find("\"cat\":\"default\""), std::string::npos);
}

TEST(TraceRecorder, GlobalRecorderInstallUninstall) {
  EXPECT_EQ(util::global_trace(), nullptr);
  auto& rec = util::install_global_trace(64);
  EXPECT_EQ(util::global_trace(), &rec);
  rec.instant("hello");
  EXPECT_EQ(rec.size(), 1u);
  util::uninstall_global_trace();
  EXPECT_EQ(util::global_trace(), nullptr);
}

#ifdef DAGSFC_TRACE
TEST(TraceRecorder, AmbientMacrosTargetGlobalRecorder) {
  auto& rec = util::install_global_trace(64);
  {
    DAGSFC_TRACE_SCOPE("scoped");
    DAGSFC_TRACE_INSTANT("instant");
  }
  const auto events = rec.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[1].name, "instant");
  EXPECT_EQ(events[2].phase, 'E');
  util::uninstall_global_trace();
}
#else
TEST(TraceRecorder, AmbientMacrosCompileToNothingWhenDisabled) {
  auto& rec = util::install_global_trace(64);
  {
    DAGSFC_TRACE_SCOPE("scoped");
    DAGSFC_TRACE_INSTANT("instant");
  }
  EXPECT_EQ(rec.size(), 0u);
  util::uninstall_global_trace();
}
#endif

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
