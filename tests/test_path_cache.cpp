/// Tests for the footprint-invalidated shortest-path cache: PathCache unit
/// behavior (flip-gated eviction through the on_link_* hooks), ledger
/// integration, the differential harness required by the cache's core
/// contract — every embedder, solving through the cache, reproduces the
/// golden rows recorded with the cache off through the seed kernels, across
/// the serialized corpus and 200 random seeded instances — the resumable
/// tree entries (graph::LazyTree): partial searches resumed in any order,
/// across residual changes, answer like a fresh full one-shot search — and
/// the live PathOracle battery: every query kind on one long-lived ledger
/// under random debits and credits equals the seed kernels run from
/// scratch.

#include <gtest/gtest.h>

#include <bit>

#include "core/backtracking.hpp"
#include "core/path_oracle.hpp"
#include "graph/generator.hpp"
#include "graph/path_cache.hpp"
#include "graph/reference.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"

#ifndef DAGSFC_CORPUS_DIR
#error "DAGSFC_CORPUS_DIR must be defined by the build"
#endif

namespace dagsfc {
namespace {

using test::expect_identical;
using test::expect_same_opt_path;
using test::expect_same_path;

graph::Graph diamond() {
  graph::Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 2.0);
  g.add_edge(2, 3, 2.0);
  return g;
}

// ---------------------------------------------------------------------------
// PathCache unit behavior

/// The cache's context convention: a rate's count in the ledger's residual
/// units. The hooks take residuals in the same units.
std::uint64_t ctx(double rate) {
  return net::CapacityLedger::rate_context(rate);
}
std::int64_t units(double residual) {
  return static_cast<std::int64_t>(ctx(residual));
}

TEST(PathCache, TreeHitsOnRepeatAndSurvivesNonFlipDebits) {
  const graph::Graph g = diamond();
  graph::PathCache cache;
  graph::PathQueryCounters c;

  const auto t1 = cache.tree(g, 0, ctx(1.0), {}, c);
  EXPECT_EQ(c.cache_misses, 1u);
  EXPECT_EQ(c.dijkstra_calls, 1u);
  const auto t2 = cache.tree(g, 0, ctx(1.0), {}, c);
  EXPECT_EQ(c.cache_hits, 1u);
  EXPECT_EQ(c.dijkstra_calls, 1u);  // served from cache, not recomputed
  EXPECT_EQ(t1.get(), t2.get());    // same shared entry

  // A debit that leaves the edge usable at rate 1.0 is not a flip: the
  // usable-edge set — and therefore every cached result — is unchanged.
  cache.on_link_debit(0, 0, 1, units(10.0), units(5.0));
  (void)cache.tree(g, 0, ctx(1.0), {}, c);
  EXPECT_EQ(c.cache_hits, 2u);
  EXPECT_EQ(cache.invalidation_stats().flips, 0u);
  EXPECT_EQ(cache.invalidation_stats().trees_evicted, 0u);

  // Draining edge 0 below the rate flips it unusable; the tree from node 0
  // carries edge 0 in its parent footprint, so it must go.
  cache.on_link_debit(0, 0, 1, units(5.0), units(0.5));
  EXPECT_EQ(cache.invalidation_stats().flips, 1u);
  EXPECT_EQ(cache.invalidation_stats().trees_evicted, 1u);
  const auto t3 = cache.tree(g, 0, ctx(1.0), {}, c);
  EXPECT_EQ(c.cache_misses, 2u);
  EXPECT_NE(t1.get(), t3.get());
  EXPECT_EQ(t1->dist[3], 2.0);  // held entry stays valid after eviction
}

TEST(PathCache, DebitFlipSparesTreesOutsideTheFootprint) {
  const graph::Graph g = diamond();
  graph::PathCache cache;
  graph::PathQueryCounters c;
  (void)cache.tree(g, 0, ctx(1.0), {}, c);  // parent edges {0, 1, 2}
  (void)cache.tree(g, 2, ctx(1.0), {}, c);  // parent edges {0, 2, 3}
  ASSERT_EQ(cache.num_trees(), 2u);

  // Edge 1 (1–3) flips unusable: only the tree from node 0 routes through
  // it, so the tree from node 2 survives and keeps hitting.
  cache.on_link_debit(1, 1, 3, units(1.0), units(0.0));
  EXPECT_EQ(cache.invalidation_stats().trees_evicted, 1u);
  EXPECT_EQ(cache.num_trees(), 1u);
  (void)cache.tree(g, 2, ctx(1.0), {}, c);
  EXPECT_EQ(c.cache_hits, 1u);
  (void)cache.tree(g, 0, ctx(1.0), {}, c);
  EXPECT_EQ(c.cache_misses, 3u);
}

TEST(PathCache, ContextSeparatesEntriesAndFlipsAreRateScoped) {
  const graph::Graph g = diamond();
  graph::PathCache cache;
  graph::PathQueryCounters c;
  (void)cache.tree(g, 0, ctx(1.0), {}, c);
  (void)cache.tree(g, 0, ctx(2.0), {}, c);
  EXPECT_EQ(c.cache_misses, 2u);  // different rates never share
  EXPECT_EQ(cache.num_trees(), 2u);

  // 2.5 → 1.5 flips edge 0 at rate 2.0 only; the rate-1.0 entry survives.
  cache.on_link_debit(0, 0, 1, units(2.5), units(1.5));
  EXPECT_EQ(cache.invalidation_stats().flips, 1u);
  EXPECT_EQ(cache.num_trees(), 1u);
  (void)cache.tree(g, 0, ctx(1.0), {}, c);
  EXPECT_EQ(c.cache_hits, 1u);
}

TEST(PathCache, KPathsCachedPerEndpointAndK) {
  const graph::Graph g = diamond();
  graph::PathCache cache;
  graph::PathQueryCounters c;
  graph::SearchWorkspace ws;
  const auto p1 = cache.k_paths(g, 0, 3, 2, ctx(1.0), nullptr, ws, c);
  ASSERT_EQ(p1->size(), 2u);
  EXPECT_EQ(c.yen_calls, 1u);
  (void)cache.k_paths(g, 0, 3, 2, ctx(1.0), nullptr, ws, c);
  EXPECT_EQ(c.cache_hits, 1u);
  EXPECT_EQ(c.yen_calls, 1u);
  // Different k ⇒ miss.
  (void)cache.k_paths(g, 0, 3, 3, ctx(1.0), nullptr, ws, c);
  EXPECT_EQ(c.yen_calls, 2u);
}

TEST(PathCache, DebitFlipEvictsAllKPathListsAtThatRate) {
  const graph::Graph g = diamond();
  graph::PathCache cache;
  graph::PathQueryCounters c;
  graph::SearchWorkspace ws;
  (void)cache.k_paths(g, 0, 3, 2, ctx(1.0), nullptr, ws, c);
  // Yen entries are evicted wholesale on a flip even when their paths avoid
  // the edge: a vanished edge can unmask equal-cost candidates, so keeping
  // "non-intersecting" lists would not be bit-exact.
  cache.on_link_debit(3, 2, 3, units(1.0), units(0.0));
  EXPECT_EQ(cache.invalidation_stats().yens_evicted, 1u);
  EXPECT_EQ(cache.num_k_paths(), 0u);
  // A non-flip debit, by contrast, spares them.
  (void)cache.k_paths(g, 0, 3, 2, ctx(1.0), nullptr, ws, c);
  cache.on_link_debit(3, 2, 3, units(10.0), units(5.0));
  EXPECT_EQ(cache.num_k_paths(), 1u);
}

TEST(PathCache, CreditFlipEvictsEverythingAtThatRate) {
  const graph::Graph g = diamond();
  graph::PathCache cache;
  graph::PathQueryCounters c;
  graph::SearchWorkspace ws;
  (void)cache.tree(g, 0, ctx(1.0), {}, c);
  (void)cache.k_paths(g, 0, 3, 2, ctx(1.0), nullptr, ws, c);

  // A credit that keeps the edge unusable flips nothing.
  cache.on_link_credit(0, units(0.2), units(0.6));
  EXPECT_EQ(cache.invalidation_stats().flips, 0u);
  EXPECT_EQ(cache.num_trees(), 1u);
  EXPECT_EQ(cache.num_k_paths(), 1u);

  // Flipping an edge usable can improve paths anywhere — every rate-1.0
  // entry goes, footprints notwithstanding.
  cache.on_link_credit(0, units(0.6), units(2.0));
  EXPECT_EQ(cache.invalidation_stats().flips, 1u);
  EXPECT_EQ(cache.num_trees(), 0u);
  EXPECT_EQ(cache.num_k_paths(), 0u);
}

TEST(PathCache, EvictsEverythingWhenFull) {
  const graph::Graph g = diamond();
  graph::PathCache cache(/*max_entries=*/2);
  graph::PathQueryCounters c;
  (void)cache.tree(g, 0, ctx(1.0), {}, c);
  (void)cache.tree(g, 1, ctx(1.0), {}, c);
  EXPECT_EQ(cache.num_trees(), 2u);
  // All entries are current under event invalidation, so a full store is
  // simply wiped to make room.
  (void)cache.tree(g, 2, ctx(1.0), {}, c);
  EXPECT_EQ(c.evictions, 2u);
  EXPECT_EQ(cache.num_trees(), 1u);
  // A held entry stays valid across eviction of its cache slot.
  const auto held = cache.tree(g, 1, ctx(1.0), {}, c);
  (void)cache.tree(g, 3, ctx(1.0), {}, c);
  EXPECT_EQ(c.evictions, 4u);
  EXPECT_EQ(held->source, 1u);
  EXPECT_EQ(held->dist[0], 1.0);
}

TEST(PathCache, CountersAggregateAndReportHitRate) {
  graph::PathQueryCounters a{10, 2, 5, 3, 6, 4, 1};
  graph::PathQueryCounters b{1, 1, 2, 1, 2, 0, 0};
  a += b;
  EXPECT_EQ(a.dijkstra_calls, 11u);
  EXPECT_EQ(a.yen_calls, 3u);
  EXPECT_EQ(a.bfs_calls, 7u);
  EXPECT_EQ(a.steiner_calls, 4u);
  EXPECT_EQ(a.cache_hits, 8u);
  EXPECT_EQ(a.cache_misses, 4u);
  EXPECT_EQ(a.evictions, 1u);
  EXPECT_DOUBLE_EQ(a.hit_rate(), 8.0 / 12.0);
  EXPECT_DOUBLE_EQ(graph::PathQueryCounters{}.hit_rate(), 0.0);
}

// ---------------------------------------------------------------------------
// Differential harness: every embedder, solving through the cache, must
// reproduce the rows the seed kernels recorded with the cache off.

class CorpusDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(CorpusDifferential, CacheOnOffIdentical) {
  const test::CorpusInstance inst(DAGSFC_CORPUS_DIR, GetParam());
  test::expect_golden_solves(*inst.index, /*seed=*/1,
                             std::string("corpus_") + GetParam());
}

INSTANTIATE_TEST_SUITE_P(Instances, CorpusDifferential,
                         ::testing::Values("ring12", "leafspine14", "waxman20",
                                           "tightline5"),
                         [](const auto& param_info) {
                           return param_info.param;
                         });

TEST(PathCacheDifferential, TwoHundredRandomInstances) {
  sim::ExperimentConfig cfg;
  cfg.network_size = 14;
  cfg.network_connectivity = 3.0;
  cfg.catalog_size = 6;
  cfg.sfc_size = 3;

  graph::PathQueryCounters on_tally;
  Rng seeder(0xd1ffe7e57ull);
  for (int i = 0; i < 200; ++i) {
    SCOPED_TRACE("instance " + std::to_string(i));
    Rng rng(seeder.fork_seed());
    const sim::Scenario scenario = sim::make_scenario(rng, cfg);
    const sfc::DagSfc dag =
        sim::make_sfc(rng, scenario.network.catalog(), cfg);
    core::EmbeddingProblem problem;
    problem.network = &scenario.network;
    problem.sfc = &dag;
    problem.flow = core::Flow{scenario.source, scenario.destination, 1.0, 1.0};
    const core::ModelIndex index(problem);
    char tag[16];
    std::snprintf(tag, sizeof tag, "pathcache_%03d", i);
    test::expect_golden_solves(index, /*seed=*/1000 + i, tag, &on_tally);
    if (::testing::Test::HasFailure()) break;  // one instance is enough
  }
  // The equivalence above must not be vacuous: the cached arm has to have
  // actually reused entries somewhere across the 200 instances.
  EXPECT_GT(on_tally.cache_hits, 0u);
}

// ---------------------------------------------------------------------------
// Ledger integration

TEST(LedgerPathCache, CacheSurvivesNonFlipDebitsAndEvictsOnFlips) {
  auto fx = test::canonical_fixture();
  net::CapacityLedger ledger(fx->network);
  const core::MbbeEmbedder mbbe;
  Rng rng(1);

  const auto first = mbbe.solve(*fx->index, ledger, rng);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first.path_queries.cache_misses, 0u);

  // Same ledger, unchanged residuals: the second solve reuses everything.
  const auto second = mbbe.solve(*fx->index, ledger, rng);
  EXPECT_EQ(second.path_queries.cache_misses, 0u);
  EXPECT_GT(second.path_queries.cache_hits, 0u);
  expect_identical(second, first);

  // A debit that keeps link 0 usable at the flow rate (100 → 99, rate 1)
  // flips nothing: cached routes stay live across the mutation. The
  // epoch-keyed design this replaces dropped the whole cache here.
  ledger.consume_link(0, 1.0);
  const auto third = mbbe.solve(*fx->index, ledger, rng);
  EXPECT_EQ(third.path_queries.cache_misses, 0u);
  EXPECT_GT(third.path_queries.cache_hits, 0u);
  expect_identical(third, first);

  // Draining the link below the rate is a flip: affected entries go and
  // the next solve recomputes.
  ledger.consume_link(0, 98.5);
  const auto fourth = mbbe.solve(*fx->index, ledger, rng);
  EXPECT_GT(fourth.path_queries.cache_misses, 0u);
}

/// The MVCC-replica scenario: one long-lived ledger's cache survives a
/// random stream of committed footprints (applies) and departures
/// (unapplies) between solves. After every mutation batch the next solve
/// must be bit-identical to a solve on a cold copy over the same residuals
/// — proving the event-driven invalidation evicted everything a mutation
/// could have affected (soundness) while whatever survived is still valid.
TEST(LedgerPathCache, InvalidationDifferentialAcrossCommitsAndDepartures) {
  sim::ExperimentConfig cfg;
  cfg.network_size = 16;
  cfg.network_connectivity = 3.0;
  cfg.catalog_size = 6;
  cfg.sfc_size = 3;
  cfg.vnf_capacity = 6.0;
  cfg.link_capacity = 4.0;  // small: commits actually flip link usability
  Rng rng(0xcafe);
  const sim::Scenario scenario = sim::make_scenario(rng, cfg);

  net::CapacityLedger live(scenario.network);  // its cache is never reset
  const core::MbbeEmbedder mbbe;

  struct Committed {
    core::ResourceUsage usage;
    double rate = 0.0;
  };
  std::vector<Committed> in_service;
  std::uint64_t total_hits = 0;

  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const sfc::DagSfc dag =
        sim::make_sfc(rng, scenario.network.catalog(), cfg);
    auto src = static_cast<graph::NodeId>(rng.index(cfg.network_size));
    auto dst = static_cast<graph::NodeId>(rng.index(cfg.network_size));
    if (dst == src) {
      dst = static_cast<graph::NodeId>((dst + 1) % cfg.network_size);
    }
    core::EmbeddingProblem problem;
    problem.network = &scenario.network;
    problem.sfc = &dag;
    problem.flow = core::Flow{src, dst, 1.0, 1.0};
    const core::ModelIndex index(problem);

    // Reference arm: identical residuals, copied from the live ledger.
    // Copies never share a cache, so this one starts cold and the only
    // thing under test is whether the survivors in the live cache are stale.
    const net::CapacityLedger fresh(live);

    Rng on_rng(7000 + round);
    Rng off_rng(7000 + round);
    const auto on = mbbe.solve(index, live, on_rng);
    const auto off = mbbe.solve(index, fresh, off_rng);
    expect_identical(on, off);
    if (::testing::Test::HasFailure()) break;
    total_hits += on.path_queries.cache_hits;

    if (on.ok()) {
      // Commit: debits fire the footprint-scoped eviction hooks.
      core::ResourceUsage usage = core::Evaluator(index).usage(*on.solution);
      live.apply(usage.link_uses, usage.instance_uses, 1.0);
      in_service.push_back(Committed{std::move(usage), 1.0});
    }
    if (in_service.size() > 4) {
      // Departure: credits flip links back to usable; the conservative
      // credit eviction must keep the survivors coherent too.
      const std::size_t pick = rng.index(in_service.size());
      const Committed gone = in_service[pick];
      in_service[pick] = in_service.back();
      in_service.pop_back();
      live.unapply(gone.usage.link_uses, gone.usage.instance_uses, gone.rate);
    }
  }
  // Not vacuous: entries must actually have survived mutations and been
  // reused across rounds.
  EXPECT_GT(total_hits, 0u);
}

TEST(LedgerPathCache, CachingReducesDijkstraComputations) {
  sim::ExperimentConfig cfg;
  cfg.network_size = 50;
  cfg.catalog_size = 6;
  cfg.sfc_size = 4;
  Rng rng(99);
  const sim::Scenario scenario = sim::make_scenario(rng, cfg);
  const sfc::DagSfc dag = sim::make_sfc(rng, scenario.network.catalog(), cfg);
  core::EmbeddingProblem problem;
  problem.network = &scenario.network;
  problem.sfc = &dag;
  problem.flow = core::Flow{scenario.source, scenario.destination, 1.0, 1.0};
  const core::ModelIndex index(problem);

  const core::MbbeEmbedder mbbe;
  net::CapacityLedger ledger(scenario.network);
  Rng solve_rng(1);
  const auto r = mbbe.solve(index, ledger, solve_rng);
  // Every query looks its entry up once, a hit or a miss; only the misses
  // start a computation.
  const graph::PathQueryCounters& q = r.path_queries;
  EXPECT_GT(q.cache_hits, 0u);
  EXPECT_LT(q.dijkstra_calls, q.cache_hits + q.cache_misses);
}

// ---------------------------------------------------------------------------
// Resumable entries: a tree entry settles only as far as its queries need
// and resumes on demand. Every answer must equal a fresh full
// dijkstra_into() search bit for bit, whatever the interleaving of queries
// and residual changes.

/// Random connected graph. Half the time the weights are coarse integers,
/// zero included, so distance ties — where the pop order alone decides
/// parents — are common.
graph::Graph random_graph(Rng& rng, std::size_t n, double degree) {
  graph::RandomGraphOptions opts;
  opts.num_nodes = n;
  opts.average_degree = degree;
  graph::Graph g = graph::random_connected_graph(rng, opts);
  const bool coarse = rng.bernoulli(0.5);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    g.set_weight(e, coarse ? static_cast<double>(rng.index(4))
                           : rng.uniform_real(1.0, 10.0));
  }
  return g;
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// \p t's answer for \p v — distance bits, nodes and edges — equals the
/// full search's in \p full. Requires v final in t.
void expect_answer(const graph::LazyTree& t, const graph::SearchWorkspace& full,
                   graph::NodeId v) {
  ASSERT_TRUE(t.is_final(v)) << "node " << v;
  EXPECT_EQ(bits(t.dist[v]), bits(full.dist(v))) << "node " << v;
  const auto got = t.path_to(v);
  const auto want = graph::extract_path(full, v);
  ASSERT_EQ(got.has_value(), want.has_value()) << "node " << v;
  if (got) expect_same_path(*got, *want);
}

/// Every node \p t reports final answers like the full search, parent
/// links included.
void expect_final_prefix(const graph::LazyTree& t,
                         const graph::SearchWorkspace& full) {
  for (graph::NodeId v = 0; v < t.dist.size(); ++v) {
    if (!t.is_final(v)) continue;
    EXPECT_EQ(bits(t.dist[v]), bits(full.dist(v))) << "node " << v;
    EXPECT_EQ(t.parent(v), full.parent(v)) << "node " << v;
    EXPECT_EQ(t.parent_edge(v), full.parent_edge(v)) << "node " << v;
  }
}

TEST(ResumableEntry, InterleavedQueriesMatchFreshDijkstra) {
  Rng rng(0x1a2e7ee5);
  graph::SearchWorkspace ws;
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::size_t n = 2 + rng.index(60);
    const graph::Graph g = random_graph(rng, n, 2.0 + rng.uniform_real(0, 4));
    // A random ~85%-permissive usable set, half the rounds.
    graph::EdgeMaskBuffer buf;
    buf.assign(g.num_edges(), true);
    const bool masked = rng.bernoulli(0.5);
    if (masked) {
      for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
        if (rng.bernoulli(0.15)) buf.clear(e);
      }
    }
    const graph::EdgeMask view = buf.view();
    const graph::EdgeMask* mask = masked ? &view : nullptr;

    const auto source = static_cast<graph::NodeId>(rng.index(n));
    graph::dijkstra_into(g, source, ws, mask);
    const graph::SearchWorkspace& full = ws;
    graph::PathCache cache;
    graph::PathQueryCounters c;
    for (int q = 0; q < 12; ++q) {
      const auto entry = cache.search(g, source, ctx(1.0), c);
      switch (rng.index(3)) {
        case 0: {  // point to point
          const auto t = static_cast<graph::NodeId>(rng.index(n));
          c.nodes_settled += entry->settle(g, t, mask);
          expect_answer(*entry, full, t);
          break;
        }
        case 1: {  // a multi-target fan-out, one target at a time
          const std::size_t k = 1 + rng.index(4);
          for (std::size_t i = 0; i < k; ++i) {
            const auto t = static_cast<graph::NodeId>(rng.index(n));
            c.nodes_settled += entry->settle(g, t, mask);
            expect_answer(*entry, full, t);
          }
          break;
        }
        default:  // the whole tree
          c.nodes_settled += entry->settle_all(g, mask);
          EXPECT_TRUE(entry->complete());
          for (graph::NodeId v = 0; v < n; ++v) expect_answer(*entry, full, v);
          break;
      }
      expect_final_prefix(*entry, full);
      if (::testing::Test::HasFailure()) return;
    }
    // One search started; every later query resumed it.
    EXPECT_EQ(c.dijkstra_calls, 1u);
    EXPECT_EQ(c.cache_misses, 1u);
    EXPECT_EQ(c.cache_hits, 11u);
    // No node is settled twice.
    std::size_t reachable = 0;
    for (graph::NodeId v = 0; v < n; ++v) reachable += full.reached(v);
    EXPECT_LE(c.nodes_settled, reachable);
  }
}

/// 0 —1— 1 —1— 2 —1— 3, plus the long way 0 —10— 3 and a spur 1 —1— 4.
graph::Graph line_with_shortcut() {
  graph::Graph g(5);
  g.add_edge(0, 1, 1.0);   // e0
  g.add_edge(1, 2, 1.0);   // e1
  g.add_edge(2, 3, 1.0);   // e2
  g.add_edge(0, 3, 10.0);  // e3
  g.add_edge(1, 4, 1.0);   // e4
  return g;
}

TEST(ResumableEntry, DebitOnATentativeParentEvicts) {
  const graph::Graph g = line_with_shortcut();
  graph::PathCache cache;
  graph::PathQueryCounters c;
  const auto entry = cache.search(g, 0, ctx(1.0), c);
  // Settling node 1 scans node 0 only: node 3 is on the frontier at 10,
  // its tentative parent edge e3.
  EXPECT_EQ(entry->settle(g, 1, nullptr), 1u);
  ASSERT_FALSE(entry->is_final(3));
  ASSERT_EQ(entry->parent_edge(3), 3u);
  ASSERT_EQ(bits(entry->dist[3]), bits(10.0));

  // e3 flips unusable: no settled node routes over it, but resuming would
  // pop node 3 at the stale 10 instead of 3 — so the entry must go.
  cache.on_link_debit(3, 0, 3, units(1.0), units(0.0));
  EXPECT_EQ(cache.invalidation_stats().trees_evicted, 1u);
  EXPECT_EQ(cache.num_trees(), 0u);
  EXPECT_TRUE(entry->invalidated());

  graph::EdgeMaskBuffer buf;
  buf.assign(g.num_edges(), true);
  buf.clear(3);
  const graph::EdgeMask mask = buf.view();
  const auto fresh = cache.search(g, 0, ctx(1.0), c);
  EXPECT_EQ(c.cache_misses, 2u);
  fresh->settle(g, 3, &mask);
  EXPECT_EQ(bits(fresh->dist[3]), bits(3.0));
}

TEST(ResumableEntry, DebitOnAScannedNonParentEdgeKeepsAndResumesExactly) {
  graph::Graph g(5);
  g.add_edge(0, 1, 1.0);  // e0
  g.add_edge(0, 2, 5.0);  // e1: relaxes node 2 to 5, later superseded
  g.add_edge(1, 2, 1.0);  // e2
  g.add_edge(2, 3, 1.0);  // e3
  g.add_edge(1, 4, 3.0);  // e4
  graph::PathCache cache;
  graph::PathQueryCounters c;
  const auto entry = cache.search(g, 0, ctx(1.0), c);
  // Nodes 0 and 1 settle; node 2 (dist 2 via e2) is next, node 4 waits.
  EXPECT_EQ(entry->settle(g, 2, nullptr), 2u);
  ASSERT_EQ(entry->parent_edge(2), 2u);

  // e1 was scanned (from node 0) but is nobody's parent: the kept entry,
  // resumed under the new usable set, is a fresh search on that set.
  cache.on_link_debit(1, 0, 2, units(1.0), units(0.0));
  EXPECT_EQ(cache.invalidation_stats().flips, 1u);
  EXPECT_EQ(cache.invalidation_stats().trees_evicted, 0u);
  EXPECT_FALSE(entry->invalidated());

  graph::EdgeMaskBuffer buf;
  buf.assign(g.num_edges(), true);
  buf.clear(1);
  const graph::EdgeMask mask = buf.view();
  graph::SearchWorkspace full;
  graph::dijkstra_into(g, 0, full, &mask);
  const auto again = cache.search(g, 0, ctx(1.0), c);
  EXPECT_EQ(again.get(), entry.get());
  again->settle(g, 3, &mask);
  expect_answer(*again, full, 3);
  again->settle_all(g, &mask);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    expect_answer(*again, full, v);
  }
  EXPECT_EQ(c.dijkstra_calls, 1u);
}

/// Random debits flip random edges under partially settled entries. Every
/// entry the footprint test keeps must resume into exactly the fresh
/// search over the shrunken usable set; every evicted one is invalidated.
TEST(ResumableEntry, KeptEntriesResumeLikeFreshSearchesAfterRandomDebits) {
  Rng rng(0xdeb175);
  graph::SearchWorkspace ws;
  std::size_t kept = 0;
  std::size_t evicted = 0;
  for (int round = 0; round < 80; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::size_t n = 4 + rng.index(40);
    const graph::Graph g = random_graph(rng, n, 2.0 + rng.uniform_real(0, 3));
    graph::EdgeMaskBuffer buf;
    buf.assign(g.num_edges(), true);
    graph::PathCache cache;
    graph::PathQueryCounters c;
    const auto source = static_cast<graph::NodeId>(rng.index(n));
    for (int step = 0; step < 6; ++step) {
      const graph::EdgeMask mask = buf.view();
      const auto entry = cache.search(g, source, ctx(1.0), c);
      entry->settle(g, static_cast<graph::NodeId>(rng.index(n)), &mask);
      const auto e = static_cast<graph::EdgeId>(rng.index(g.num_edges()));
      if (!mask.allows(e)) continue;
      buf.clear(e);
      const graph::Edge& ed = g.edge(e);
      cache.on_link_debit(e, ed.u, ed.v, units(1.0), units(0.0));
      const graph::EdgeMask after = buf.view();
      graph::dijkstra_into(g, source, ws, &after);
      const graph::SearchWorkspace& full = ws;
      if (cache.num_trees() == 1) {
        ++kept;
        EXPECT_FALSE(entry->invalidated());
        entry->settle_all(g, &after);
        for (graph::NodeId v = 0; v < n; ++v) expect_answer(*entry, full, v);
        // Start over from a partial entry for the next step.
        cache = graph::PathCache();
      } else {
        ++evicted;
        EXPECT_TRUE(entry->invalidated());
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
  // Not vacuous: both rules fired.
  EXPECT_GT(kept, 20u);
  EXPECT_GT(evicted, 20u);
}

TEST(ResumableEntry, CreditFlipEvictsTheRate) {
  const graph::Graph g = line_with_shortcut();
  graph::PathCache cache;
  graph::PathQueryCounters c;
  const auto at1 = cache.search(g, 0, ctx(1.0), c);
  const auto at2 = cache.search(g, 0, ctx(2.0), c);
  at1->settle(g, 1, nullptr);
  at2->settle(g, 1, nullptr);
  // 0.5 → 1.5 makes the edge usable at rate 1.0 but not at 2.0.
  cache.on_link_credit(4, units(0.5), units(1.5));
  EXPECT_EQ(cache.invalidation_stats().trees_evicted, 1u);
  EXPECT_TRUE(at1->invalidated());
  EXPECT_FALSE(at2->invalidated());
  EXPECT_EQ(cache.num_trees(), 1u);
}

TEST(ResumableEntry, InvalidatedHeldEntryRefusesToResume) {
  const graph::Graph g = line_with_shortcut();
  graph::PathCache cache;
  graph::PathQueryCounters c;
  const auto held = cache.search(g, 0, ctx(1.0), c);
  held->settle(g, 1, nullptr);
  cache.on_link_debit(0, 0, 1, units(1.0), units(0.0));  // e0: node 1's parent
  ASSERT_TRUE(held->invalidated());
  // What it settled stays readable; going further does not.
  EXPECT_EQ(bits(held->dist[1]), bits(1.0));
  EXPECT_EQ(held->settle(g, 1, nullptr), 0u);
  EXPECT_THROW((void)held->settle(g, 3, nullptr), ContractViolation);
  EXPECT_THROW((void)held->settle_all(g, nullptr), ContractViolation);
}

TEST(ResumableEntry, CapacityClearDoesNotInvalidate) {
  const graph::Graph g = line_with_shortcut();
  graph::PathCache cache(/*max_entries=*/1);
  graph::PathQueryCounters c;
  const auto held = cache.search(g, 0, ctx(1.0), c);
  held->settle(g, 1, nullptr);
  (void)cache.search(g, 2, ctx(1.0), c);  // make_room drops `held`
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_FALSE(held->invalidated());
  held->settle(g, 3, nullptr);
  EXPECT_EQ(bits(held->dist[3]), bits(3.0));
}

TEST(ResumableEntry, OracleCountsSearchesStartedNotResumes) {
  Rng rng(0x5e771ed);
  net::Network network(random_graph(rng, 80, 4.0), net::VnfCatalog(1));
  net::CapacityLedger ledger(network);
  core::PathOracle oracle(network.topology(), ledger, 1.0);

  for (const graph::NodeId t : {1, 5, 17, 42, 79}) {
    (void)oracle.min_cost_path(0, t);
  }
  EXPECT_EQ(oracle.counters().dijkstra_calls, 1u);
  EXPECT_EQ(oracle.counters().cache_misses, 1u);
  EXPECT_EQ(oracle.counters().cache_hits, 4u);
  const std::size_t partial = oracle.counters().nodes_settled;
  EXPECT_GT(partial, 0u);
  EXPECT_LE(partial, 80u);

  (void)oracle.tree(0);
  EXPECT_EQ(oracle.counters().dijkstra_calls, 1u);
  EXPECT_EQ(oracle.counters().nodes_settled, 80u);  // connected: all of them
  (void)oracle.tree(0);
  EXPECT_EQ(oracle.counters().nodes_settled, 80u);  // nothing left to settle
}

// ---------------------------------------------------------------------------
// Several targets from one source: one query per target, every query after
// the first a cache hit that resumes the one search.

TEST(PerTarget, SharedSourceQueriesMatchSeedAndResumeOneSearch) {
  auto fx = test::canonical_fixture();
  const graph::Graph& g = fx->network.topology();
  net::CapacityLedger ledger(fx->network);
  graph::SearchWorkspace ws;
  core::PathOracle oracle(g, ledger, 1.0, &ws);
  const graph::reference::EdgeFilter usable = [&](graph::EdgeId e) {
    return ledger.link_can_carry(e, 1.0);
  };

  const std::vector<graph::NodeId> targets{4, 2, 4, 0, 5};
  for (const graph::NodeId t : targets) {
    expect_same_opt_path(oracle.min_cost_path(0, t),
                         graph::reference::min_cost_path(g, 0, t, usable));
  }
  EXPECT_EQ(oracle.counters().dijkstra_calls, 1u);
  EXPECT_EQ(oracle.counters().cache_misses, 1u);
  EXPECT_EQ(oracle.counters().cache_hits, targets.size() - 1);
  // No node settled twice: the queries together settled at most one full
  // search's worth.
  EXPECT_LE(oracle.counters().nodes_settled, g.num_nodes());
}

// ---------------------------------------------------------------------------
// Live PathOracle battery: one long-lived ledger per graph takes random
// debit/credit batches that flip link usability at the flow rate. After
// every batch each query kind must equal the seed kernels
// (graph::reference) run from scratch over the links that can carry the
// rate — distance and cost bits, nodes and edges — whatever the cache kept,
// evicted or resumed.

/// \p got equals \p want: nodes, edges and the cost's bit pattern.
void expect_bitwise_path(const graph::Path& got, const graph::Path& want) {
  expect_same_path(got, want);
  EXPECT_EQ(bits(got.cost), bits(want.cost));
}

void expect_bitwise_opt_path(const std::optional<graph::Path>& got,
                             const std::optional<graph::Path>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (got) expect_bitwise_path(*got, *want);
}

void expect_bitwise_paths(const std::vector<graph::Path>& got,
                          const std::vector<graph::Path>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_bitwise_path(got[i], want[i]);
  }
}

/// Totals across the battery, so it can prove it was not vacuous.
struct LiveTally {
  std::size_t hits = 0;
  std::size_t resumes = 0;  ///< hits whose settle() had to settle more
  std::size_t flips = 0;
  std::size_t evictions = 0;
};

/// One round of every query kind against the seed kernels.
void check_every_query(const graph::Graph& g,
                       const net::CapacityLedger& ledger, double rate,
                       core::PathOracle& oracle, Rng& rng, LiveTally& tally) {
  const std::size_t n = g.num_nodes();
  const auto node = [&] { return static_cast<graph::NodeId>(rng.index(n)); };
  const graph::reference::EdgeFilter usable = [&](graph::EdgeId e) {
    return ledger.link_can_carry(e, rate);
  };
  // Runs one point query; a cache hit that still had to settle nodes
  // resumed a partial entry.
  const auto counting_resumes = [&](const auto& query) {
    const graph::PathQueryCounters before = oracle.counters();
    query();
    const graph::PathQueryCounters& after = oracle.counters();
    if (after.cache_hits > before.cache_hits &&
        after.nodes_settled > before.nodes_settled) {
      ++tally.resumes;
    }
  };

  for (int q = 0; q < 4; ++q) {
    const graph::NodeId a = node();
    const graph::NodeId b = node();
    SCOPED_TRACE("query " + std::to_string(a) + " -> " + std::to_string(b));
    const graph::reference::ShortestPathTree full =
        graph::reference::dijkstra(g, a, usable);

    counting_resumes([&] {
      const auto t = oracle.search(a);
      const bool reachable = oracle.settle(*t, b);
      EXPECT_EQ(reachable, full.reached(b));
      EXPECT_EQ(bits(t->dist[b]), bits(full.dist[b]));
      expect_bitwise_opt_path(t->path_to(b), full.path_to(b));
    });

    const graph::NodeId c = node();
    counting_resumes([&] {
      expect_bitwise_opt_path(
          oracle.min_cost_path(a, c),
          graph::reference::min_cost_path(g, a, c, usable));
    });

    std::vector<graph::NodeId> targets(1 + rng.index(4));
    for (graph::NodeId& v : targets) v = node();
    counting_resumes([&] {
      for (const graph::NodeId v : targets) {
        expect_bitwise_opt_path(
            oracle.min_cost_path(a, v),
            graph::reference::min_cost_path(g, a, v, usable));
      }
    });

    // Whole trees from another source, so the point queries above keep
    // meeting partial entries.
    const graph::NodeId r = node();
    const graph::reference::ShortestPathTree full_r =
        graph::reference::dijkstra(g, r, usable);
    const auto tree = oracle.tree(r);
    ASSERT_TRUE(tree->complete());
    for (graph::NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(bits(tree->dist[v]), bits(full_r.dist[v])) << "node " << v;
      EXPECT_EQ(tree->parent(v), full_r.parent[v]) << "node " << v;
      EXPECT_EQ(tree->parent_edge(v), full_r.parent_edge[v]) << "node " << v;
    }

    const std::size_t k = 1 + rng.index(4);
    expect_bitwise_paths(oracle.k_shortest(a, b, k),
                         graph::reference::k_shortest_paths(g, a, b, k,
                                                            usable));

    // A caller mask: usable links restricted to a random ~80% subset.
    std::vector<char> allow(g.num_edges());
    for (char& bit : allow) bit = rng.bernoulli(0.8) ? 1 : 0;
    const graph::reference::EdgeFilter filter = [&](graph::EdgeId e) {
      return allow[e] != 0 && usable(e);
    };
    graph::EdgeMaskBuffer allowed;
    allowed.assign(g.num_edges(), false);
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      if (filter(e)) allowed.set(e);
    }
    expect_bitwise_paths(
        oracle.k_shortest_filtered(a, b, k, allowed.view()),
        graph::reference::k_shortest_paths(g, a, b, k, filter));

    std::vector<graph::NodeId> terminals(1 + rng.index(4));
    for (graph::NodeId& v : terminals) v = node();
    const auto st = oracle.steiner(terminals);
    const auto want = graph::reference::steiner_tree(g, terminals, usable);
    ASSERT_EQ(st.has_value(), want.has_value());
    if (st) {
      EXPECT_EQ(bits(st->cost), bits(want->cost));
      EXPECT_EQ(st->edges, want->edges);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(LivePathOracle, EveryQueryMatchesTheSeedKernelsAcrossDebitsAndCredits) {
  constexpr double kRate = 1.0;
  constexpr double kCapacity = 2.0;
  Rng rng(0x11fe0ac1e);
  LiveTally tally;
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::size_t n = 8 + rng.index(40);
    net::Network network(random_graph(rng, n, 2.5 + rng.uniform_real(0, 2)),
                         net::VnfCatalog(1), kCapacity);
    const graph::Graph& g = network.topology();
    net::CapacityLedger ledger(network);
    // Long-lived, like a worker's: its usable mask follows the epoch.
    core::PathOracle oracle(g, ledger, kRate);

    for (int batch = 0; batch < 16; ++batch) {
      SCOPED_TRACE("batch " + std::to_string(batch));
      check_every_query(g, ledger, kRate, oracle, rng, tally);
      if (::testing::Test::HasFailure()) return;
      // A random mix of debits (some drain a link below the rate) and
      // credits (some bring it back).
      const std::size_t mutations = 1 + rng.index(g.num_edges() / 3 + 1);
      for (std::size_t m = 0; m < mutations; ++m) {
        const auto e = static_cast<graph::EdgeId>(rng.index(g.num_edges()));
        // Credits come from what the ledger holds, not from a sum of the
        // random amounts debited: the ledger rounds each to whole units.
        const double consumed = kCapacity - ledger.link_residual(e);
        if (consumed > 0.0 && rng.bernoulli(0.5)) {
          const double amount = rng.bernoulli(0.5)
                                    ? consumed
                                    : consumed * rng.uniform_real(0.2, 0.9);
          ledger.release_link(e, amount);
        } else if (ledger.link_residual(e) > 0.0) {
          ledger.consume_link(
              e, ledger.link_residual(e) * rng.uniform_real(0.2, 1.0));
        }
      }
    }
    const graph::InvalidationStats& inval =
        ledger.path_cache().invalidation_stats();
    tally.hits += oracle.counters().cache_hits;
    tally.flips += inval.flips;
    tally.evictions += inval.trees_evicted + inval.yens_evicted;
  }
  // Not vacuous: entries were reused, resumed, and evicted by usability
  // flips.
  EXPECT_GT(tally.hits, 0u);
  EXPECT_GT(tally.resumes, 0u);
  EXPECT_GT(tally.flips, 0u);
  EXPECT_GT(tally.evictions, 0u);
}

}  // namespace
}  // namespace dagsfc
