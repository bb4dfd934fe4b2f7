/// Shard-plane tests: partition schemes (determinism, coverage, validity),
/// substrate ownership and region-graph contraction invariants, HIER
/// solutions against the independent SolutionValidator, the hierarchy
/// bound vs the flat LAYERED optimum, closed-loop bit-determinism of the
/// per-shard metrics across worker counts, and an 8-thread cross-shard
/// commit battery over the sharded ledger (conservation after release-all).

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/backtracking.hpp"
#include "core/layered.hpp"
#include "core/validator.hpp"
#include "serve/driver.hpp"
#include "shard/hier.hpp"
#include "shard/ledger.hpp"
#include "shard/partition.hpp"
#include "shard/substrate.hpp"
#include "sim/regional.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"

namespace dagsfc {
namespace {

serve::RegionalWorkloadConfig small_workload_config(
    std::size_t regions, std::size_t nodes_per_region, std::size_t arrivals) {
  serve::RegionalWorkloadConfig cfg;
  cfg.regional.base.catalog_size = 8;
  cfg.regional.base.sfc_size = 3;
  cfg.regional.base.trials = 1;
  cfg.regional.regions.regions = regions;
  cfg.regional.regions.nodes_per_region = nodes_per_region;
  cfg.num_arrivals = arrivals;
  return cfg;
}

sim::RegionalScenario small_scenario(std::size_t regions,
                                     std::size_t nodes_per_region,
                                     std::uint64_t seed) {
  Rng rng(seed);
  auto cfg = small_workload_config(regions, nodes_per_region, 1);
  return sim::make_regional_scenario(rng, cfg.regional);
}

shard::ShardedSubstrate make_substrate(const sim::RegionalScenario& s) {
  return {s.network, shard::RegionPartition::from_labels(s.region_of)};
}

// ------------------------------------------------------------ partition --

TEST(Partition, StripeBlocksCoverEveryNodeAndValidate) {
  const graph::Graph g(10);
  const shard::RegionPartition p = shard::partition_stripe(g, 3);
  EXPECT_EQ(p.num_regions(), 3u);
  p.validate(g);
  // Node v goes to region ⌊3v/10⌋: blocks of 4, 3, 3, contiguous.
  EXPECT_EQ(p.members[0].size(), 4u);
  EXPECT_EQ(p.members[1].size(), 3u);
  EXPECT_EQ(p.members[2].size(), 3u);
  EXPECT_EQ(p.region(0), 0u);
  EXPECT_EQ(p.region(4), 1u);
  EXPECT_EQ(p.region(9), 2u);
}

TEST(Partition, StripeRegionsAreNonEmptyAndContiguousForEveryCount) {
  for (std::size_t n = 1; n <= 40; ++n) {
    const graph::Graph g(n);
    for (std::size_t k = 1; k <= n; ++k) {
      SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
      const shard::RegionPartition p = shard::partition_stripe(g, k);
      ASSERT_EQ(p.num_regions(), k);
      ASSERT_NO_THROW(p.validate(g));
      graph::NodeId next = 0;
      for (const auto& m : p.members) {
        ASSERT_FALSE(m.empty());
        EXPECT_EQ(m.front(), next);
        EXPECT_EQ(m.back(), next + m.size() - 1);  // ids in order, no gap
        EXPECT_LE(m.size(), n / k + 1);
        EXPECT_GE(m.size(), n / k);
        next = m.back() + 1;
      }
      EXPECT_EQ(next, n);
    }
  }
}

TEST(Partition, StripeDegenerateCounts) {
  const graph::Graph g(5);
  const shard::RegionPartition one = shard::partition_stripe(g, 1);
  EXPECT_EQ(one.num_regions(), 1u);
  one.validate(g);
  const shard::RegionPartition each = shard::partition_stripe(g, 5);
  EXPECT_EQ(each.num_regions(), 5u);
  each.validate(g);
}

TEST(Partition, BfsIsDeterministicCoversAndValidates) {
  Rng rng(7);
  graph::WaxmanOptions w;
  w.num_nodes = 40;
  const graph::Graph g = graph::make_waxman(rng, w);
  const shard::RegionPartition a = shard::partition_bfs(g, 4);
  const shard::RegionPartition b = shard::partition_bfs(g, 4);
  EXPECT_EQ(a.region_of, b.region_of);
  EXPECT_EQ(a.num_regions(), 4u);
  a.validate(g);
  for (const auto& members : a.members) EXPECT_FALSE(members.empty());
}

TEST(Partition, FromLabelsRoundTripsAndDispatches) {
  const graph::Graph g(6);
  const std::vector<std::uint32_t> labels{1, 0, 1, 2, 0, 2};
  const shard::RegionPartition p =
      shard::make_partition(g, 3, shard::PartitionScheme::kLabels, labels);
  p.validate(g);
  for (graph::NodeId v = 0; v < 6; ++v) EXPECT_EQ(p.region(v), labels[v]);
  EXPECT_EQ(p.members[0], (std::vector<graph::NodeId>{1, 4}));
}

TEST(Partition, SchemeNamesRoundTripAndRejectUnknown) {
  using shard::PartitionScheme;
  for (const PartitionScheme s : {PartitionScheme::kLabels,
                                  PartitionScheme::kStripe,
                                  PartitionScheme::kBfs}) {
    EXPECT_EQ(shard::partition_scheme_from_string(shard::to_string(s)), s);
  }
  EXPECT_THROW((void)shard::partition_scheme_from_string("voronoi"),
               std::invalid_argument);
}

// ------------------------------------------------- substrate / contraction --

TEST(Substrate, OwnershipRuleIsTotalAndExact) {
  const sim::RegionalScenario s = small_scenario(3, 8, 11);
  const shard::ShardedSubstrate sub = make_substrate(s);
  const net::Network& net = s.network;

  std::size_t owned_links = 0, owned_instances = 0;
  std::set<net::EdgeId> seen_links;
  for (shard::RegionId r = 0; r < sub.num_regions(); ++r) {
    for (const net::EdgeId e : sub.links_owned_by(r)) {
      EXPECT_TRUE(seen_links.insert(e).second) << "link owned twice";
      EXPECT_EQ(sub.owner_of_link(e), r);
      ++owned_links;
    }
    for (const net::InstanceId id : sub.instances_owned_by(r)) {
      EXPECT_EQ(sub.region_of_node(net.instance(id).node), r);
      ++owned_instances;
    }
  }
  EXPECT_EQ(owned_links, net.num_links());
  EXPECT_EQ(owned_instances, net.num_instances());

  for (net::EdgeId e = 0; e < net.num_links(); ++e) {
    const graph::Edge& edge = net.topology().edge(e);
    const shard::RegionId ru = sub.region_of_node(edge.u);
    const shard::RegionId rv = sub.region_of_node(edge.v);
    EXPECT_EQ(sub.is_border_link(e), ru != rv);
    EXPECT_EQ(sub.owner_of_link(e), std::min(ru, rv));
  }
}

TEST(Substrate, RegionGraphWeightsMatchTheSummaryFormula) {
  const sim::RegionalScenario s = small_scenario(4, 8, 23);
  const shard::ShardedSubstrate sub = make_substrate(s);
  const graph::Graph& rg = sub.region_graph();
  EXPECT_EQ(rg.num_nodes(), sub.num_regions());
  EXPECT_GE(rg.num_edges(), sub.num_regions() - 1);  // the connecting ring

  // Independently recompute transit prices (mean intra-region link price).
  std::vector<double> sum(sub.num_regions(), 0.0);
  std::vector<std::size_t> cnt(sub.num_regions(), 0);
  for (net::EdgeId e = 0; e < s.network.num_links(); ++e) {
    if (sub.is_border_link(e)) continue;
    const shard::RegionId r = sub.owner_of_link(e);
    sum[r] += s.network.link_price(e);
    ++cnt[r];
  }
  for (shard::RegionId r = 0; r < sub.num_regions(); ++r) {
    const double want = cnt[r] ? sum[r] / static_cast<double>(cnt[r]) : 0.0;
    EXPECT_DOUBLE_EQ(sub.transit_price(r), want);
  }

  for (graph::EdgeId arc = 0; arc < rg.num_edges(); ++arc) {
    const graph::Edge& a = rg.edge(arc);
    const auto ra = static_cast<shard::RegionId>(a.u);
    const auto rb = static_cast<shard::RegionId>(a.v);
    const auto borders = sub.border_links(ra, rb);
    ASSERT_FALSE(borders.empty());
    double min_price = std::numeric_limits<double>::infinity();
    for (const net::EdgeId e : borders) {
      min_price = std::min(min_price, s.network.link_price(e));
    }
    const double want =
        min_price + 0.5 * (sub.transit_price(ra) + sub.transit_price(rb));
    EXPECT_DOUBLE_EQ(a.weight, want);
  }
}

TEST(Substrate, RefreshSummariesTracksRepricing) {
  sim::RegionalScenario s = small_scenario(3, 8, 31);
  shard::ShardedSubstrate sub = make_substrate(s);
  const std::uint64_t epoch0 = sub.summary_epoch();
  EXPECT_EQ(epoch0, 1u);

  // Halve every border price: every arc summary must drop accordingly.
  std::vector<double> before(sub.region_graph().num_edges());
  for (graph::EdgeId arc = 0; arc < before.size(); ++arc) {
    before[arc] = sub.region_graph().edge(arc).weight;
  }
  for (net::EdgeId e = 0; e < s.network.num_links(); ++e) {
    if (sub.is_border_link(e)) {
      s.network.set_link_price(e, s.network.link_price(e) * 0.5);
    }
  }
  sub.refresh_summaries();
  EXPECT_EQ(sub.summary_epoch(), epoch0 + 1);
  for (graph::EdgeId arc = 0; arc < before.size(); ++arc) {
    EXPECT_LT(sub.region_graph().edge(arc).weight, before[arc]);
  }
}

TEST(Substrate, RegionPathsAreDeterministicAndAnchored) {
  const sim::RegionalScenario s = small_scenario(4, 8, 43);
  const shard::ShardedSubstrate sub = make_substrate(s);
  const graph::NodeId src = 0;                       // region 0
  const graph::NodeId dst = 3 * 8;                   // region 3
  graph::SearchWorkspace ws;
  const auto paths = sub.region_paths(src, dst, 4, ws);
  ASSERT_FALSE(paths.empty());
  for (const auto& p : paths) {
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(p.front(), sub.region_of_node(src));
    EXPECT_EQ(p.back(), sub.region_of_node(dst));
  }
  EXPECT_EQ(paths, sub.region_paths(src, dst, 4, ws));  // reused workspace
  // Same-region pair: the one singleton sequence.
  const auto same = sub.region_paths(1, 2, 4, ws);
  ASSERT_EQ(same.size(), 1u);
  EXPECT_EQ(same[0], std::vector<shard::RegionId>{0});
}

TEST(Substrate, FatTreeRegionsAreCoreAndPods) {
  const graph::RegionalGraph rg = graph::make_regional_fat_tree(4, 4.0);
  EXPECT_EQ(rg.num_regions, 5u);  // core cloud + 4 pods
  const shard::RegionPartition p =
      shard::RegionPartition::from_labels(rg.region_of);
  p.validate(rg.graph);
  EXPECT_EQ(p.members[0].size(), 4u);  // (k/2)^2 cores
  for (std::size_t pod = 1; pod < 5; ++pod) {
    EXPECT_EQ(p.members[pod].size(), 4u);  // k/2 agg + k/2 edge
  }
  // Border links (core<->agg) carry the price multiplier as weight.
  for (graph::EdgeId e = 0; e < rg.graph.num_edges(); ++e) {
    const graph::Edge& edge = rg.graph.edge(e);
    const bool border = rg.region_of[edge.u] != rg.region_of[edge.v];
    EXPECT_DOUBLE_EQ(edge.weight, border ? 4.0 : 1.0);
  }
}

// ------------------------------------------------------------------ HIER --

TEST(Hier, EverySolutionPassesTheIndependentValidator) {
  const sim::RegionalScenario s = small_scenario(3, 10, 57);
  const shard::ShardedSubstrate sub = make_substrate(s);
  const shard::HierarchicalEmbedder hier(sub);
  Rng rng(99);
  auto cfg = small_workload_config(3, 10, 1);

  std::size_t solved = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const sfc::DagSfc dag =
        sim::make_sfc(rng, s.network.catalog(), cfg.regional.base);
    const auto src = static_cast<graph::NodeId>(rng.index(s.network.num_nodes()));
    auto dst = static_cast<graph::NodeId>(rng.index(s.network.num_nodes()));
    if (dst == src) dst = static_cast<graph::NodeId>((dst + 1) % s.network.num_nodes());
    core::EmbeddingProblem problem;
    problem.network = &s.network;
    problem.sfc = &dag;
    problem.flow = core::Flow{src, dst, 1.0, 1.0};
    const core::ModelIndex index(problem);
    Rng solve_rng(1000 + trial);
    const core::SolveResult r = hier.solve_fresh(index, solve_rng);
    if (!r.ok()) continue;
    ++solved;
    const core::SolutionValidator validator(index);
    const net::CapacityLedger fresh(s.network);
    const auto audit = validator.check(r, fresh);
    EXPECT_TRUE(audit.ok()) << audit.to_string();
  }
  EXPECT_GE(solved, 10u) << "HIER should admit most small instances";
}

TEST(Hier, NeverBeatsTheFlatLayeredOptimum) {
  const sim::RegionalScenario s = small_scenario(3, 6, 71);
  const shard::ShardedSubstrate sub = make_substrate(s);
  shard::HierOptions opts;
  opts.inner = shard::InnerAlgorithm::kLayered;
  const shard::HierarchicalEmbedder hier(sub, opts);
  const core::LayeredEmbedder layered;
  Rng rng(5);
  auto cfg = small_workload_config(3, 6, 1);

  std::size_t compared = 0;
  for (int trial = 0; trial < 12; ++trial) {
    const sfc::DagSfc dag =
        sim::make_sfc(rng, s.network.catalog(), cfg.regional.base);
    const auto n = s.network.num_nodes();
    const auto src = static_cast<graph::NodeId>(rng.index(n));
    auto dst = static_cast<graph::NodeId>(rng.index(n));
    if (dst == src) dst = static_cast<graph::NodeId>((dst + 1) % n);
    core::EmbeddingProblem problem;
    problem.network = &s.network;
    problem.sfc = &dag;
    problem.flow = core::Flow{src, dst, 1.0, 1.0};
    const core::ModelIndex index(problem);
    Rng r1(trial), r2(trial);
    const core::SolveResult flat = layered.solve_fresh(index, r1);
    const core::SolveResult restricted = hier.solve_fresh(index, r2);
    if (!flat.ok() || !restricted.ok()) continue;
    ++compared;
    // A restricted search space cannot beat the unrestricted optimum.
    EXPECT_GE(restricted.cost, flat.cost - 1e-9);
  }
  EXPECT_GE(compared, 5u);
}

TEST(Hier, InnerAlgorithmNamesRoundTripAndRejectUnknown) {
  using shard::InnerAlgorithm;
  for (const InnerAlgorithm a : {InnerAlgorithm::kBbe, InnerAlgorithm::kMbbe,
                                 InnerAlgorithm::kLayered}) {
    EXPECT_EQ(shard::inner_algorithm_from_string(shard::to_string(a)), a);
  }
  EXPECT_THROW((void)shard::inner_algorithm_from_string("exact"),
               std::invalid_argument);
}

// ------------------------------------------------------- one-region HIER --

TEST(Hier, OneRegionReturnsTheInnerSolutionBitForBit) {
  // The flat service is the one-region case of the sharded one; this is
  // the solver half of that claim. Over a one-region substrate, stage one
  // yields the single region and the restriction zeroes nothing, so HIER
  // must return its inner embedder's solution and cost bits on the
  // 200-instance battery of test_search_flat.
  sim::ExperimentConfig cfg;
  cfg.network_size = 14;
  cfg.network_connectivity = 3.0;
  cfg.catalog_size = 6;
  cfg.sfc_size = 3;
  Rng seeder(0xf1a75ea5c4ull);
  std::size_t solved = 0;
  for (int i = 0; i < 200; ++i) {
    SCOPED_TRACE("instance " + std::to_string(i));
    Rng rng(seeder.fork_seed());
    const sim::Scenario scenario = sim::make_scenario(rng, cfg);
    const sfc::DagSfc dag = sim::make_sfc(rng, scenario.network.catalog(), cfg);
    core::EmbeddingProblem problem;
    problem.network = &scenario.network;
    problem.sfc = &dag;
    problem.flow = core::Flow{scenario.source, scenario.destination, 1.0, 1.0};
    const core::ModelIndex index(problem);
    const shard::ShardedSubstrate one(
        scenario.network,
        shard::make_partition(scenario.network.topology(), 1,
                              shard::PartitionScheme::kStripe));
    for (const shard::InnerAlgorithm inner :
         {shard::InnerAlgorithm::kBbe, shard::InnerAlgorithm::kMbbe,
          shard::InnerAlgorithm::kLayered}) {
      shard::HierOptions opts;
      opts.inner = inner;
      const shard::HierarchicalEmbedder hier(one, opts);
      Rng r1(2000 + i), r2(2000 + i);
      const core::SolveResult flat = hier.inner().solve_fresh(index, r1);
      const core::SolveResult restricted = hier.solve_fresh(index, r2);
      ASSERT_EQ(flat.ok(), restricted.ok()) << shard::to_string(inner);
      if (!flat.ok()) continue;
      ++solved;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(restricted.cost),
                std::bit_cast<std::uint64_t>(flat.cost))
          << shard::to_string(inner);
      EXPECT_EQ(test::solution_digest(*restricted.solution),
                test::solution_digest(*flat.solution))
          << shard::to_string(inner);
    }
    if (::testing::Test::HasFailure()) break;  // one instance is enough
  }
  EXPECT_GT(solved, 300u);
}

// --------------------------------------------------------------- service --

serve::EmbeddingService::Options service_options(std::size_t workers) {
  serve::EmbeddingService::Options opts;
  opts.workers = workers;
  return opts;
}

void expect_same_metrics(const serve::MetricsSnapshot& a,
                         const serve::MetricsSnapshot& b) {
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.accepted, b.accepted);
  EXPECT_EQ(a.rejected_infeasible, b.rejected_infeasible);
  EXPECT_EQ(a.rejected_queue_full, b.rejected_queue_full);
  EXPECT_EQ(a.shed_deadline, b.shed_deadline);
  EXPECT_EQ(a.lost_conflict, b.lost_conflict);
  EXPECT_EQ(a.fast_commits, b.fast_commits);
  EXPECT_EQ(a.stamp_commits, b.stamp_commits);
  EXPECT_EQ(a.validated_commits, b.validated_commits);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.releases, b.releases);
  EXPECT_EQ(a.cross_region_requests, b.cross_region_requests);
  EXPECT_TRUE(a.cost == b.cost);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t i = 0; i < a.shards.size(); ++i) {
    EXPECT_EQ(a.shards[i].commits, b.shards[i].commits)
        << "shard " << i << " commit counter diverged";
    EXPECT_EQ(a.shards[i].conflicts, b.shards[i].conflicts);
  }
}

TEST(ShardService, ClosedLoopMetricsAreBitIdenticalAcrossWorkerCounts) {
  const auto cfg = small_workload_config(3, 8, 60);
  const serve::RegionalWorkload workload =
      serve::make_regional_workload(cfg, 77);
  const shard::ShardedSubstrate substrate(
      workload.scenario.network,
      shard::RegionPartition::from_labels(workload.scenario.region_of));

  const core::MbbeEmbedder mbbe;
  serve::EmbeddingService one(substrate, mbbe, 4, service_options(1));
  serve::EmbeddingService four(substrate, mbbe, 4, service_options(4));
  const serve::DriverResult a = serve::run_closed_loop(one, workload.arrivals);
  const serve::DriverResult b =
      serve::run_closed_loop(four, workload.arrivals);
  EXPECT_TRUE(a.conserved);
  EXPECT_TRUE(b.conserved);
  EXPECT_GT(a.metrics.accepted, 0u);
  EXPECT_EQ(a.final_epoch, b.final_epoch);
  expect_same_metrics(a.metrics, b.metrics);
}

TEST(ShardService, PerShardGaugesReachThePrometheusExposition) {
  const auto cfg = small_workload_config(2, 8, 30);
  const serve::RegionalWorkload workload =
      serve::make_regional_workload(cfg, 13);
  const shard::ShardedSubstrate substrate(
      workload.scenario.network,
      shard::RegionPartition::from_labels(workload.scenario.region_of));

  const core::MbbeEmbedder mbbe;
  serve::EmbeddingService service(substrate, mbbe, 4, service_options(1));
  const serve::DriverResult r =
      serve::run_closed_loop(service, workload.arrivals);
  const std::string exposition =
      service.metrics_registry().expose_prometheus();
  EXPECT_TRUE(r.conserved);
  EXPECT_NE(exposition.find("dagsfc_serve_commits_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(exposition.find("dagsfc_serve_commits_total{shard=\"1\"}"),
            std::string::npos);
  EXPECT_NE(exposition.find("dagsfc_serve_queue_depth{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(exposition.find("dagsfc_serve_submitted_total"),
            std::string::npos);
}

TEST(ShardService, HistogramsCoverEveryResponse) {
  // The latency, solve and cost histograms of the one service, on the
  // sharded plane: every terminal response lands in latency and solve
  // time, every accepted one in cost.
  const auto cfg = small_workload_config(3, 8, 60);
  const serve::RegionalWorkload workload =
      serve::make_regional_workload(cfg, 77);
  const shard::ShardedSubstrate substrate(
      workload.scenario.network,
      shard::RegionPartition::from_labels(workload.scenario.region_of));
  const core::MbbeEmbedder mbbe;
  serve::EmbeddingService service(substrate, mbbe, 4, service_options(2));
  const serve::DriverResult r =
      serve::run_closed_loop(service, workload.arrivals);
  const serve::MetricsSnapshot& m = r.metrics;
  EXPECT_EQ(m.latency_ms.count(), m.completed());
  EXPECT_EQ(m.solve_ms.count(), m.completed());
  EXPECT_EQ(m.cost.count(), m.accepted);
  EXPECT_GT(m.cost.p50(), 0.0);
  const std::string exposition =
      service.metrics_registry().expose_prometheus();
  for (const char* family : {"dagsfc_serve_latency_ms_count",
                             "dagsfc_serve_solve_ms_count",
                             "dagsfc_serve_cost_count"}) {
    EXPECT_NE(exposition.find(family), std::string::npos) << family;
  }
}

TEST(ShardService, OpenLoopConservesAfterReleaseAll) {
  const auto cfg = small_workload_config(3, 8, 80);
  const serve::RegionalWorkload workload =
      serve::make_regional_workload(cfg, 29);
  const shard::ShardedSubstrate substrate(
      workload.scenario.network,
      shard::RegionPartition::from_labels(workload.scenario.region_of));
  const core::MbbeEmbedder mbbe;
  serve::EmbeddingService service(substrate, mbbe, 4, service_options(2));
  serve::OpenLoopConfig open;
  open.producers = 4;
  const serve::OpenLoopResult r =
      serve::run_open_loop(service, workload.arrivals, open);
  EXPECT_TRUE(r.conserved);
  EXPECT_EQ(r.metrics.completed(), 80u);
}

/// Wraps an embedder; every solve sleeps first, so the watchdog sees the
/// request in flight.
class SlowEmbedder : public core::Embedder {
 public:
  explicit SlowEmbedder(const core::Embedder& inner) : inner_(&inner) {}

  [[nodiscard]] std::string name() const override { return "slow"; }

 protected:
  [[nodiscard]] core::SolveResult do_solve(
      const core::ModelIndex& index, const net::CapacityLedger& ledger,
      Rng& rng, core::TraceSink*,
      graph::SearchWorkspace* workspace) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    return inner_->solve(index, ledger, rng, nullptr, workspace);
  }

 private:
  const core::Embedder* inner_;
};

TEST(ShardService, WatchdogFiresOncePerSlowHierRequest) {
  const sim::RegionalScenario s = small_scenario(3, 8, 11);
  const shard::ShardedSubstrate sub = make_substrate(s);
  const core::MbbeEmbedder mbbe;
  const SlowEmbedder slow(mbbe);
  serve::EmbeddingService::Options opts;
  opts.workers = 1;
  opts.slow_solve_threshold = std::chrono::milliseconds(10);
  opts.watchdog_period = std::chrono::milliseconds(1);
  serve::EmbeddingService service(sub, slow, 4, opts);

  // A cross-region request at a rate no resource carries: every stage-one
  // candidate is infeasible, so it runs one slow solve per region path.
  serve::Request req;
  req.id = 1;
  req.sfc = sfc::DagSfc({sfc::Layer{{1}}});
  req.flow = core::Flow{
      0, static_cast<graph::NodeId>(s.network.num_nodes() - 1), 1e9, 1.0};
  const serve::Response r1 = service.submit(req).get();
  EXPECT_EQ(r1.outcome, serve::Outcome::RejectedInfeasible);
  ASSERT_GE(r1.solves, 2u);
  EXPECT_TRUE(r1.watchdog_flagged);
  // The watchdog watches the request, not each solve: one warning.
  EXPECT_EQ(service.metrics().slow_solves, 1u);

  // A second slow request warns once more.
  req.id = 2;
  req.flow.rate = 1.0;
  const serve::Response r2 = service.submit(req).get();
  EXPECT_TRUE(r2.watchdog_flagged);
  EXPECT_EQ(service.metrics().slow_solves, 2u);
}

// ------------------------------------------------ non-dyadic residuals --

/// A two-region scenario whose links and VNF instances all have capacity
/// 1.0, where a few non-dyadic debits would drive a double residual a few
/// ulps below zero.
sim::RegionalScenario unit_capacity_scenario(std::uint64_t seed) {
  Rng rng(seed);
  auto cfg = small_workload_config(2, 8, 1);
  cfg.regional.base.link_capacity = 1.0;
  cfg.regional.base.vnf_capacity = 1.0;
  return sim::make_regional_scenario(rng, cfg.regional);
}

TEST(ShardLedger, ComposeCopiesAnExactlyDrainedResidual) {
  const sim::RegionalScenario s = unit_capacity_scenario(5);
  const shard::ShardedSubstrate sub = make_substrate(s);
  shard::ShardedLedger ledger(sub);
  const graph::EdgeId e = sub.links_owned_by(0).front();
  const net::InstanceId id = sub.instances_owned_by(0).front();

  core::ResourceUsage u;
  u.link_uses.assign(s.network.num_links(), 0);
  u.instance_uses.assign(s.network.num_instances(), 0);
  u.link_uses[e] = 1;
  u.instance_uses[id] = 1;
  const std::vector<shard::RegionId> regions{0};
  std::vector<std::uint64_t> epochs;
  for (const double rate : {0.3, 0.3, 0.3, 0.1}) {
    ledger.snapshot_epochs(regions, epochs);
    ASSERT_TRUE(ledger.try_commit(u, rate, regions, epochs).ok);
  }
  // In doubles 1.0 − 0.3 − 0.3 − 0.3 − 0.1 is −2.8e-17; in units it is
  // exactly zero.
  EXPECT_EQ(ledger.link_residual(e), 0.0);
  EXPECT_EQ(ledger.instance_residual(id), 0.0);

  // compose() copies the count: the view reads zero and refuses even the
  // smallest rate.
  shard::ComposedView view(sub);
  ledger.compose(regions, view);
  EXPECT_EQ(view.ledger().link_residual(e), 0.0);
  EXPECT_EQ(view.ledger().instance_residual(id), 0.0);
  EXPECT_FALSE(view.ledger().link_can_carry(e, 1e-9));
  EXPECT_FALSE(view.ledger().instance_can_process(id, 1e-9));
}

TEST(ShardLedger, IncrementalComposeMatchesAFreshViewBitwise) {
  // One long-lived view, recomposed over random region sets while random
  // commits and releases move the shards, must always equal a view built
  // from scratch: the stamp skip and the zero-on-leave rule lose nothing.
  const sim::RegionalScenario s = small_scenario(4, 6, 23);
  const shard::ShardedSubstrate sub = make_substrate(s);
  shard::ShardedLedger ledger(sub);
  shard::ComposedView view(sub);
  Rng rng(0x1c0);
  constexpr std::array<double, 3> kRates = {0.3, 0.7, 1.3};
  std::vector<std::pair<core::ResourceUsage, double>> held;
  std::vector<std::uint64_t> epochs;
  std::size_t skipped_or_partial = 0;
  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    // Mutate: commit a one- or two-region footprint, or release one.
    if (!held.empty() && rng.index(3) == 0) {
      const std::size_t k = rng.index(held.size());
      ledger.release(held[k].first, held[k].second);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      core::ResourceUsage u;
      u.link_uses.assign(s.network.num_links(), 0);
      u.instance_uses.assign(s.network.num_instances(), 0);
      u.link_uses[rng.index(s.network.num_links())] = 1;
      u.instance_uses[rng.index(s.network.num_instances())] = 1;
      const double rate = kRates[rng.index(kRates.size())];
      std::vector<shard::RegionId> all(sub.num_regions());
      std::iota(all.begin(), all.end(), shard::RegionId{0});
      ledger.snapshot_epochs(all, epochs);
      if (ledger.try_commit(u, rate, all, epochs).ok) {
        held.emplace_back(std::move(u), rate);
      }
    }
    // Recompose a random non-empty region set, both ways.
    std::vector<shard::RegionId> regions;
    for (shard::RegionId r = 0; r < sub.num_regions(); ++r) {
      if (rng.index(2) == 0) regions.push_back(r);
    }
    if (regions.empty()) regions.push_back(0);
    const std::uint64_t before = view.ledger().epoch();
    ledger.compose(regions, view);
    shard::ComposedView fresh(sub);
    ledger.compose(regions, fresh);
    if (view.ledger().epoch() - before <
        fresh.ledger().epoch()) {
      ++skipped_or_partial;  // the incremental view wrote less
    }
    ASSERT_TRUE(std::equal(view.epochs().begin(), view.epochs().end(),
                           fresh.epochs().begin(), fresh.epochs().end()));
    for (graph::EdgeId e = 0; e < s.network.num_links(); ++e) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(view.ledger().link_residual(e)),
                std::bit_cast<std::uint64_t>(fresh.ledger().link_residual(e)))
          << "link " << e;
    }
    for (net::InstanceId i = 0; i < s.network.num_instances(); ++i) {
      ASSERT_EQ(
          std::bit_cast<std::uint64_t>(view.ledger().instance_residual(i)),
          std::bit_cast<std::uint64_t>(fresh.ledger().instance_residual(i)))
          << "instance " << i;
    }
  }
  EXPECT_GT(skipped_or_partial, 100u);
  for (const auto& [u, rate] : held) ledger.release(u, rate);
  EXPECT_TRUE(ledger.residuals_nominal());
}

TEST(ShardLedger, SetResidualRejectsEveryNegativeResidual) {
  const sim::RegionalScenario s = unit_capacity_scenario(5);
  net::CapacityLedger ledger(s.network);
  ledger.set_link_residual(0, 0.0);
  ledger.set_instance_residual(0, 0.0);
  EXPECT_EQ(ledger.link_residual(0), 0.0);
  EXPECT_EQ(ledger.instance_residual(0), 0.0);
  for (const double bad : {-1e-9, -1e-300, -1.0}) {
    EXPECT_THROW(ledger.set_link_residual(0, bad), ContractViolation);
    EXPECT_THROW(ledger.set_instance_residual(0, bad), ContractViolation);
  }
  EXPECT_THROW(ledger.set_link_residual(0, 1.0 + 1e-9), ContractViolation);
  EXPECT_EQ(ledger.link_residual(0), 0.0);  // a rejected set changes nothing
  EXPECT_EQ(ledger.instance_residual(0), 0.0);
}

TEST(ShardService, NonDyadicRatesDrainToNominal) {
  // Capacities 4/3 (with 2.0 no sequence of these rates ends below zero)
  // and holding times long enough that residuals run down to the floor.
  auto cfg = small_workload_config(3, 8, 240);
  cfg.regional.base.link_capacity = 4.0;
  cfg.regional.base.vnf_capacity = 3.0;
  cfg.mean_holding_time = 20.0;
  serve::RegionalWorkload workload = serve::make_regional_workload(cfg, 41);
  constexpr std::array<double, 4> kRates = {0.3, 0.7, 1.0, 1.3};
  for (std::size_t i = 0; i < workload.arrivals.size(); ++i) {
    workload.arrivals[i].request.flow.rate = kRates[i % kRates.size()];
  }
  const shard::ShardedSubstrate substrate(
      workload.scenario.network,
      shard::RegionPartition::from_labels(workload.scenario.region_of));
  const core::MbbeEmbedder mbbe;
  serve::EmbeddingService service(substrate, mbbe, 4, service_options(2));
  const serve::DriverResult r =
      serve::run_closed_loop(service, workload.arrivals);
  EXPECT_TRUE(r.conserved);
  EXPECT_EQ(r.metrics.completed(), 240u);
  EXPECT_GT(r.metrics.accepted, 0u);
  EXPECT_GT(r.metrics.rejected_infeasible, 0u);  // capacity actually binds
}

// ---------------------------------------------------------- ledger battery --

/// 8 threads race footprints that each span two adjacent shards; every
/// accepted commit is released afterwards, and the residuals must return
/// to nominal — the cross-shard mirror of the flat MVCC battery.
TEST(ShardLedgerThreads, EightThreadCrossShardCommitBattery) {
  const sim::RegionalScenario s = small_scenario(4, 8, 101);
  const shard::ShardedSubstrate sub = make_substrate(s);
  shard::ShardedLedger ledger(sub);

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 200;
  const double rate = 1.0;

  // Per-thread footprint: one owned link from each of two adjacent
  // regions (thread t spans regions t%4 and (t+1)%4), shared across
  // threads so commits genuinely contend.
  std::vector<core::ResourceUsage> usages(kThreads);
  std::vector<std::vector<shard::RegionId>> spans(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    const auto ra = static_cast<shard::RegionId>(t % 4);
    const auto rb = static_cast<shard::RegionId>((t + 1) % 4);
    usages[t].link_uses.assign(s.network.num_links(), 0);
    usages[t].instance_uses.assign(s.network.num_instances(), 0);
    usages[t].link_uses[sub.links_owned_by(ra).front()] = 1;
    usages[t].link_uses[sub.links_owned_by(rb).front()] = 1;
    usages[t].instance_uses[sub.instances_owned_by(ra).front()] = 1;
    spans[t] = {std::min(ra, rb), std::max(ra, rb)};
  }

  std::atomic<std::uint64_t> committed{0}, conflicted{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::uint64_t> epochs;
      std::uint64_t held = 0;
      for (std::size_t i = 0; i < kIters; ++i) {
        ledger.snapshot_epochs(spans[t], epochs);
        const shard::CommitResult r =
            ledger.try_commit(usages[t], rate, spans[t], epochs);
        if (r.ok) {
          ++held;
          committed.fetch_add(1);
          EXPECT_EQ(r.touched, spans[t]);
          // Hold a few flows before releasing, to overlap lifetimes.
          if (held >= 3) {
            ledger.release(usages[t], rate);
            --held;
          }
        } else {
          conflicted.fetch_add(1);
          ASSERT_NE(r.conflict_region, shard::kInvalidRegion);
        }
      }
      while (held > 0) {
        ledger.release(usages[t], rate);
        --held;
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_GT(committed.load(), 0u);
  EXPECT_TRUE(ledger.residuals_nominal())
      << "residuals did not return to nominal after release-all "
      << "(committed " << committed.load() << ", conflicted "
      << conflicted.load() << ")";
}

}  // namespace
}  // namespace dagsfc
