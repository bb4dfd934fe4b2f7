/// regional_hier — the sharded serving plane on a regional substrate.
///
/// shard::ShardedEmbeddingService (HIER: stage-one region paths, then the
/// inner MBBE on a composed snapshot, per-shard try_commit) over a
/// 1,200-node substrate of three 400-node Waxman regions, one worker per
/// shard. Requests follow serve_churn's recipe. Each request costs ~10 ms of
/// MBBE on a large restricted view, so solving dominates and commit is a
/// small share: the opposite split to serve_churn.
///
/// Held out of BENCHMARK.json: with these rates the sharded plane aborts
/// within seconds (README.md, "Known defect"), so a run fails.

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "serve/trace.hpp"
#include "serving.hpp"
#include "shard/partition.hpp"
#include "shard/service.hpp"
#include "shard/substrate.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace util = dagsfc::util;
namespace shard = dagsfc::shard;

namespace {

constexpr std::size_t kRegions = 3;
constexpr std::size_t kNodesPerRegion = 400;
constexpr double kWaxmanAlpha = 0.4;
constexpr double kWaxmanBeta = 0.2;
constexpr std::size_t kCatalog = 8;
constexpr std::size_t kSfcSize = 4;
constexpr std::size_t kPoolRequests = 8192;
/// Requests kept in flight per home shard (each shard has one worker).
constexpr std::size_t kPerShardOutstanding = 4;
constexpr std::uint64_t kWarmupRequests = 300;
/// Slices of the timed window: ~1,000 requests each at ~200/s, enough for
/// a slice's own p99.
constexpr double kSliceSeconds = 5.0;
/// Span ring per worker lane: enough for every span of a traced window.
constexpr std::size_t kRingCapacity = 1 << 16;

struct State {
  std::unique_ptr<net::Network> net;
  std::vector<std::uint32_t> region_of;
  std::vector<FlowRequest> pool;
  std::string input_digest;
  std::unique_ptr<shard::ShardedSubstrate> substrate;
  double substrate_build_ms = 0.0;
  std::unique_ptr<shard::ShardedEmbeddingService> svc;
  std::unique_ptr<ClosedLoop<shard::ShardedEmbeddingService>> loop;
};

std::unique_ptr<State> set_up(const RunArgs& args, Record& rec) {
  auto st = std::make_unique<State>();
  NetworkSpec spec;
  spec.catalog = kCatalog;
  spec.vnf_capacity = 6.0;
  spec.link_capacity = 8.0;
  BenchRng net_rng(kSubstrateSeed);
  RegionalTopology topo = regional_waxman_topology(
      net_rng, kRegions, kNodesPerRegion, kWaxmanAlpha, kWaxmanBeta);
  st->region_of = std::move(topo.region_of);
  st->net = std::make_unique<net::Network>(
      priced_network(net_rng, std::move(topo.graph), spec, &st->region_of));
  BenchRng rng(args.seed ^ 0x4e610a1ULL);
  st->pool = request_pool(rng, st->net->num_nodes(), kCatalog, kSfcSize,
                          kPoolRequests, kMeanHolding, kRates);
  Digest digest;
  digest_network(digest, *st->net);
  for (const std::uint32_t r : st->region_of) digest.add_u64(r);
  digest_requests(digest, st->pool);
  st->input_digest = digest.hex();
  const auto t1 = Clock::now();

  st->substrate = std::make_unique<shard::ShardedSubstrate>(
      *st->net,
      shard::make_partition(st->net->topology(), kRegions,
                            shard::PartitionScheme::kLabels, st->region_of));
  st->substrate_build_ms = ms_since(t1);
  shard::ShardedEmbeddingService::Options opts;
  opts.workers_per_shard = 1;
  opts.seed = args.seed;
  opts.admission.max_retries = kMaxRetries;
  opts.tracing.enabled = args.traced;
  opts.tracing.ring_capacity = kRingCapacity;
  st->svc = std::make_unique<shard::ShardedEmbeddingService>(*st->substrate,
                                                             opts);
  std::vector<std::vector<std::size_t>> by_home(kRegions);
  for (std::size_t i = 0; i < st->pool.size(); ++i) {
    by_home[st->region_of[st->pool[i].flow.source]].push_back(i);
  }
  st->loop = std::make_unique<ClosedLoop<shard::ShardedEmbeddingService>>(
      *st->svc, st->pool, std::move(by_home), kPerShardOutstanding,
      kSliceSeconds, args.traced);
  const auto t2 = Clock::now();
  st->loop->run_count(kWarmupRequests);
  report_setup(rec, args.start, t1, t2, Clock::now());
  return st;
}

}  // namespace

Record run_regional_hier(const RunArgs& args) {
  Record rec;
  rec.workload = "regional_hier";
  rec.seed = args.seed;
  rec.traced = args.traced;
  rec.notes["substrate"] =
      "3 x 400-node Waxman regions (alpha 0.4, beta 0.2), capacities 6/8";
  rec.notes["requests"] = "SFC size 4, rates {0.3,0.7,1.0,1.3}, mean holding " +
                          std::to_string(kMeanHolding);
  rec.notes["service"] = "HIER (4 region paths, inner MBBE), 3 shards x 1 "
                         "worker, 4 outstanding per shard";
  rec.notes["warmup_requests"] = std::to_string(kWarmupRequests);

  const std::unique_ptr<State> st = set_up(args, rec);
  rec.input_digest = st->input_digest;

  const shard::ShardMetricsSnapshot m0 = st->svc->metrics();
  const CpuTicks ticks0 = read_cpu_ticks();
  st->loop->run_window(args.seconds);
  const CpuTicks ticks1 = read_cpu_ticks();
  const shard::ShardMetricsSnapshot m1 = st->svc->metrics();

  // Correctness gate: every request terminal, every flow released, and each
  // shard's residuals back at nominal.
  st->loop->finish();
  st->loop->tally(rec);
  const shard::ShardMetricsSnapshot mf = st->svc->metrics();
  if (mf.completed() != mf.submitted || st->svc->in_service() != 0) {
    rec.fail("requests or flows left over after the drain");
    ++rec.failed;
  }
  double drift = 0.0;
  for (shard::RegionId r = 0; r < kRegions; ++r) {
    double shard_drift = 0.0;
    for (const graph::EdgeId e : st->substrate->links_owned_by(r)) {
      shard_drift = std::max(shard_drift,
                             std::abs(st->svc->ledger().link_residual(e) -
                                      st->net->link_capacity(e)));
    }
    for (const net::InstanceId i : st->substrate->instances_owned_by(r)) {
      shard_drift = std::max(shard_drift,
                             std::abs(st->svc->ledger().instance_residual(i) -
                                      st->net->instance(i).capacity));
    }
    if (shard_drift > 1e-9) {
      rec.fail("shard " + std::to_string(r) + " residuals off nominal by " +
               std::to_string(shard_drift));
      ++rec.failed;
    }
    drift = std::max(drift, shard_drift);
  }
  rec.notes["residual_drift"] = std::to_string(drift);
  rec.notes["conflicts_per_request_0_1_2_3_4plus"] =
      st->loop->conflict_histogram();
  if (args.setup_only()) return rec;

  const Window& w = st->loop->window();
  report_window(rec, w);
  report_run(rec, ticks0, ticks1);

  if (args.traced) {
    report_window_layers(rec, w, "shard", kRegions);
    rec.set("shard.substrate_build_ms", st->substrate_build_ms, "ms", 1);
    rec.set("shard.service_ms_p50", w.service_ms.percentile(50), "ms", w.ops);
    rec.set("shard.service_ms_p99", w.service_ms.percentile(99), "ms", w.ops);

    // The service's own solve / commit spans of the window's requests.
    const std::unordered_set<serve::RequestId> ids(w.ids.begin(), w.ids.end());
    Samples solve_ms, commit_ms;
    std::unordered_map<serve::RequestId, std::uint16_t> attempts;
    const util::SpanRecorder& spans = *st->svc->span_recorder();
    std::uint64_t dropped = 0;
    for (std::size_t lane = 0; lane < spans.num_lanes(); ++lane) {
      dropped += spans.dropped(lane);
    }
    for (const util::SpanRecord& s : spans.collect()) {
      if (ids.count(s.trace_id) == 0) continue;
      const double ms = static_cast<double>(s.t1_ns - s.t0_ns) / 1e6;
      if (s.kind == static_cast<std::uint8_t>(serve::SpanKind::kSolve)) {
        solve_ms.add(ms);
        std::uint16_t& a = attempts[s.trace_id];
        a = std::max<std::uint16_t>(a, s.attempt + 1);
      } else if (s.kind == static_cast<std::uint8_t>(serve::SpanKind::kCommit)) {
        commit_ms.add(ms);
      }
    }
    rec.notes["spans_dropped"] = std::to_string(dropped);
    if (dropped > 0) rec.fail("span ring overwrote records of the window");
    rec.set("shard.solve_ms_p50", solve_ms.percentile(50), "ms",
            solve_ms.count());
    rec.set("shard.solve_ms_p99", solve_ms.percentile(99), "ms",
            solve_ms.count());
    rec.set("shard.commit_ms_p50", commit_ms.percentile(50), "ms",
            commit_ms.count());
    rec.set("shard.commit_ms_p99", commit_ms.percentile(99), "ms",
            commit_ms.count());
    double attempt_sum = 0.0;
    for (const auto& [id, n] : attempts) attempt_sum += n;
    rec.set("shard.attempts_per_request",
            ratio(attempt_sum, static_cast<double>(attempts.size())), "count",
            attempts.size());

    const std::uint64_t submitted = m1.submitted - m0.submitted;
    rec.set("shard.cross_region_ratio",
            ratio(static_cast<double>(m1.cross_region_requests -
                                      m0.cross_region_requests),
                  static_cast<double>(submitted)),
            "ratio", submitted);
    const std::uint64_t completed = m1.completed() - m0.completed();
    rec.set("shard.conflict_rate",
            ratio(static_cast<double>(m1.total_conflicts() -
                                      m0.total_conflicts()),
                  static_cast<double>(completed)),
            "ratio", completed);
    report_commit_classes(rec, "shard", m1.fast_commits - m0.fast_commits,
                          m1.stamp_commits - m0.stamp_commits,
                          m1.validated_commits - m0.validated_commits);
  }
  return rec;
}

}  // namespace perfbench
