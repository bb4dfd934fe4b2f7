/// serve_churn — the flat serving plane under churn.
///
/// serve::EmbeddingService (default MVCC pipeline, MBBE, 2 workers) on a
/// 60-node network with tight capacities (VNF 8, link 10, as dagsfc_serve
/// runs it). Flows hold resources for an exponential virtual time, so
/// commits and releases keep invalidating the workers' replica path caches
/// and about 7% of requests are refused for capacity.

#include <memory>
#include <numeric>

#include "core/backtracking.hpp"
#include "net/ledger.hpp"
#include "serve/service.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kNodes = 60;
constexpr double kDegree = 6.0;
constexpr std::size_t kCatalog = 8;
constexpr std::size_t kSfcSize = 4;
constexpr std::size_t kPoolRequests = 8192;
constexpr std::size_t kWorkers = 2;
/// Sixteen per worker, so that ~30 requests (~8 ms of work) wait in the
/// queue: a driver thread that loses its CPU for a few ms to another
/// thread or to host steal still leaves both workers busy. Two CPU-bound
/// competitor threads cost 20% of throughput at four per worker and 8% at
/// sixteen; at two per worker the workers idled at 10% host steal (busy
/// ratio 0.92).
constexpr std::size_t kOutstanding = 16 * kWorkers;
/// Slices of the timed window: ~4,000 requests each, enough for a slice's
/// own p99.
constexpr double kSliceSeconds = 1.0;
constexpr std::uint64_t kWarmupRequests = 2000;

struct State {
  std::unique_ptr<net::Network> net;
  std::vector<FlowRequest> pool;
  std::string input_digest;
  core::MbbeEmbedder mbbe;
  std::unique_ptr<TimedEmbedder> timed;
  std::unique_ptr<serve::EmbeddingService> svc;
  std::unique_ptr<ClosedLoop<serve::EmbeddingService>> loop;
};

std::unique_ptr<State> set_up(const RunArgs& args, Record& rec) {
  auto st = std::make_unique<State>();
  NetworkSpec spec;
  spec.catalog = kCatalog;
  spec.vnf_capacity = 8.0;
  spec.link_capacity = 10.0;
  BenchRng net_rng(kSubstrateSeed);
  st->net = std::make_unique<net::Network>(priced_network(
      net_rng, random_connected_topology(net_rng, kNodes, kDegree), spec));
  BenchRng rng(args.seed ^ 0x5e7c4a11ULL);
  st->pool = request_pool(rng, kNodes, kCatalog, kSfcSize, kPoolRequests,
                          kMeanHolding, kRates);
  Digest digest;
  digest_network(digest, *st->net);
  digest_requests(digest, st->pool);
  st->input_digest = digest.hex();
  const auto t1 = Clock::now();

  const core::Embedder* embedder = &st->mbbe;
  if (args.traced) {
    st->timed = std::make_unique<TimedEmbedder>(st->mbbe);
    embedder = st->timed.get();
  }
  serve::EmbeddingService::Options opts;
  opts.workers = kWorkers;
  opts.seed = args.seed;
  opts.admission.max_retries = kMaxRetries;
  st->svc = std::make_unique<serve::EmbeddingService>(*st->net, *embedder,
                                                      opts);
  std::vector<std::size_t> all(st->pool.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  st->loop = std::make_unique<ClosedLoop<serve::EmbeddingService>>(
      *st->svc, st->pool, std::vector<std::vector<std::size_t>>{std::move(all)},
      kOutstanding, kSliceSeconds, args.traced);
  const auto t2 = Clock::now();
  st->loop->run_count(kWarmupRequests);
  report_setup(rec, args.start, t1, t2, Clock::now());
  return st;
}

/// Largest |residual - nominal| over every link and instance.
double residual_drift(const serve::EmbeddingService& svc,
                      const net::Network& net) {
  const net::CapacityLedger ledger = svc.ledger_snapshot();
  double drift = 0.0;
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    drift = std::max(drift,
                     std::abs(ledger.link_residual(e) - net.link_capacity(e)));
  }
  for (net::InstanceId i = 0; i < net.num_instances(); ++i) {
    drift = std::max(drift, std::abs(ledger.instance_residual(i) -
                                     net.instance(i).capacity));
  }
  return drift;
}

}  // namespace

Record run_serve_churn(const RunArgs& args) {
  Record rec;
  rec.workload = "serve_churn";
  rec.seed = args.seed;
  rec.traced = args.traced;
  rec.notes["network"] = "60 nodes, degree 6, catalog 8, capacities 8/10";
  rec.notes["requests"] = "SFC size 4, rates {0.3,0.7,1.0,1.3}, mean holding " +
                          std::to_string(kMeanHolding);
  rec.notes["service"] = "MVCC, MBBE, 2 workers, 32 outstanding";
  rec.notes["warmup_requests"] = std::to_string(kWarmupRequests);

  const std::unique_ptr<State> st = set_up(args, rec);
  rec.input_digest = st->input_digest;

  set_alloc_counting(args.traced);
  if (st->timed) st->timed->set_recording(true);
  const serve::MetricsSnapshot m0 = st->svc->metrics();
  const CpuTicks ticks0 = read_cpu_ticks();
  st->loop->run_window(args.seconds);
  const CpuTicks ticks1 = read_cpu_ticks();
  const serve::MetricsSnapshot m1 = st->svc->metrics();
  if (st->timed) st->timed->set_recording(false);
  set_alloc_counting(false);

  // Correctness gate: every request terminal, every flow released, and the
  // residuals back at nominal.
  st->loop->finish();
  st->loop->tally(rec);
  const serve::MetricsSnapshot mf = st->svc->metrics();
  if (mf.completed() != mf.submitted || st->svc->in_service() != 0) {
    rec.fail("requests or flows left over after the drain");
    ++rec.failed;
  }
  const double drift = residual_drift(*st->svc, *st->net);
  rec.notes["residual_drift"] = std::to_string(drift);
  rec.notes["conflicts_per_request_0_1_2_3_4plus"] =
      st->loop->conflict_histogram();
  if (drift > 1e-9) {
    rec.fail("residuals off nominal by " + std::to_string(drift));
    ++rec.failed;
  }
  if (args.setup_only()) return rec;

  const Window& w = st->loop->window();
  report_window(rec, w);
  report_run(rec, ticks0, ticks1);

  if (args.traced) {
    const TimedEmbedder::Totals t = st->timed->totals();
    const auto ops = static_cast<double>(w.ops);
    report_window_layers(rec, w, "serve", kWorkers);
    rec.set("core.mbbe.solve_ms_p50", t.solve_ms.percentile(50), "ms",
            t.solve_ms.count());
    rec.set("core.mbbe.solve_ms_p99", t.solve_ms.percentile(99), "ms",
            t.solve_ms.count());
    rec.set("core.mbbe.refusal_solve_ms_p50", t.refusal_ms.percentile(50),
            "ms", t.refusal_ms.count());
    const double solve_ms = t.solve_ms.sum() + t.refusal_ms.sum();
    rec.set("serve.commit_ms_mean", ratio(w.service_ms.sum() - solve_ms, ops),
            "ms", w.ops);
    rec.set("serve.solves_per_request",
            ratio(static_cast<double>(w.solves), ops), "count", w.ops);
    const std::uint64_t completed = m1.completed() - m0.completed();
    rec.set("serve.conflict_rate",
            ratio(static_cast<double>(m1.commit_conflicts - m0.commit_conflicts),
                  static_cast<double>(completed)),
            "ratio", completed);
    report_commit_classes(rec, "serve", m1.fast_commits - m0.fast_commits,
                          m1.stamp_commits - m0.stamp_commits,
                          m1.validated_commits - m0.validated_commits);
    const std::uint64_t batches =
        m1.group_commit_batch.count() - m0.group_commit_batch.count();
    rec.set("serve.group_commit_batch_mean",
            ratio(m1.group_commit_batch.sum() - m0.group_commit_batch.sum(),
                  static_cast<double>(batches)),
            "count", batches);
    rec.set("serve.submit_us_p50", w.submit_us.percentile(50), "us",
            w.submit_us.count());
    rec.set("serve.submit_us_p99", w.submit_us.percentile(99), "us",
            w.submit_us.count());
    rec.set("graph.path_cache_hit_ratio", t.queries.hit_rate(), "ratio",
            t.queries.cache_hits + t.queries.cache_misses);
    rec.set("graph.dijkstra_per_request",
            ratio(static_cast<double>(t.queries.dijkstra_calls), ops), "count",
            w.ops);
    rec.set("core.mbbe.allocs_per_request",
            ratio(static_cast<double>(t.allocs), ops), "count", w.ops);
  }
  return rec;
}

}  // namespace perfbench
