#pragma once
/// \file metrics.hpp
/// Thread-safe service metrics: outcome counters, the optimistic-commit
/// accounting (fast vs stamp-validated vs residual-validated commits,
/// conflicts, retries, commit decisions), the cross-region request count,
/// queue-depth and worker-busy gauges, the slow-solve watchdog counter,
/// log-bucket latency/solve/cost histograms with p50/p95/p99 queries, and
/// the per-shard dimension — `dagsfc_serve_commits_total{shard="r"}`,
/// `dagsfc_serve_conflicts_total{shard="r"}` and the
/// `dagsfc_serve_queue_depth{shard="r"}` gauge — so /metrics shows where
/// commits land and which shard's footprints collide. A flat service is one
/// shard, "0".
///
/// The instruments live in a per-service util::MetricRegistry
/// (per-instance, so multiple services in one process never collide on
/// names) and the hot path is lock-free: counters stripe across cache
/// lines, histograms update shared atomic cells. MetricsSnapshot is
/// materialized from the registry on demand.
///
/// Everything deterministic about a run — the counters and the histogram
/// bucket counts — depends only on the multiset of recorded responses and
/// commits, not on recording order, which is what lets the closed-loop
/// driver assert bit-identical metrics across worker counts. (Histogram
/// sums are float additions and therefore order-sensitive; the closed-loop
/// driver keeps at most one request in flight, fixing the order.)

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/request.hpp"
#include "shard/ledger.hpp"
#include "util/metrics.hpp"
#include "util/stats.hpp"

namespace dagsfc::serve {

struct ShardStatsSnapshot {
  std::uint64_t commits = 0;    ///< footprint writes into this shard
  std::uint64_t conflicts = 0;  ///< footprints this shard rejected
  double queue_depth = 0.0;     ///< jobs waiting on this shard's pool
};

/// Immutable copy of the metrics at one instant.
struct MetricsSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_infeasible = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t lost_conflict = 0;

  std::uint64_t commit_conflicts = 0;  ///< commits failing validation
  std::uint64_t retries = 0;           ///< commit attempts after a conflict
  std::uint64_t fast_commits = 0;      ///< epoch unchanged since snapshot
  std::uint64_t stamp_commits = 0;     ///< epoch moved, footprint stamps clean
  std::uint64_t validated_commits = 0; ///< epoch moved, residuals re-checked
  std::uint64_t releases = 0;          ///< departures applied to the ledger
  std::uint64_t slow_solves = 0;       ///< watchdog-flagged in-flight solves
  /// Requests whose source and destination live in different regions.
  std::uint64_t cross_region_requests = 0;

  double queue_depth = 0.0;   ///< jobs waiting at snapshot time, all shards
  double workers_busy = 0.0;  ///< workers mid-request at snapshot time

  Histogram latency_ms{1e-3, 1e6};  ///< submit → terminal outcome
  Histogram solve_ms{1e-3, 1e6};    ///< dequeue → terminal outcome
  Histogram cost{1e-1, 1e9};        ///< accepted flows' objective (1)
  /// Commit decisions per commit critical section: one observation of 1
  /// per commit attempt, kept for readers of the former group-commit
  /// batch size.
  Histogram group_commit_batch{1.0, 1e4};

  std::vector<ShardStatsSnapshot> shards;

  [[nodiscard]] std::uint64_t completed() const noexcept {
    return accepted + rejected_infeasible + rejected_queue_full +
           shed_deadline + lost_conflict;
  }
  [[nodiscard]] double acceptance_ratio() const noexcept {
    const std::uint64_t n = completed();
    return n ? static_cast<double>(accepted) / static_cast<double>(n) : 0.0;
  }
  /// Conflicted commits per completed request.
  [[nodiscard]] double conflict_rate() const noexcept {
    const std::uint64_t n = completed();
    return n ? static_cast<double>(commit_conflicts) / static_cast<double>(n)
             : 0.0;
  }
  /// Conflicts summed over the shards that rejected a footprint.
  [[nodiscard]] std::uint64_t total_conflicts() const noexcept {
    std::uint64_t n = 0;
    for (const ShardStatsSnapshot& s : shards) n += s.conflicts;
    return n;
  }

  /// Single-line JSON object (no trailing newline) with every counter, the
  /// latency/cost percentiles and the per-shard series — the payload of
  /// the `JSON:` lines the serve CLI and benches print.
  [[nodiscard]] std::string to_json() const;
};

class ServiceMetrics {
 public:
  explicit ServiceMetrics(std::size_t num_shards = 1);

  void on_submitted();
  void on_cross_region();
  /// Records a terminal response — the single sink for every outcome,
  /// including queue-full rejects (their latency is the ~0 submit path).
  void on_response(const Response& r);
  /// A commit (or conflict) classified by shard::ShardedLedger::try_commit.
  void on_commit(const shard::CommitResult& result);
  void on_release();
  /// Watchdog: one in-flight solve crossed the slow-solve threshold.
  void on_slow_solve();
  void set_queue_depth(shard::RegionId shard, std::size_t depth);
  /// +1 when a worker dequeues, -1 when it finishes.
  void add_workers_busy(double delta);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// The backing registry — what the HTTP /metrics endpoint exposes. Owned
  /// by (and per-) service, so instrument names never collide across
  /// service instances in one process.
  [[nodiscard]] util::MetricRegistry& registry() noexcept {
    return *registry_;
  }
  [[nodiscard]] const util::MetricRegistry& registry() const noexcept {
    return *registry_;
  }

 private:
  struct PerShard {
    util::Counter commits;
    util::Counter conflicts;
    util::Gauge queue_depth;
  };

  /// unique_ptr so instrument handles stay valid if the owner moves.
  std::unique_ptr<util::MetricRegistry> registry_;

  util::Counter submitted_;
  util::Counter accepted_;
  util::Counter rejected_infeasible_;
  util::Counter rejected_queue_full_;
  util::Counter shed_deadline_;
  util::Counter lost_conflict_;
  util::Counter commit_conflicts_;
  util::Counter retries_;
  util::Counter fast_commits_;
  util::Counter stamp_commits_;
  util::Counter validated_commits_;
  util::Counter releases_;
  util::Counter slow_solves_;
  util::Counter cross_region_;
  util::Gauge workers_busy_;
  util::HistogramMetric latency_ms_;
  util::HistogramMetric solve_ms_;
  util::HistogramMetric cost_;
  util::HistogramMetric group_commit_batch_;
  std::vector<PerShard> per_shard_;
};

}  // namespace dagsfc::serve
