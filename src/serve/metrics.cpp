#include "serve/metrics.hpp"

#include <sstream>
#include <utility>

#include "util/json.hpp"

namespace dagsfc::serve {

ServiceMetrics::ServiceMetrics(std::size_t num_shards)
    : registry_(std::make_unique<util::MetricRegistry>()) {
  util::MetricRegistry& r = *registry_;
  submitted_ = r.counter("dagsfc_serve_submitted_total");
  accepted_ = r.counter("dagsfc_serve_accepted_total");
  rejected_infeasible_ = r.counter("dagsfc_serve_rejected_infeasible_total");
  rejected_queue_full_ = r.counter("dagsfc_serve_rejected_queue_full_total");
  shed_deadline_ = r.counter("dagsfc_serve_shed_deadline_total");
  lost_conflict_ = r.counter("dagsfc_serve_lost_conflict_total");
  commit_conflicts_ = r.counter("dagsfc_serve_commit_conflicts_total");
  retries_ = r.counter("dagsfc_serve_retries_total");
  fast_commits_ = r.counter("dagsfc_serve_fast_commits_total");
  stamp_commits_ = r.counter("dagsfc_serve_stamp_commits_total");
  validated_commits_ = r.counter("dagsfc_serve_validated_commits_total");
  releases_ = r.counter("dagsfc_serve_releases_total");
  slow_solves_ = r.counter("dagsfc_serve_slow_solves_total");
  cross_region_ = r.counter("dagsfc_serve_cross_region_requests_total");
  workers_busy_ = r.gauge("dagsfc_serve_workers_busy");
  latency_ms_ = r.histogram("dagsfc_serve_latency_ms", {}, 1e-3, 1e6);
  solve_ms_ = r.histogram("dagsfc_serve_solve_ms", {}, 1e-3, 1e6);
  cost_ = r.histogram("dagsfc_serve_cost", {}, 1e-1, 1e9);
  group_commit_batch_ = r.histogram("dagsfc_serve_group_commit_batch", {},
                                    1.0, 1e4);
  per_shard_.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const util::MetricLabels labels{{"shard", std::to_string(s)}};
    per_shard_.push_back(PerShard{
        r.counter("dagsfc_serve_commits_total", labels),
        r.counter("dagsfc_serve_conflicts_total", labels),
        r.gauge("dagsfc_serve_queue_depth", labels),
    });
  }
}

void ServiceMetrics::on_submitted() { submitted_.inc(); }

void ServiceMetrics::on_cross_region() { cross_region_.inc(); }

void ServiceMetrics::on_release() { releases_.inc(); }

void ServiceMetrics::on_slow_solve() { slow_solves_.inc(); }

void ServiceMetrics::set_queue_depth(shard::RegionId shard,
                                     std::size_t depth) {
  DAGSFC_CHECK(shard < per_shard_.size());
  per_shard_[shard].queue_depth.set(static_cast<double>(depth));
}

void ServiceMetrics::add_workers_busy(double delta) {
  workers_busy_.add(delta);
}

void ServiceMetrics::on_commit(const shard::CommitResult& result) {
  group_commit_batch_.observe(1.0);
  if (result.ok) {
    for (const shard::RegionId r : result.touched) {
      DAGSFC_CHECK(r < per_shard_.size());
      per_shard_[r].commits.inc();
    }
  } else {
    DAGSFC_CHECK(result.conflict_region < per_shard_.size());
    per_shard_[result.conflict_region].conflicts.inc();
  }
}

void ServiceMetrics::on_response(const Response& r) {
  switch (r.outcome) {
    case Outcome::Accepted:
      accepted_.inc();
      cost_.observe(r.cost);
      if (!r.epoch_validated) {
        fast_commits_.inc();
      } else if (r.stamp_validated) {
        stamp_commits_.inc();
      } else {
        validated_commits_.inc();
      }
      break;
    case Outcome::RejectedInfeasible:
      rejected_infeasible_.inc();
      break;
    case Outcome::RejectedQueueFull:
      rejected_queue_full_.inc();
      break;
    case Outcome::SheddedDeadline:
      shed_deadline_.inc();
      break;
    case Outcome::LostConflict:
      lost_conflict_.inc();
      break;
  }
  commit_conflicts_.inc(r.conflicts);
  // A fresh attempt follows every conflict but a LostConflict request's
  // last, so this is attempts − 1 however many candidates each attempt
  // solved.
  const std::uint32_t retries =
      r.outcome == Outcome::LostConflict ? r.conflicts - 1 : r.conflicts;
  if (retries > 0) retries_.inc(retries);
  // Exemplars: each latency bucket remembers the request id of its worst
  // observation, linking the histogram to the flight recorder. They live
  // registry-side only, so snapshot() above stays bitwise-comparable.
  latency_ms_.observe_exemplar(r.queue_ms + r.solve_ms, r.id);
  solve_ms_.observe_exemplar(r.solve_ms, r.id);
}

MetricsSnapshot ServiceMetrics::snapshot() const {
  MetricsSnapshot s;
  s.submitted = submitted_.value();
  s.accepted = accepted_.value();
  s.rejected_infeasible = rejected_infeasible_.value();
  s.rejected_queue_full = rejected_queue_full_.value();
  s.shed_deadline = shed_deadline_.value();
  s.lost_conflict = lost_conflict_.value();
  s.commit_conflicts = commit_conflicts_.value();
  s.retries = retries_.value();
  s.fast_commits = fast_commits_.value();
  s.stamp_commits = stamp_commits_.value();
  s.validated_commits = validated_commits_.value();
  s.releases = releases_.value();
  s.slow_solves = slow_solves_.value();
  s.cross_region_requests = cross_region_.value();
  s.workers_busy = workers_busy_.value();
  s.latency_ms = latency_ms_.snapshot();
  s.solve_ms = solve_ms_.snapshot();
  s.cost = cost_.snapshot();
  s.group_commit_batch = group_commit_batch_.snapshot();
  s.shards.reserve(per_shard_.size());
  for (const PerShard& p : per_shard_) {
    s.shards.push_back(ShardStatsSnapshot{p.commits.value(),
                                          p.conflicts.value(),
                                          p.queue_depth.value()});
    s.queue_depth += s.shards.back().queue_depth;
  }
  return s;
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream os;
  os << "{\"submitted\":" << submitted << ",\"accepted\":" << accepted
     << ",\"rejected_infeasible\":" << rejected_infeasible
     << ",\"rejected_queue_full\":" << rejected_queue_full
     << ",\"shed_deadline\":" << shed_deadline
     << ",\"lost_conflict\":" << lost_conflict
     << ",\"acceptance_ratio\":" << util::json_number(acceptance_ratio())
     << ",\"commit_conflicts\":" << commit_conflicts
     << ",\"retries\":" << retries << ",\"fast_commits\":" << fast_commits
     << ",\"stamp_commits\":" << stamp_commits
     << ",\"validated_commits\":" << validated_commits
     << ",\"releases\":" << releases << ",\"slow_solves\":" << slow_solves
     << ",\"cross_region_requests\":" << cross_region_requests
     << ",\"conflict_rate\":" << util::json_number(conflict_rate())
     << ",\"queue_depth\":" << util::json_number(queue_depth)
     << ",\"workers_busy\":" << util::json_number(workers_busy)
     << ",\"latency_ms\":{\"p50\":" << util::json_number(latency_ms.p50())
     << ",\"p95\":" << util::json_number(latency_ms.p95())
     << ",\"p99\":" << util::json_number(latency_ms.p99())
     << ",\"mean\":" << util::json_number(latency_ms.mean())
     << ",\"max\":" << util::json_number(latency_ms.max()) << "}"
     << ",\"solve_ms\":{\"p50\":" << util::json_number(solve_ms.p50())
     << ",\"p95\":" << util::json_number(solve_ms.p95())
     << ",\"p99\":" << util::json_number(solve_ms.p99()) << "}"
     << ",\"cost\":{\"count\":" << cost.count()
     << ",\"mean\":" << util::json_number(cost.mean())
     << ",\"p50\":" << util::json_number(cost.p50())
     << ",\"p95\":" << util::json_number(cost.p95())
     << ",\"p99\":" << util::json_number(cost.p99()) << "}"
     << ",\"group_commit_batch\":{\"count\":" << group_commit_batch.count()
     << ",\"mean\":" << util::json_number(group_commit_batch.mean())
     << ",\"max\":" << util::json_number(group_commit_batch.max()) << "}"
     << ",\"shards\":[";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (i > 0) os << ",";
    os << "{\"shard\":" << i << ",\"commits\":" << shards[i].commits
       << ",\"conflicts\":" << shards[i].conflicts
       << ",\"queue_depth\":" << util::json_number(shards[i].queue_depth)
       << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace dagsfc::serve
