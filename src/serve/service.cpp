#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "shard/hier.hpp"
#include "util/log.hpp"

namespace dagsfc::serve {

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Solver RNG stream for (service seed, request, attempt): splitmix64 over
/// the mixed words gives independent streams, so outcomes are a pure
/// function of the request identity — never of worker scheduling.
std::uint64_t solve_seed(std::uint64_t base, RequestId id,
                         std::uint32_t attempt) {
  std::uint64_t state = base ^ (id * 0x9e3779b97f4a7c15ULL) ^
                        (std::uint64_t{attempt} << 32);
  return splitmix64(state);
}

/// Touched-shard set as a bitmask for the commit span's arg (regions past
/// 63 are simply not representable — the span is a breadcrumb, the full
/// list lives in the per-shard metrics).
std::uint64_t shard_mask(const std::vector<shard::RegionId>& regions) {
  std::uint64_t mask = 0;
  for (const shard::RegionId r : regions) {
    if (r < 64) mask |= std::uint64_t{1} << r;
  }
  return mask;
}

/// The one-region partition of a flat service's network.
shard::RegionPartition whole_network(const net::Network& network) {
  return shard::RegionPartition::from_labels(
      std::vector<std::uint32_t>(network.num_nodes(), 0));
}

}  // namespace

EmbeddingService::EmbeddingService(const net::Network& network,
                                   const core::Embedder& embedder,
                                   Options options)
    : own_substrate_(std::make_unique<const shard::ShardedSubstrate>(
          network, whole_network(network))),
      substrate_(own_substrate_.get()),
      embedder_(&embedder),
      region_paths_(1),
      opts_(options),
      ledger_(*substrate_),
      metrics_(1) {
  start();
}

EmbeddingService::EmbeddingService(const shard::ShardedSubstrate& substrate,
                                   const core::Embedder& inner,
                                   std::size_t region_paths, Options options)
    : substrate_(&substrate),
      embedder_(&inner),
      region_paths_(region_paths),
      opts_(options),
      ledger_(substrate),
      metrics_(substrate.num_regions()) {
  DAGSFC_CHECK(region_paths_ >= 1);
  start();
}

void EmbeddingService::start() {
  opts_.admission.validate();
  DAGSFC_CHECK(opts_.workers >= 1);
  DAGSFC_CHECK(opts_.slow_solve_threshold.count() >= 0);
  DAGSFC_CHECK(opts_.watchdog_period.count() >= 0);
  const std::size_t regions = substrate_->num_regions();
  const std::size_t lanes = regions * opts_.workers;
  if (opts_.tracing.enabled) {
    spans_ = std::make_unique<util::SpanRecorder>(lanes,
                                                  opts_.tracing.ring_capacity);
    flight_ = std::make_unique<FlightRecorder>(kFlightCapacity);
  }
  watch_slots_.resize(lanes);
  if (opts_.slow_solve_threshold.count() > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
  pools_.reserve(regions);
  for (std::size_t r = 0; r < regions; ++r) {
    pools_.push_back(std::make_unique<Pool>(opts_.admission.queue_capacity));
  }
  // Pools exist before any worker starts, so worker_loop's pools_ indexing
  // never races the construction loop.
  for (std::size_t r = 0; r < regions; ++r) {
    pools_[r]->workers.reserve(opts_.workers);
    for (std::size_t w = 0; w < opts_.workers; ++w) {
      const std::size_t lane = r * opts_.workers + w;
      pools_[r]->workers.emplace_back([this, r, lane] {
        worker_loop(static_cast<shard::RegionId>(r), lane);
      });
    }
  }
}

EmbeddingService::~EmbeddingService() { shutdown(); }

std::future<Response> EmbeddingService::submit(Request req) {
  core::EmbeddingProblem problem;
  problem.network = &substrate_->network();
  problem.sfc = &req.sfc;
  problem.flow = req.flow;
  try {
    problem.validate();
  } catch (const ContractViolation& e) {
    throw std::invalid_argument("request " + std::to_string(req.id) +
                                " is malformed: " + e.what());
  }
  {
    std::lock_guard lock(flows_mu_);
    if (!flows_.try_emplace(req.id).second) {
      throw std::invalid_argument("request id " + std::to_string(req.id) +
                                  " is already queued, in flight or in "
                                  "service");
    }
  }
  metrics_.on_submitted();
  const shard::RegionId home = substrate_->region_of_node(req.flow.source);
  if (substrate_->region_of_node(req.flow.destination) != home) {
    metrics_.on_cross_region();
  }
  {
    std::lock_guard lock(drain_mu_);
    ++outstanding_;
  }
  Job job;
  job.req = std::move(req);
  job.submitted = Clock::now();
  std::future<Response> fut = job.promise.get_future();
  Pool& pool = *pools_[home];
  if (pool.queue.try_push(std::move(job))) {
    metrics_.set_queue_depth(home, pool.queue.size());
  } else {
    // try_push moves from its argument only on success, so the job — and
    // the promise backing `fut` — is intact on the reject path.
    Response resp;
    resp.id = job.req.id;
    resp.outcome = Outcome::RejectedQueueFull;
    finish(std::move(job), std::move(resp));
  }
  return fut;
}

void EmbeddingService::finish(Job&& job, Response&& resp) {
  if (!resp.accepted()) {
    // Only committed flows keep their flow-table entry (and so their id).
    std::lock_guard lock(flows_mu_);
    flows_.erase(resp.id);
  }
  metrics_.on_response(resp);
  job.promise.set_value(std::move(resp));
  {
    std::lock_guard lock(drain_mu_);
    DAGSFC_CHECK(outstanding_ > 0);
    --outstanding_;
  }
  drain_cv_.notify_all();
}

void EmbeddingService::worker_loop(shard::RegionId region, std::size_t lane) {
  // Per-worker solver state: solves run outside every lock, so each worker
  // warms its own search buffers and its composed view's path cache for
  // the life of the thread.
  WorkerState state(*substrate_);
  Pool& pool = *pools_[region];
  const bool watched = opts_.slow_solve_threshold.count() > 0;
  while (auto job = pool.queue.pop()) {
    metrics_.set_queue_depth(region, pool.queue.size());
    metrics_.add_workers_busy(1.0);
    if (watched) begin_watch(lane, job->req.id);
    // This worker is the lane's single writer for the request's lifetime.
    RequestTrace trace(spans_.get(), lane, job->req.id);
    const std::uint64_t t_submit = trace.at(job->submitted);
    Response resp = process(*job, state, trace);
    if (watched) resp.watchdog_flagged = end_watch(lane);
    trace.outcome(resp.outcome, t_submit, trace.now(), resp.cost);
    maybe_promote(trace, resp);
    metrics_.add_workers_busy(-1.0);
    finish(std::move(*job), std::move(resp));
  }
}

void EmbeddingService::maybe_promote(const RequestTrace& trace,
                                     const Response& resp) {
  if (!flight_ || !trace.active()) return;
  const double latency_ms = resp.queue_ms + resp.solve_ms;
  const std::uint8_t hit = evaluate_triggers(opts_.tracing, resp.outcome,
                                             latency_ms,
                                             resp.watchdog_flagged);
  if (hit == 0) return;
  FlightTrace ft;
  ft.trace_id = resp.id;
  ft.triggers = hit;
  ft.outcome = resp.outcome;
  ft.latency_ms = latency_ms;
  ft.dropped_spans = trace.overflow();
  const std::span<const util::SpanRecord> spans = trace.spans();
  ft.spans.assign(spans.begin(), spans.end());
  // The inline copy never went through collect(), so stamp the lane here.
  for (util::SpanRecord& s : ft.spans) {
    s.lane = static_cast<std::uint32_t>(trace.lane());
  }
  flight_->promote(std::move(ft));
}

void EmbeddingService::begin_watch(std::size_t lane, RequestId id) {
  std::lock_guard lock(watch_mu_);
  watch_slots_[lane] =
      WatchSlot{id, Clock::now(), /*active=*/true, /*warned=*/false};
}

bool EmbeddingService::end_watch(std::size_t lane) {
  std::lock_guard lock(watch_mu_);
  watch_slots_[lane].active = false;
  return watch_slots_[lane].warned;
}

std::chrono::nanoseconds EmbeddingService::watchdog_period() const {
  if (opts_.watchdog_period.count() > 0) return opts_.watchdog_period;
  using std::chrono::nanoseconds;
  return std::clamp(opts_.slow_solve_threshold / 4,
                    nanoseconds(std::chrono::milliseconds(1)),
                    nanoseconds(std::chrono::milliseconds(250)));
}

void EmbeddingService::watchdog_loop() {
  const std::chrono::nanoseconds period = watchdog_period();
  std::unique_lock lock(watch_mu_);
  while (!watch_stop_) {
    watch_cv_.wait_for(lock, period, [&] { return watch_stop_; });
    if (watch_stop_) return;
    const Clock::time_point now = Clock::now();
    for (WatchSlot& slot : watch_slots_) {
      if (!slot.active || slot.warned) continue;
      const auto elapsed = now - slot.started;
      if (elapsed < opts_.slow_solve_threshold) continue;
      slot.warned = true;  // one warning per slow request, however long
      metrics_.on_slow_solve();
      using MsDouble = std::chrono::duration<double, std::milli>;
      const double elapsed_ms = MsDouble(elapsed).count();
      const double threshold_ms = MsDouble(opts_.slow_solve_threshold).count();
      DAGSFC_WARN("slow solve: request=" << slot.id << " solver="
                                         << embedder_->name() << " elapsed_ms="
                                         << elapsed_ms << " threshold_ms="
                                         << threshold_ms);
    }
  }
}

Response EmbeddingService::process(Job& job, WorkerState& state,
                                   RequestTrace& trace) {
  const Clock::time_point dequeued = Clock::now();
  Response resp;
  resp.id = job.req.id;
  resp.queue_ms = ms_between(job.submitted, dequeued);
  trace.queue_wait(trace.at(job.submitted), trace.at(dequeued));

  if (opts_.admission.should_shed(job.req, dequeued)) {
    resp.outcome = Outcome::SheddedDeadline;
    resp.solve_ms = ms_between(dequeued, Clock::now());
    return resp;
  }

  core::EmbeddingProblem problem;
  problem.network = &substrate_->network();
  problem.sfc = &job.req.sfc;
  problem.flow = job.req.flow;
  const core::ModelIndex index(problem);
  const core::Evaluator evaluator(index);
  const double rate = job.req.flow.rate;

  // Stage one: deterministic candidate region sets, cheapest summary
  // first. Computed once per request — the region graph is structural and
  // its summaries only change on explicit repricing.
  shard::candidate_region_sets(*substrate_, job.req.flow.source,
                               job.req.flow.destination, region_paths_,
                               state.ws, state.candidates);

  const std::uint32_t max_attempts = 1 + opts_.admission.max_retries;
  for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      const auto backoff = opts_.admission.backoff_before(attempt);
      if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
    }
    Rng rng(solve_seed(opts_.seed, job.req.id, attempt));
    const std::uint16_t att = static_cast<std::uint16_t>(attempt);
    bool solved_any = false;
    for (std::size_t c = 0; c < state.candidates.size(); ++c) {
      const std::vector<shard::RegionId>& regions = state.candidates[c];
      // Compose the candidate's view, then solve outside every lock — the
      // expensive, parallel part. solve() takes the view const, so it (and
      // its path cache) survives for the next request.
      const std::uint64_t t_solve0 = trace.now();
      ledger_.compose(regions, state.view);
      const core::SolveResult r =
          embedder_->solve(index, state.view.ledger(), rng, nullptr, &state.ws);
      ++resp.solves;
      trace.solve(att, r.ok(), t_solve0, trace.now(), c,
                  r.ok() ? r.cost : 0.0);
      if (!r.ok()) continue;
      solved_any = true;

      core::ResourceUsage usage = evaluator.usage(*r.solution);
      const std::uint64_t t_commit0 = trace.now();
      const shard::CommitResult commit =
          ledger_.try_commit(usage, rate, regions, state.view.epochs());
      trace.commit(att, commit.path, t_commit0, trace.now(),
                   shard_mask(commit.touched));
      metrics_.on_commit(commit);
      if (!commit.ok) {
        // The world changed under us and the solution no longer fits:
        // commit conflict. Start a fresh attempt from fresh views.
        ++resp.conflicts;
        break;
      }
      {
        std::lock_guard lock(flows_mu_);
        Flow& flow = flows_.at(job.req.id);
        flow.usage = std::move(usage);
        flow.rate = rate;
        flow.committed = true;
        ++in_service_;
      }
      resp.outcome = Outcome::Accepted;
      resp.cost = r.cost;
      resp.epoch_validated = commit.path != shard::CommitPath::kFast;
      resp.stamp_validated = commit.path == shard::CommitPath::kStamp;
      resp.solve_ms = ms_between(dequeued, Clock::now());
      return resp;
    }
    if (!solved_any) {
      // Every candidate infeasible against consistent views: a genuine
      // reject, not a race — retrying against an even fuller ledger cannot
      // help.
      resp.outcome = Outcome::RejectedInfeasible;
      resp.solve_ms = ms_between(dequeued, Clock::now());
      return resp;
    }
  }

  resp.outcome = Outcome::LostConflict;
  resp.solve_ms = ms_between(dequeued, Clock::now());
  return resp;
}

bool EmbeddingService::release(RequestId id) {
  Flow flow;
  {
    std::lock_guard lock(flows_mu_);
    auto it = flows_.find(id);
    if (it == flows_.end() || !it->second.committed) return false;
    flow = std::move(it->second);
    flows_.erase(it);
    --in_service_;
  }
  ledger_.release(flow.usage, flow.rate);
  metrics_.on_release();
  return true;
}

std::size_t EmbeddingService::in_service() const {
  std::lock_guard lock(flows_mu_);
  return in_service_;
}

void EmbeddingService::drain() {
  std::unique_lock lock(drain_mu_);
  drain_cv_.wait(lock, [&] { return outstanding_ == 0; });
}

void EmbeddingService::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  for (auto& pool : pools_) pool->queue.close();
  for (auto& pool : pools_) {
    for (std::thread& t : pool->workers) {
      if (t.joinable()) t.join();
    }
  }
  {
    std::lock_guard lock(watch_mu_);
    watch_stop_ = true;
  }
  watch_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

net::CapacityLedger EmbeddingService::ledger_snapshot() const {
  return ledger_.residuals();
}

std::uint64_t EmbeddingService::epoch() const { return ledger_.epoch(); }

}  // namespace dagsfc::serve
