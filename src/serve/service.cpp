#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/log.hpp"

namespace dagsfc::serve {

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Solver RNG stream for (service seed, request, retry): splitmix64 over
/// the mixed words gives independent streams, so outcomes are a pure
/// function of the request identity — never of worker scheduling.
std::uint64_t solve_seed(std::uint64_t base, RequestId id,
                         std::uint32_t attempt) {
  std::uint64_t state = base ^ (id * 0x9e3779b97f4a7c15ULL) ^
                        (std::uint64_t{attempt} << 32);
  return splitmix64(state);
}

}  // namespace

EmbeddingService::EmbeddingService(const net::Network& network,
                                   const core::Embedder& embedder,
                                   Options options)
    : net_(&network),
      embedder_(&embedder),
      opts_(options),
      ledger_(network),
      queue_(options.admission.queue_capacity) {
  opts_.admission.validate();
  DAGSFC_CHECK(opts_.workers >= 1);
  DAGSFC_CHECK(opts_.slow_solve_threshold.count() >= 0);
  DAGSFC_CHECK(opts_.watchdog_period.count() >= 0);
  // Journal depth: enough to cover many full-footprint commits between a
  // worker's syncs, so replicas replay deltas instead of recopying.
  ledger_.enable_journal(std::max<std::size_t>(
      4096, 32 * (network.num_links() + network.num_instances())));
  if (opts_.tracing.enabled) {
    spans_ = std::make_unique<util::SpanRecorder>(
        opts_.workers, opts_.tracing.ring_capacity);
    flight_ = std::make_unique<FlightRecorder>(opts_.tracing.flight_capacity);
  }
  watch_slots_.resize(opts_.workers);
  if (opts_.slow_solve_threshold.count() > 0) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
  workers_.reserve(opts_.workers);
  for (std::size_t w = 0; w < opts_.workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

EmbeddingService::~EmbeddingService() { shutdown(); }

std::future<Response> EmbeddingService::submit(Request req) {
  metrics_.on_submitted();
  {
    std::lock_guard lock(drain_mu_);
    ++outstanding_;
  }
  Job job;
  job.req = std::move(req);
  job.submitted = Clock::now();
  std::future<Response> fut = job.promise.get_future();
  if (queue_.try_push(std::move(job))) {
    metrics_.set_queue_depth(queue_.size());
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
  metrics_.on_response(resp);
  job.promise.set_value(std::move(resp));
  {
    std::lock_guard lock(drain_mu_);
    DAGSFC_CHECK(outstanding_ > 0);
    --outstanding_;
  }
  drain_cv_.notify_all();
}

void EmbeddingService::worker_loop(std::size_t slot) {
  // Per-worker solver state: solves run outside the commit lock, so each
  // worker warms its own search buffers and its ledger replica's path
  // cache for the life of the thread.
  WorkerState state;
  const bool watched = opts_.slow_solve_threshold.count() > 0;
  while (auto job = queue_.pop()) {
    metrics_.set_queue_depth(queue_.size());
    metrics_.add_workers_busy(1.0);
    if (watched) begin_watch(slot, job->req.id);
    // This worker is the lane's single writer for the request's lifetime.
    RequestTrace trace(spans_.get(), slot, job->req.id);
    const std::uint64_t t_submit = trace.at(job->submitted);
    Response resp = process(*job, state, trace);
    if (watched) resp.watchdog_flagged = end_watch(slot);
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

void EmbeddingService::begin_watch(std::size_t slot, RequestId id) {
  std::lock_guard lock(watch_mu_);
  watch_slots_[slot] =
      WatchSlot{id, Clock::now(), /*active=*/true, /*warned=*/false};
}

bool EmbeddingService::end_watch(std::size_t slot) {
  std::lock_guard lock(watch_mu_);
  watch_slots_[slot].active = false;
  return watch_slots_[slot].warned;
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

std::uint64_t EmbeddingService::sync_replica(WorkerState& state) {
  std::lock_guard lock(commit_mu_);
  if (!state.replica) {
    state.replica = std::make_unique<net::CapacityLedger>(ledger_);
  } else {
    state.replica->sync_from(ledger_);
  }
  return state.replica->epoch();
}

void EmbeddingService::decide(PendingCommit& p) {
  const bool moved = ledger_.epoch() != p.snapshot_epoch;
  p.epoch_moved = moved;
  bool admit = !moved;
  if (!admit && ledger_.footprint_unchanged_since(
                    p.usage.link_uses, p.usage.instance_uses,
                    p.snapshot_epoch)) {
    // Every resource this solution touches still carries the residual the
    // solver saw — feasible then implies feasible now, no re-check needed.
    admit = true;
    p.stamp_validated = true;
  }
  if (!admit) {
    admit = ledger_.can_apply(p.usage.link_uses, p.usage.instance_uses,
                              p.rate);
  }
  if (admit) {
    ledger_.apply(p.usage.link_uses, p.usage.instance_uses, p.rate);
    p.commit_epoch = ledger_.epoch();
    committed_.emplace(p.id, CommittedFlow{std::move(p.usage), p.rate});
    p.status = PendingCommit::Status::kCommitted;
  } else {
    p.status = PendingCommit::Status::kConflict;
  }
}

bool EmbeddingService::group_commit(PendingCommit& pc) {
  {
    std::lock_guard plock(pending_mu_);
    pending_.push_back(&pc);
  }
  // Block until the commit mutex is ours. A leader that drained our entry
  // in the meantime decided it before releasing the mutex, so an entry
  // still kWaiting here is guaranteed to still be in pending_.
  std::lock_guard lock(commit_mu_);
  std::vector<PendingCommit*> batch;
  {
    std::lock_guard plock(pending_mu_);
    if (pc.status == PendingCommit::Status::kWaiting) batch.swap(pending_);
  }
  if (!batch.empty()) {
    // Leader: validate and apply the whole batch (our own entry included)
    // in this one critical section. Entries are decided in arrival order
    // against the evolving ledger, so overlapping solutions within a batch
    // degrade to stamp/residual validation exactly like cross-batch ones.
    metrics_.on_group_commit(batch.size());
    for (PendingCommit* p : batch) decide(*p);
  }
  return pc.status == PendingCommit::Status::kCommitted;
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
  problem.network = net_;
  problem.sfc = &job.req.sfc;
  problem.flow = job.req.flow;
  const core::ModelIndex index(problem);
  const core::Evaluator evaluator(index);
  const double rate = job.req.flow.rate;

  const std::uint32_t max_attempts = 1 + opts_.admission.max_retries;
  for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      const auto backoff = opts_.admission.backoff_before(attempt);
      if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
    }

    // Snapshot: a private, consistent view of the shared residual state
    // plus the epoch it was taken at — the worker's persistent replica,
    // caught up by an O(delta) journal replay that keeps its path cache
    // warm.
    const std::uint64_t t_solve0 = trace.now();
    const std::uint64_t snapshot_epoch = sync_replica(state);

    // Solve outside the lock — the expensive, parallel part. solve() takes
    // the ledger const, so the replica survives for the next request.
    Rng rng(solve_seed(opts_.seed, job.req.id, attempt));
    const core::SolveResult r =
        embedder_->solve(index, *state.replica, rng, nullptr, &state.ws);
    ++resp.solves;
    const std::uint16_t att = static_cast<std::uint16_t>(attempt);
    trace.solve(att, r.ok(), t_solve0, trace.now(), snapshot_epoch,
                r.ok() ? r.cost : 0.0);
    if (!r.ok()) {
      // Infeasible against a consistent snapshot: a genuine reject, not a
      // race — retrying against an even fuller ledger cannot help.
      resp.outcome = Outcome::RejectedInfeasible;
      resp.solve_ms = ms_between(dequeued, Clock::now());
      return resp;
    }

    core::ResourceUsage usage = evaluator.usage(*r.solution);

    const std::uint64_t t_commit0 = trace.now();
    PendingCommit pc;
    pc.id = job.req.id;
    pc.usage = std::move(usage);
    pc.rate = rate;
    pc.snapshot_epoch = snapshot_epoch;
    if (group_commit(pc)) {
      trace.commit(att,
                   pc.stamp_validated ? CommitClass::kStamp
                   : pc.epoch_moved  ? CommitClass::kValidated
                                     : CommitClass::kFast,
                   t_commit0, trace.now(), pc.commit_epoch);
      resp.outcome = Outcome::Accepted;
      resp.cost = r.cost;
      resp.snapshot_epoch = snapshot_epoch;
      resp.commit_epoch = pc.commit_epoch;
      resp.epoch_validated = pc.epoch_moved;
      resp.stamp_validated = pc.stamp_validated;
      resp.solve_ms = ms_between(dequeued, Clock::now());
      return resp;
    }
    // The world changed under us and the solution no longer fits: commit
    // conflict. Loop back for a fresh snapshot.
    trace.commit(att, CommitClass::kConflict, t_commit0, trace.now(),
                 snapshot_epoch);
    ++resp.conflicts;
  }

  resp.outcome = Outcome::LostConflict;
  resp.solve_ms = ms_between(dequeued, Clock::now());
  return resp;
}

bool EmbeddingService::release(RequestId id) {
  CommittedFlow flow;
  {
    std::lock_guard lock(commit_mu_);
    auto it = committed_.find(id);
    if (it == committed_.end()) return false;
    flow = std::move(it->second);
    committed_.erase(it);
    ledger_.unapply(flow.usage.link_uses, flow.usage.instance_uses,
                    flow.rate);
  }
  metrics_.on_release();
  return true;
}

std::size_t EmbeddingService::in_service() const {
  std::lock_guard lock(commit_mu_);
  return committed_.size();
}

void EmbeddingService::drain() {
  std::unique_lock lock(drain_mu_);
  drain_cv_.wait(lock, [&] { return outstanding_ == 0; });
}

void EmbeddingService::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  queue_.close();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  {
    std::lock_guard lock(watch_mu_);
    watch_stop_ = true;
  }
  watch_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

net::CapacityLedger EmbeddingService::ledger_snapshot() const {
  std::lock_guard lock(commit_mu_);
  return ledger_;
}

std::uint64_t EmbeddingService::epoch() const {
  std::lock_guard lock(commit_mu_);
  return ledger_.epoch();
}

}  // namespace dagsfc::serve
