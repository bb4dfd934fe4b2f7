/// Serve-layer tests: queue semantics, admission, the optimistic-commit
/// protocol (forced epoch conflicts), multi-producer stress with
/// conservation invariants (the ThreadSanitizer target of scripts/check.sh),
/// and worker-count determinism of the closed-loop driver.

#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <future>
#include <limits>
#include <semaphore>
#include <stdexcept>
#include <vector>

#include "core/backtracking.hpp"
#include "core/baselines.hpp"
#include "serve/driver.hpp"
#include "serve/queue.hpp"
#include "test_helpers.hpp"

namespace dagsfc::serve {
namespace {

using test::NetBuilder;

// ---------------------------------------------------------------- queue --

TEST(BoundedQueue, FifoAndCapacity) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
}

TEST(BoundedQueue, RejectedItemIsNotMovedFrom) {
  BoundedQueue<std::vector<int>> q(1);
  std::vector<int> a{1, 2, 3};
  std::vector<int> b{4, 5, 6};
  EXPECT_TRUE(q.try_push(std::move(a)));
  EXPECT_FALSE(q.try_push(std::move(b)));
  EXPECT_EQ(b.size(), 3u);  // intact after the failed push
}

TEST(BoundedQueue, CloseDrainsThenEndsPop) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.try_push(7));
  q.close();
  EXPECT_FALSE(q.try_push(8));  // closed
  EXPECT_EQ(q.pop().value(), 7);
  EXPECT_FALSE(q.pop().has_value());
}

// ------------------------------------------------------------ admission --

TEST(AdmissionPolicy, BackoffDoubles) {
  AdmissionPolicy p;
  p.retry_backoff = std::chrono::nanoseconds(100);
  EXPECT_EQ(p.backoff_before(1).count(), 100);
  EXPECT_EQ(p.backoff_before(2).count(), 200);
  EXPECT_EQ(p.backoff_before(3).count(), 400);
  // The doubling is capped so huge retry budgets cannot overflow.
  EXPECT_EQ(p.backoff_before(40), p.backoff_before(11));
}

TEST(AdmissionPolicy, ShedsOnlyExpiredDeadlines) {
  AdmissionPolicy p;
  Request req;
  const auto now = Clock::now();
  EXPECT_FALSE(p.should_shed(req, now));  // no deadline
  req.deadline = now + std::chrono::seconds(1);
  EXPECT_FALSE(p.should_shed(req, now));
  req.deadline = now - std::chrono::seconds(1);
  EXPECT_TRUE(p.should_shed(req, now));
  p.shed_expired = false;
  EXPECT_FALSE(p.should_shed(req, now));
}

// ------------------------------------------------------ service fixtures --

/// A 3-node line whose single f1 instance (capacity 1) admits exactly one
/// rate-1 flow: the canonical conflict crucible.
net::Network one_slot_network() {
  NetBuilder b(3, 1);
  b.link(0, 1, 1.0, 10.0).link(1, 2, 1.0, 10.0);
  b.put(1, 1, 5.0, 1.0);
  return b.build();
}

Request one_slot_request(RequestId id) {
  Request req;
  req.id = id;
  req.sfc = sfc::DagSfc({sfc::Layer{{1}}});
  req.flow = core::Flow{0, 2, 1.0, 1.0};
  return req;
}

/// Wraps an embedder; every solve waits for a gate permit after signalling
/// entry, so tests can hold workers inside the (unlocked) solve phase.
class GateEmbedder : public core::Embedder {
 public:
  explicit GateEmbedder(const core::Embedder& inner) : inner_(&inner) {}

  [[nodiscard]] std::string name() const override { return "gate"; }

  void wait_entered() const { entered_.acquire(); }
  void open(std::ptrdiff_t permits) const { gate_.release(permits); }

 protected:
  [[nodiscard]] core::SolveResult do_solve(
      const core::ModelIndex& index, const net::CapacityLedger& ledger,
      Rng& rng, core::TraceSink*,
      graph::SearchWorkspace* workspace) const override {
    entered_.release();
    gate_.acquire();
    return inner_->solve(index, ledger, rng, nullptr, workspace);
  }

 private:
  const core::Embedder* inner_;
  mutable std::counting_semaphore<64> entered_{0};
  mutable std::counting_semaphore<64> gate_{0};
};

/// Wraps an embedder; the first two solves rendezvous *after* solving and
/// *before* returning, so both hold solutions computed from pre-commit
/// snapshots — guaranteeing the second commit faces a moved epoch.
class RendezvousEmbedder : public core::Embedder {
 public:
  explicit RendezvousEmbedder(const core::Embedder& inner) : inner_(&inner) {}

  [[nodiscard]] std::string name() const override { return "rendezvous"; }

 protected:
  [[nodiscard]] core::SolveResult do_solve(
      const core::ModelIndex& index, const net::CapacityLedger& ledger,
      Rng& rng, core::TraceSink*,
      graph::SearchWorkspace* workspace) const override {
    core::SolveResult r = inner_->solve(index, ledger, rng, nullptr, workspace);
    if (calls_.fetch_add(1) < 2) sync_.arrive_and_wait();
    return r;
  }

 private:
  const core::Embedder* inner_;
  mutable std::atomic<int> calls_{0};
  mutable std::barrier<> sync_{2};
};

// -------------------------------------------------------------- service --

TEST(EmbeddingService, AcceptMatchesSingleShotSolveAndReleases) {
  const net::Network network = one_slot_network();
  const core::MbbeEmbedder mbbe;
  EmbeddingService service(network, mbbe, {});

  const Response r = service.submit(one_slot_request(1)).get();
  ASSERT_EQ(r.outcome, Outcome::Accepted);
  EXPECT_EQ(r.solves, 1u);
  EXPECT_EQ(r.conflicts, 0u);
  EXPECT_FALSE(r.epoch_validated);  // nothing raced: fast path

  // Cost must equal the offline single-shot solve on a fresh ledger.
  Request ref = one_slot_request(1);
  core::EmbeddingProblem problem;
  problem.network = &network;
  problem.sfc = &ref.sfc;
  problem.flow = ref.flow;
  const core::ModelIndex index(problem);
  Rng rng(0);
  const core::SolveResult offline = mbbe.solve_fresh(index, rng);
  ASSERT_TRUE(offline.ok());
  EXPECT_DOUBLE_EQ(r.cost, offline.cost);

  EXPECT_EQ(service.in_service(), 1u);
  const net::CapacityLedger mid = service.ledger_snapshot();
  EXPECT_DOUBLE_EQ(mid.instance_residual(0), 0.0);

  EXPECT_TRUE(service.release(1));
  EXPECT_FALSE(service.release(1));  // already departed
  EXPECT_FALSE(service.release(99));  // never admitted
  EXPECT_EQ(service.in_service(), 0u);
  const net::CapacityLedger after = service.ledger_snapshot();
  EXPECT_DOUBLE_EQ(after.instance_residual(0), 1.0);
  EXPECT_EQ(service.metrics().releases, 1u);
}

TEST(EmbeddingService, SecondFlowRejectedOnceCapacityIsHeld) {
  const net::Network network = one_slot_network();
  const core::MbbeEmbedder mbbe;
  EmbeddingService service(network, mbbe, {});

  ASSERT_EQ(service.submit(one_slot_request(1)).get().outcome,
            Outcome::Accepted);
  const Response r2 = service.submit(one_slot_request(2)).get();
  EXPECT_EQ(r2.outcome, Outcome::RejectedInfeasible);
  // No conflict: the solver already saw the held capacity in its snapshot.
  EXPECT_EQ(r2.conflicts, 0u);

  // After the departure the same request embeds again.
  EXPECT_TRUE(service.release(1));
  EXPECT_EQ(service.submit(one_slot_request(3)).get().outcome,
            Outcome::Accepted);
}

TEST(EmbeddingService, QueueFullRejectsImmediately) {
  const net::Network network = one_slot_network();
  const core::MbbeEmbedder mbbe;
  const GateEmbedder gate(mbbe);
  EmbeddingService::Options opts;
  opts.workers = 1;
  opts.admission.queue_capacity = 1;
  EmbeddingService service(network, gate, opts);

  auto f1 = service.submit(one_slot_request(1));
  gate.wait_entered();  // worker is inside solve; the queue is empty again
  auto f2 = service.submit(one_slot_request(2));  // fills the queue
  auto f3 = service.submit(one_slot_request(3));  // bounced
  const Response r3 = f3.get();
  EXPECT_EQ(r3.outcome, Outcome::RejectedQueueFull);
  EXPECT_EQ(r3.id, 3u);

  gate.open(8);  // enough permits for solves + retries
  EXPECT_EQ(f1.get().outcome, Outcome::Accepted);
  EXPECT_EQ(f2.get().outcome, Outcome::RejectedInfeasible);
  EXPECT_EQ(service.metrics().rejected_queue_full, 1u);
}

TEST(EmbeddingService, ExpiredDeadlineIsShedWithoutSolving) {
  const net::Network network = one_slot_network();
  const core::MbbeEmbedder mbbe;
  EmbeddingService service(network, mbbe, {});

  Request req = one_slot_request(1);
  req.deadline = Clock::now() - std::chrono::milliseconds(5);
  const Response r = service.submit(std::move(req)).get();
  EXPECT_EQ(r.outcome, Outcome::SheddedDeadline);
  EXPECT_EQ(r.solves, 0u);
  EXPECT_EQ(service.metrics().shed_deadline, 1u);
  EXPECT_EQ(service.in_service(), 0u);
}

TEST(EmbeddingService, ForcedEpochConflictRetriesThenRejects) {
  const net::Network network = one_slot_network();
  const core::MbbeEmbedder mbbe;
  const RendezvousEmbedder rendezvous(mbbe);
  EmbeddingService::Options opts;
  opts.workers = 2;
  opts.admission.retry_backoff = std::chrono::nanoseconds(0);
  EmbeddingService service(network, rendezvous, opts);

  // Both workers solve against pre-commit snapshots (the rendezvous blocks
  // the winner from committing until the loser has solved too), so exactly
  // one commit faces a moved epoch over capacity that is now gone.
  auto f1 = service.submit(one_slot_request(1));
  auto f2 = service.submit(one_slot_request(2));
  const Response r1 = f1.get();
  const Response r2 = f2.get();

  const Response& won = r1.accepted() ? r1 : r2;
  const Response& lost = r1.accepted() ? r2 : r1;
  ASSERT_EQ(won.outcome, Outcome::Accepted);
  EXPECT_EQ(won.solves, 1u);
  // The loser's first feasible solution failed validation (conflict), and
  // its retry saw the truth and rejected.
  EXPECT_EQ(lost.outcome, Outcome::RejectedInfeasible);
  EXPECT_EQ(lost.conflicts, 1u);
  EXPECT_EQ(lost.solves, 2u);

  const MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.accepted, 1u);
  EXPECT_EQ(m.commit_conflicts, 1u);
  EXPECT_EQ(m.retries, 1u);
  EXPECT_EQ(m.fast_commits + m.stamp_commits + m.validated_commits, 1u);
}

TEST(EmbeddingService, ZeroRetriesLosesConflictedRequests) {
  const net::Network network = one_slot_network();
  const core::MbbeEmbedder mbbe;
  const RendezvousEmbedder rendezvous(mbbe);
  EmbeddingService::Options opts;
  opts.workers = 2;
  opts.admission.max_retries = 0;
  EmbeddingService service(network, rendezvous, opts);

  auto f1 = service.submit(one_slot_request(1));
  auto f2 = service.submit(one_slot_request(2));
  const Response r1 = f1.get();
  const Response r2 = f2.get();
  const Response& lost = r1.accepted() ? r2 : r1;
  EXPECT_EQ(lost.outcome, Outcome::LostConflict);
  EXPECT_EQ(lost.conflicts, 1u);
  EXPECT_EQ(service.metrics().lost_conflict, 1u);
}

// ------------------------------------------------ malformed submissions --

/// one_slot_network with room for two rate-1 flows.
net::Network two_slot_network() {
  NetBuilder b(3, 1);
  b.link(0, 1, 1.0, 10.0).link(1, 2, 1.0, 10.0);
  b.put(1, 1, 5.0, 2.0);
  return b.build();
}

TEST(EmbeddingService, MalformedRequestsThrowAtSubmitAndServingGoesOn) {
  const net::Network network = one_slot_network();
  const core::MbbeEmbedder mbbe;
  EmbeddingService service(network, mbbe, {});

  // What core::ModelIndex would reject on a worker thread: endpoints that
  // are not nodes, non-positive (or NaN) rates and sizes, and rates the
  // ledger cannot count (below one 1e-9 unit, or infinite).
  const auto malformed = [](RequestId id, core::Flow flow) {
    Request req = one_slot_request(id);
    req.flow = flow;
    return req;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const core::Flow bad_flows[] = {
      {99, 2, 1.0, 1.0}, {0, 99, 1.0, 1.0}, {0, 2, 0.0, 1.0},
      {0, 2, -1.0, 1.0}, {0, 2, nan, 1.0},  {0, 2, 1.0, 0.0},
      {0, 2, 4e-10, 1.0}, {0, 2, inf, 1.0},
  };
  RequestId id = 1;
  for (const core::Flow& flow : bad_flows) {
    EXPECT_THROW((void)service.submit(malformed(id++, flow)),
                 std::invalid_argument);
  }
  // Nothing was counted for the refused requests...
  EXPECT_EQ(service.metrics().submitted, 0u);

  // ...and the service keeps serving, with capacity conserved.
  const Response r = service.submit(one_slot_request(id)).get();
  ASSERT_EQ(r.outcome, Outcome::Accepted);
  EXPECT_TRUE(service.release(id));
  service.drain();
  const MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.submitted, 1u);
  EXPECT_EQ(m.completed(), 1u);
  EXPECT_EQ(service.in_service(), 0u);
  EXPECT_EQ(service.ledger_snapshot().instance_residual(0), 1.0);
}

TEST(EmbeddingService, DuplicateIdsThrowWhileQueuedInFlightOrInService) {
  const net::Network network = two_slot_network();
  const core::MbbeEmbedder mbbe;
  const GateEmbedder gate(mbbe);
  EmbeddingService::Options opts;
  opts.workers = 1;
  EmbeddingService service(network, gate, opts);

  // In service: id 1 holds one of the two slots.
  auto f1 = service.submit(one_slot_request(1));
  gate.wait_entered();
  gate.open(1);
  ASSERT_EQ(f1.get().outcome, Outcome::Accepted);
  EXPECT_THROW((void)service.submit(one_slot_request(1)),
               std::invalid_argument);

  // In flight: the worker holds id 2 inside its solve. Queued: id 3 waits
  // behind it.
  auto f2 = service.submit(one_slot_request(2));
  gate.wait_entered();
  auto f3 = service.submit(one_slot_request(3));
  EXPECT_THROW((void)service.submit(one_slot_request(2)),
               std::invalid_argument);
  EXPECT_THROW((void)service.submit(one_slot_request(3)),
               std::invalid_argument);
  gate.open(8);
  ASSERT_EQ(f2.get().outcome, Outcome::Accepted);
  EXPECT_EQ(f3.get().outcome, Outcome::RejectedInfeasible);  // both held

  // A refused request's id is free again once it has its response.
  EXPECT_EQ(service.submit(one_slot_request(3)).get().outcome,
            Outcome::RejectedInfeasible);

  // Conservation: releasing every accepted flow returns every unit.
  EXPECT_TRUE(service.release(1));
  EXPECT_TRUE(service.release(2));
  EXPECT_FALSE(service.release(3));
  service.drain();
  const MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.submitted, 4u);
  EXPECT_EQ(m.accepted, 2u);
  EXPECT_EQ(m.releases, 2u);
  EXPECT_EQ(service.in_service(), 0u);
  const net::CapacityLedger after = service.ledger_snapshot();
  EXPECT_EQ(after.instance_residual(0), 2.0);
  EXPECT_EQ(after.link_residual(0), 10.0);
  EXPECT_EQ(after.link_residual(1), 10.0);
}

// --------------------------------------------------- stress (TSan target) --

TEST(EmbeddingServiceStress, ManyProducersConserveCapacity) {
  sim::DynamicConfig cfg;
  cfg.base.network_size = 40;
  cfg.base.network_connectivity = 4.0;
  cfg.base.catalog_size = 6;
  cfg.base.sfc_size = 3;
  cfg.base.vnf_capacity = 5.0;
  cfg.base.link_capacity = 6.0;
  cfg.base.trials = 1;
  cfg.arrival_rate = 4.0;
  cfg.num_arrivals = 160;
  const Workload workload = make_workload(cfg, 0xabcdef);

  const core::MbbeEmbedder mbbe;
  EmbeddingService::Options opts;
  opts.workers = 4;
  opts.admission.queue_capacity = cfg.num_arrivals;
  opts.admission.retry_backoff = std::chrono::nanoseconds(0);
  EmbeddingService service(workload.scenario.network, mbbe, opts);
  OpenLoopConfig open;
  open.producers = 4;
  open.window = 6;
  open.target_load = 24;
  const OpenLoopResult r = run_open_loop(service, workload.arrivals, open);

  const MetricsSnapshot& m = r.metrics;
  EXPECT_EQ(m.submitted, cfg.num_arrivals);
  // Conservation: every submitted request reached exactly one terminal
  // outcome...
  EXPECT_EQ(m.accepted + m.rejected_infeasible + m.rejected_queue_full +
                m.shed_deadline + m.lost_conflict,
            m.submitted);
  // ...every accepted flow was released, and the drained ledger is nominal.
  EXPECT_EQ(m.releases, m.accepted);
  EXPECT_TRUE(r.conserved);
  // Commit-path accounting closes too: every accept went through exactly
  // one of the fast / stamp-validated / residual-validated commit paths.
  EXPECT_EQ(m.fast_commits + m.stamp_commits + m.validated_commits,
            m.accepted);
  EXPECT_GT(m.accepted, 0u);
}

TEST(EmbeddingServiceStress, SubmitReleaseRaceOnTinyNetwork) {
  // Hammer the one-slot network from many threads: admission flips between
  // feasible and infeasible as flows come and go, and every terminal state
  // must still be accounted for.
  const net::Network network = one_slot_network();
  const core::MbbeEmbedder mbbe;
  EmbeddingService::Options opts;
  opts.workers = 4;
  opts.admission.queue_capacity = 512;
  opts.admission.retry_backoff = std::chrono::nanoseconds(0);
  EmbeddingService service(network, mbbe, opts);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> accepted{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto id =
            static_cast<RequestId>(t * kPerThread + i + 1);
        const Response r = service.submit(one_slot_request(id)).get();
        if (r.accepted()) {
          ++accepted;
          EXPECT_TRUE(service.release(id));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  service.drain();

  const MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.submitted,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(m.completed(), m.submitted);
  EXPECT_EQ(m.accepted, accepted.load());
  EXPECT_EQ(m.releases, accepted.load());
  EXPECT_EQ(service.in_service(), 0u);
  const net::CapacityLedger after = service.ledger_snapshot();
  EXPECT_DOUBLE_EQ(after.instance_residual(0), 1.0);
}

// --------------------------------------------------- driver determinism --

EmbeddingService::Options closed_loop_options(std::size_t workers) {
  EmbeddingService::Options opts;
  opts.workers = workers;
  opts.admission.retry_backoff = std::chrono::nanoseconds(0);
  opts.seed = 0x5eed;
  return opts;
}

MetricsSnapshot closed_loop_metrics(const Workload& w,
                                    const core::Embedder& e,
                                    std::size_t workers,
                                    DriverResult* out = nullptr) {
  EmbeddingService service(w.scenario.network, e,
                           closed_loop_options(workers));
  DriverResult r = run_closed_loop(service, w.arrivals);
  if (out) *out = r;
  return r.metrics;
}

TEST(ClosedLoopDriver, MetricsBitIdenticalAcrossWorkersAndPipelines) {
  sim::DynamicConfig cfg;
  cfg.base.network_size = 30;
  cfg.base.network_connectivity = 4.0;
  cfg.base.catalog_size = 6;
  cfg.base.sfc_size = 3;
  cfg.base.vnf_capacity = 4.0;
  cfg.base.link_capacity = 5.0;
  cfg.base.trials = 1;
  cfg.arrival_rate = 3.0;
  cfg.num_arrivals = 50;
  const Workload workload = make_workload(cfg, 0x1234);

  // Both a deterministic and a randomized embedder: the per-request RNG
  // streams are keyed on (seed, id, attempt), never the worker. The closed
  // loop must produce one identical metric stream at 1 and 8 workers.
  const core::MbbeEmbedder mbbe;
  const core::RanvEmbedder ranv;
  const std::size_t worker_counts[] = {1, 8};
  for (const core::Embedder* algo :
       {static_cast<const core::Embedder*>(&mbbe),
        static_cast<const core::Embedder*>(&ranv)}) {
    DriverResult ref{};
    const MetricsSnapshot a =
        closed_loop_metrics(workload, *algo, worker_counts[0], &ref);
    EXPECT_TRUE(ref.conserved) << algo->name();
    EXPECT_GT(a.accepted, 0u) << algo->name();
    // Closed loop keeps one request in flight: optimistic commits can
    // never race, so the fast path must carry every accept and the batch
    // histogram sees only singleton drains.
    EXPECT_EQ(a.commit_conflicts, 0u) << algo->name();
    EXPECT_EQ(a.stamp_commits, 0u) << algo->name();
    EXPECT_EQ(a.validated_commits, 0u) << algo->name();
    EXPECT_EQ(a.fast_commits, a.accepted) << algo->name();
    EXPECT_EQ(a.group_commit_batch.count(), a.accepted) << algo->name();
    EXPECT_DOUBLE_EQ(a.group_commit_batch.max(), 1.0) << algo->name();

    for (std::size_t i = 1; i < std::size(worker_counts); ++i) {
      const std::size_t workers = worker_counts[i];
      const auto label = [&] {
        return std::string(algo->name()) + "/w" + std::to_string(workers);
      };
      DriverResult r{};
      const MetricsSnapshot b =
          closed_loop_metrics(workload, *algo, workers, &r);
      EXPECT_EQ(a.accepted, b.accepted) << label();
      EXPECT_EQ(a.rejected_infeasible, b.rejected_infeasible) << label();
      EXPECT_EQ(a.lost_conflict, b.lost_conflict) << label();
      EXPECT_EQ(a.commit_conflicts, b.commit_conflicts) << label();
      EXPECT_EQ(a.retries, b.retries) << label();
      EXPECT_EQ(a.fast_commits, b.fast_commits) << label();
      EXPECT_EQ(a.stamp_commits, b.stamp_commits) << label();
      EXPECT_EQ(a.validated_commits, b.validated_commits) << label();
      EXPECT_EQ(a.releases, b.releases) << label();
      // Bitwise: per-flow cost distribution (counts, sum, extremes).
      EXPECT_TRUE(a.cost == b.cost) << label();
      EXPECT_EQ(ref.final_epoch, r.final_epoch) << label();
      EXPECT_DOUBLE_EQ(ref.simulated_time, r.simulated_time) << label();
      EXPECT_TRUE(r.conserved) << label();
      // Every accept goes through one group-commit drain.
      EXPECT_EQ(b.group_commit_batch.count(), b.accepted) << label();
    }
  }
}

TEST(ClosedLoopDriver, TracingOnOffIsBitIdentical) {
  sim::DynamicConfig cfg;
  cfg.base.network_size = 30;
  cfg.base.network_connectivity = 4.0;
  cfg.base.catalog_size = 6;
  cfg.base.sfc_size = 3;
  cfg.base.vnf_capacity = 4.0;
  cfg.base.link_capacity = 5.0;
  cfg.base.trials = 1;
  cfg.arrival_rate = 3.0;
  cfg.num_arrivals = 50;
  const Workload workload = make_workload(cfg, 0x1234);
  const core::MbbeEmbedder mbbe;

  // Tracing is observation only: an aggressive configuration (a 1 ns
  // latency threshold that promotes every request, refusals promoted, a
  // tiny ring forcing constant wraparound) must not perturb a single
  // solve, commit decision, or counter relative to tracing disabled.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    EmbeddingService::Options off;
    off.workers = workers;
    off.seed = 0x5eed;
    EmbeddingService::Options on = off;
    on.tracing.enabled = true;
    on.tracing.ring_capacity = 8;
    on.tracing.latency_over = std::chrono::nanoseconds(1);
    on.tracing.on_refusal = true;
    EmbeddingService plain(workload.scenario.network, mbbe, off);
    EmbeddingService traced(workload.scenario.network, mbbe, on);
    const DriverResult a = run_closed_loop(plain, workload.arrivals);
    const DriverResult b = run_closed_loop(traced, workload.arrivals);
    ASSERT_NE(traced.flight_recorder(), nullptr);
    const std::uint64_t promoted = traced.flight_recorder()->promoted();
    std::uint64_t spans_emitted = 0;
    for (std::size_t lane = 0; lane < traced.span_recorder()->num_lanes();
         ++lane) {
      spans_emitted += traced.span_recorder()->emitted(lane);
    }
    EXPECT_GT(spans_emitted, 0u);
    EXPECT_GT(promoted, 0u);  // the 1 ns threshold catches every request

    // Latency histograms are wall-clock shaped, so bit-identity is asserted
    // on everything the solver and commit protocol actually decide — the
    // same field set the worker-count battery compares.
    EXPECT_EQ(a.metrics.accepted, b.metrics.accepted);
    EXPECT_EQ(a.metrics.rejected_infeasible, b.metrics.rejected_infeasible);
    EXPECT_EQ(a.metrics.lost_conflict, b.metrics.lost_conflict);
    EXPECT_EQ(a.metrics.commit_conflicts, b.metrics.commit_conflicts);
    EXPECT_EQ(a.metrics.retries, b.metrics.retries);
    EXPECT_EQ(a.metrics.fast_commits, b.metrics.fast_commits);
    EXPECT_EQ(a.metrics.stamp_commits, b.metrics.stamp_commits);
    EXPECT_EQ(a.metrics.validated_commits, b.metrics.validated_commits);
    EXPECT_EQ(a.metrics.releases, b.metrics.releases);
    EXPECT_TRUE(a.metrics.cost == b.metrics.cost);
    EXPECT_EQ(a.final_epoch, b.final_epoch);
    EXPECT_DOUBLE_EQ(a.simulated_time, b.simulated_time);
    EXPECT_TRUE(a.conserved);
    EXPECT_TRUE(b.conserved);
  }
}

TEST(ClosedLoopDriver, WorkloadIsDeterministicInSeed) {
  sim::DynamicConfig cfg;
  cfg.base.network_size = 20;
  cfg.base.catalog_size = 6;
  cfg.base.sfc_size = 3;
  cfg.base.trials = 1;
  cfg.num_arrivals = 20;
  const Workload a = make_workload(cfg, 42);
  const Workload b = make_workload(cfg, 42);
  ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.arrivals[i].at, b.arrivals[i].at);
    EXPECT_DOUBLE_EQ(a.arrivals[i].holding, b.arrivals[i].holding);
    EXPECT_EQ(a.arrivals[i].request.flow.source,
              b.arrivals[i].request.flow.source);
    EXPECT_EQ(a.arrivals[i].request.flow.destination,
              b.arrivals[i].request.flow.destination);
  }
  const Workload c = make_workload(cfg, 43);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    if (a.arrivals[i].at != c.arrivals[i].at) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

// -------------------------------------------------------------- metrics --

TEST(ServiceMetrics, JsonCarriesCountersAndPercentiles) {
  ServiceMetrics metrics;
  metrics.on_submitted();
  Response r;
  r.outcome = Outcome::Accepted;
  r.cost = 123.0;
  r.solves = 2;
  r.conflicts = 1;
  r.epoch_validated = true;
  r.queue_ms = 0.5;
  r.solve_ms = 1.5;
  metrics.on_response(r);
  const MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.commit_conflicts, 1u);
  EXPECT_EQ(snap.retries, 1u);
  EXPECT_EQ(snap.validated_commits, 1u);
  const std::string json = snap.to_json();
  for (const char* key :
       {"\"submitted\":1", "\"accepted\":1", "\"commit_conflicts\":1",
        "\"retries\":1", "\"validated_commits\":1", "\"latency_ms\"",
        "\"p99\"", "\"cost\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace dagsfc::serve
