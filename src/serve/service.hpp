#pragma once
/// \file service.hpp
/// The concurrent online embedding service.
///
/// Lifecycle of a request (snapshot → solve → validate → commit):
///
///   1. submit() stamps the request, tries the bounded MPMC queue, and
///      returns a future; a full queue resolves it immediately as
///      RejectedQueueFull.
///   2. A worker dequeues, sheds the request if its deadline already
///      passed, then *snapshots* the shared CapacityLedger: it catches its
///      persistent ledger *replica* up under the commit mutex with
///      CapacityLedger::sync_from — an O(delta) journal replay instead of
///      an O(E+V) copy, which also keeps the replica's path cache warm
///      across requests (only entries whose footprint a committed mutation
///      flipped are evicted) — and notes the ledger's epoch().
///   3. The embedder solves against the replica, completely outside the
///      lock — this is where the milliseconds go, and why workers scale.
///   4. Commit, with validation against the live ledger:
///        - epoch unchanged → the residuals the solver saw are the live
///          residuals; apply directly (fast commit).
///        - epoch moved, but no resource in the solution's footprint
///          changed since the snapshot (per-resource version stamps,
///          footprint_unchanged_since) → the residuals the solver saw are
///          still live; apply directly (stamp-validated commit).
///        - footprint overlap → re-check the solution against the live
///          residuals (CapacityLedger::can_apply). Still fits → apply
///          (validated commit). Doesn't fit → commit conflict: drop the
///          solution, back off, and re-solve from a fresh snapshot, up to
///          AdmissionPolicy::max_retries times before the request counts
///          as LostConflict.
///   5. Accepted flows land in the committed-flow table; release(id)
///      (a departure) credits their exact usage back to the ledger.
///
/// The service never locks the ledger around a solve, so solutions are
/// optimistic by construction; validation at commit is what keeps the
/// ledger's no-oversubscription invariant exact under concurrency.
///
/// ## Group commit
///
/// Workers publish their solutions to a pending list and the first one
/// through the commit mutex becomes the *leader*, validating and applying
/// the whole batch in one critical section while the followers wait at the
/// mutex. A follower finding its entry already decided simply returns;
/// statuses are always decided before the deciding leader releases the
/// mutex, so no condition variable is needed and every request terminates.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/embedder.hpp"
#include "net/ledger.hpp"
#include "serve/admission.hpp"
#include "serve/metrics.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/trace.hpp"
#include "util/span_recorder.hpp"

namespace dagsfc::serve {

class EmbeddingService {
 public:
  struct Options {
    std::size_t workers = 1;
    AdmissionPolicy admission;
    /// Base seed of the per-request solver RNG streams: request id and
    /// retry number are mixed in, so results depend on (seed, id, retry)
    /// and never on which worker picked the job up.
    std::uint64_t seed = 0x5eedbeefULL;
    /// Slow-solve watchdog: when nonzero, a monitor thread samples the ages
    /// of in-flight requests and logs a one-time structured warning (and
    /// bumps dagsfc_serve_slow_solves_total) for each request whose
    /// processing exceeds the threshold. Zero disables the watchdog.
    std::chrono::nanoseconds slow_solve_threshold{0};
    /// Sampling period of the watchdog thread. Zero means threshold/4,
    /// clamped to [1ms, 250ms].
    std::chrono::nanoseconds watchdog_period{0};
    /// Request-lifecycle tracing (serve/trace.hpp): when enabled, every
    /// request gets queue-wait / per-attempt solve / per-attempt commit /
    /// outcome spans in a per-worker ring, and trigger-matching requests
    /// are promoted to the flight recorder. Observation only — solve
    /// results and outcome counters are bit-identical with tracing on or
    /// off. Note queue-full rejects resolve on the submit path and never
    /// reach a worker lane, so they are counted but not traced.
    TracingOptions tracing;
  };

  /// The network and embedder must outlive the service. The embedder must
  /// be safe for concurrent solve() calls (all library embedders are —
  /// they are stateless; the Monte-Carlo runner already shares them across
  /// threads).
  EmbeddingService(const net::Network& network, const core::Embedder& embedder,
                   Options options);
  ~EmbeddingService();

  EmbeddingService(const EmbeddingService&) = delete;
  EmbeddingService& operator=(const EmbeddingService&) = delete;

  /// Hands the request to the worker pool. Always returns a valid future;
  /// queue-full rejections resolve it immediately.
  [[nodiscard]] std::future<Response> submit(Request req);

  /// Departure: credits the committed flow's exact resource usage back to
  /// the ledger (bumping the epoch). Returns false for ids that are not in
  /// service (never accepted, or already released).
  bool release(RequestId id);

  /// Flows currently holding resources.
  [[nodiscard]] std::size_t in_service() const;

  /// Blocks until every submitted request has a response. New submits
  /// during a drain are allowed and also waited for.
  void drain();

  /// Closes the queue and joins the workers; queued requests are still
  /// served. Idempotent; the destructor calls it.
  void shutdown();

  [[nodiscard]] MetricsSnapshot metrics() const { return metrics_.snapshot(); }

  /// The service's metric registry — the source of the /metrics endpoint.
  /// Per-service, so two services in one process expose disjoint planes.
  [[nodiscard]] const util::MetricRegistry& metrics_registry() const noexcept {
    return metrics_.registry();
  }
  /// Mutable access, so callers can register extra instruments (e.g.
  /// util::ProcessMetrics) on the same registry the endpoint scrapes.
  [[nodiscard]] util::MetricRegistry& metrics_registry() noexcept {
    return metrics_.registry();
  }

  /// Consistent copy of the shared ledger (taken under the commit mutex).
  [[nodiscard]] net::CapacityLedger ledger_snapshot() const;
  [[nodiscard]] std::uint64_t epoch() const;

  [[nodiscard]] const net::Network& network() const noexcept { return *net_; }
  [[nodiscard]] const Options& options() const noexcept { return opts_; }

  /// Tail-sampled trace store; null unless Options::tracing.enabled.
  [[nodiscard]] const FlightRecorder* flight_recorder() const noexcept {
    return flight_.get();
  }
  /// The always-on span ring; null unless Options::tracing.enabled.
  [[nodiscard]] const util::SpanRecorder* span_recorder() const noexcept {
    return spans_.get();
  }

 private:
  struct Job {
    Request req;
    std::promise<Response> promise;
    Clock::time_point submitted{};
  };

  struct CommittedFlow {
    core::ResourceUsage usage;
    double rate = 0.0;
  };

  /// Long-lived per-worker solver state: the warm search workspace and the
  /// ledger replica whose path cache survives across requests.
  struct WorkerState {
    graph::SearchWorkspace ws;
    std::unique_ptr<net::CapacityLedger> replica;
  };

  /// One solution queued for group commit. Lives on the submitting
  /// worker's stack; the worker blocks on commit_mu_ until some leader
  /// (possibly itself) has decided it, so the pointer in pending_ never
  /// dangles.
  struct PendingCommit {
    enum class Status : std::uint8_t { kWaiting, kCommitted, kConflict };
    RequestId id = 0;
    core::ResourceUsage usage;
    double rate = 0.0;
    std::uint64_t snapshot_epoch = 0;
    // Decided by the leader, read by the owner after it acquires
    // commit_mu_ (the leader wrote while holding it — no race).
    Status status = Status::kWaiting;
    std::uint64_t commit_epoch = 0;
    bool epoch_moved = false;
    bool stamp_validated = false;
  };

  /// One in-flight request per worker, watched by the monitor thread.
  struct WatchSlot {
    RequestId id = 0;
    Clock::time_point started{};
    bool active = false;
    bool warned = false;  ///< one-time: a slow request warns exactly once
  };

  void worker_loop(std::size_t slot);
  [[nodiscard]] Response process(Job& job, WorkerState& state,
                                 RequestTrace& trace);
  void finish(Job&& job, Response&& resp);
  /// Tail sampling: promotes \p trace to the flight recorder iff \p resp
  /// matches a TracingOptions trigger.
  void maybe_promote(const RequestTrace& trace, const Response& resp);

  /// Snapshot: catches state.replica up to the shared ledger under
  /// commit_mu_ and returns the snapshot epoch.
  [[nodiscard]] std::uint64_t sync_replica(WorkerState& state);
  /// Queues \p pc and waits through commit_mu_ until it is decided —
  /// becoming the batch leader if it arrives undecided. Returns true iff
  /// committed.
  bool group_commit(PendingCommit& pc);
  /// Leader-side validate+apply of one pending commit. commit_mu_ held.
  void decide(PendingCommit& pc);

  void begin_watch(std::size_t slot, RequestId id);
  /// Deactivates the slot; returns true iff the watchdog warned on the
  /// request that just finished (the watchdog-fire tail-sampling trigger).
  bool end_watch(std::size_t slot);
  void watchdog_loop();
  [[nodiscard]] std::chrono::nanoseconds watchdog_period() const;

  const net::Network* net_;
  const core::Embedder* embedder_;
  Options opts_;

  /// Guards ledger_ and committed_ (commits, releases, snapshots).
  mutable std::mutex commit_mu_;
  net::CapacityLedger ledger_;
  std::unordered_map<RequestId, CommittedFlow> committed_;

  /// Group-commit intake. Lock order: commit_mu_ before pending_mu_ when
  /// both are needed; publishing holds only pending_mu_. Never acquire
  /// commit_mu_ while holding pending_mu_.
  std::mutex pending_mu_;
  std::vector<PendingCommit*> pending_;

  BoundedQueue<Job> queue_;
  ServiceMetrics metrics_;

  /// Tracing plane (null when Options::tracing.enabled is false): one ring
  /// lane per worker, plus the tail-sampled flight recorder.
  std::unique_ptr<util::SpanRecorder> spans_;
  std::unique_ptr<FlightRecorder> flight_;

  /// drain(): submitted-but-unanswered requests.
  mutable std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  std::size_t outstanding_ = 0;

  /// Watchdog state: one slot per worker plus the monitor thread. Guarded
  /// by watch_mu_; the monitor wakes every watchdog_period() or on stop.
  mutable std::mutex watch_mu_;
  std::condition_variable watch_cv_;
  std::vector<WatchSlot> watch_slots_;
  bool watch_stop_ = false;
  std::thread watchdog_;

  std::vector<std::thread> workers_;
  bool shut_down_ = false;
};

}  // namespace dagsfc::serve
