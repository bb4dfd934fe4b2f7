#pragma once
/// \file service.hpp
/// The concurrent online embedding service — one serving core for a flat
/// network and for a sharded substrate alike.
///
/// The commit domain is always a shard::ShardedLedger, one shard per region
/// of a shard::ShardedSubstrate. A sharded service runs HIER's pipeline:
/// its stage-one candidates are up to region_paths region sets, and its
/// embedder is HIER's inner solver. A flat service (built from a Network)
/// is the one-region case: it builds a one-region substrate over its
/// network, and every request's only candidate is that region.
///
/// Lifecycle of a request (route → compose → solve → commit):
///
///   1. submit() validates the request, routes it to the *home region* of
///      its flow's source and tries that region's bounded MPMC queue; a
///      full queue resolves the returned future at once as
///      RejectedQueueFull. Each region has its own pool of
///      Options::workers threads.
///   2. A worker dequeues, sheds the request if its deadline already
///      passed, and computes the stage-one candidates (cheapest summary
///      first).
///   3. Per attempt, per candidate: ShardedLedger::compose brings the
///      worker's private ComposedView up to the live residuals of exactly
///      the candidate's regions (off-path regions read as exhausted) —
///      incrementally, copying only what changed, so the view's path cache
///      stays warm across requests — and the embedder solves against it,
///      outside every lock. The first feasible solve goes to commit.
///   4. Commit: ShardedLedger::try_commit locks only the shards owning the
///      footprint (ascending region order) and validates per shard:
///        - no shard epoch moved since compose → apply (fast commit);
///        - epochs moved but no footprint resource changed (per-resource
///          stamps) → the residuals the solver saw are still live; apply
///          (stamp-validated commit);
///        - footprint changed → re-check against the live residuals; still
///          fits → apply (validated commit). Doesn't fit → commit conflict:
///          drop the solution, back off, and start a fresh attempt, up to
///          AdmissionPolicy::max_retries times before the request counts
///          as LostConflict.
///      When no candidate of an attempt is feasible the request is
///      RejectedInfeasible — the views were consistent, so retrying against
///      an even fuller ledger cannot help.
///   5. Accepted flows stay in the flow table; release(id) (a departure)
///      credits their exact usage back to the owning shards.
///
/// The service never locks the ledger around a solve, so solutions are
/// optimistic by construction; validation at commit is what keeps the
/// no-oversubscription invariant exact under concurrency. Requests whose
/// footprints live in disjoint regions commit on disjoint shards and never
/// serialize against each other. Across candidates the service is
/// *first-feasible* (latency over optimality); the standalone
/// shard::HierarchicalEmbedder is best-of-k.
///
/// Determinism: solver RNG streams are a pure function of (seed, request
/// id, attempt) and candidate order is deterministic, so under the
/// closed-loop driver (one request in flight) every counter — per-shard
/// ones included — is bit-identical across worker counts.

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
#include "serve/admission.hpp"
#include "serve/metrics.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/trace.hpp"
#include "shard/ledger.hpp"
#include "shard/substrate.hpp"
#include "util/span_recorder.hpp"

namespace dagsfc::serve {

class EmbeddingService {
 public:
  struct Options {
    /// Worker threads per region (a flat service has one region).
    std::size_t workers = 1;
    /// queue_capacity is per region.
    AdmissionPolicy admission;
    /// Base seed of the per-request solver RNG streams: request id and
    /// attempt number are mixed in, so results depend on (seed, id,
    /// attempt) and never on which worker picked the job up.
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
    /// request gets queue-wait / per-candidate solve / per-attempt commit /
    /// outcome spans in a ring lane per worker, and trigger-matching
    /// requests are promoted to the flight recorder. Observation only —
    /// solve results and outcome counters are bit-identical with tracing
    /// on or off. Queue-full rejects resolve on the submit path and never
    /// reach a worker lane, so they are counted but not traced.
    TracingOptions tracing;
  };

  /// Flat service: one region spanning \p network, solved by \p embedder.
  /// The network and embedder must outlive the service. The embedder must
  /// be safe for concurrent solve() calls (all library embedders are —
  /// they are stateless).
  EmbeddingService(const net::Network& network, const core::Embedder& embedder,
                   Options options);
  /// Sharded service: one worker pool and ledger shard per region of
  /// \p substrate, HIER stage one with up to \p region_paths candidates,
  /// and \p inner solving each candidate's composed view. The substrate
  /// and the solver must outlive the service.
  EmbeddingService(const shard::ShardedSubstrate& substrate,
                   const core::Embedder& inner, std::size_t region_paths,
                   Options options);
  ~EmbeddingService();

  EmbeddingService(const EmbeddingService&) = delete;
  EmbeddingService& operator=(const EmbeddingService&) = delete;

  /// Hands the request to its home region's pool. Always returns a valid
  /// future; queue-full rejections resolve it immediately. Throws
  /// std::invalid_argument, before anything is counted, for a request the
  /// solver model would reject (an endpoint that is not a node, a
  /// non-positive rate or size, an SFC naming unknown types) and for an id
  /// that is already queued, in flight or in service.
  [[nodiscard]] std::future<Response> submit(Request req);

  /// Departure: credits the committed flow's exact resource usage back to
  /// the ledger. Returns false for ids that are not in service (never
  /// accepted, or already released).
  bool release(RequestId id);

  /// Flows currently holding resources.
  [[nodiscard]] std::size_t in_service() const;

  /// Blocks until every submitted request has a response. New submits
  /// during a drain are allowed and also waited for.
  void drain();

  /// Closes every queue and joins the workers; queued requests are still
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

  /// The live residuals of every resource, bit for bit (see
  /// shard::ShardedLedger::residuals).
  [[nodiscard]] net::CapacityLedger ledger_snapshot() const;
  /// Resource mutations applied so far (ShardedLedger::epoch).
  [[nodiscard]] std::uint64_t epoch() const;

  [[nodiscard]] const net::Network& network() const noexcept {
    return substrate_->network();
  }
  [[nodiscard]] const shard::ShardedSubstrate& substrate() const noexcept {
    return *substrate_;
  }
  [[nodiscard]] const shard::ShardedLedger& ledger() const noexcept {
    return ledger_;
  }
  [[nodiscard]] const Options& options() const noexcept { return opts_; }

  /// Tail-sampled trace store; null unless Options::tracing.enabled.
  [[nodiscard]] const FlightRecorder* flight_recorder() const noexcept {
    return flight_.get();
  }
  /// The always-on span ring, one lane per worker (region * workers +
  /// worker); null unless Options::tracing.enabled.
  [[nodiscard]] const util::SpanRecorder* span_recorder() const noexcept {
    return spans_.get();
  }

 private:
  struct Job {
    Request req;
    std::promise<Response> promise;
    Clock::time_point submitted{};
  };

  /// Flow-table entry: one per id that is queued, in flight or in service;
  /// the usage is filled in when the request commits.
  struct Flow {
    core::ResourceUsage usage;
    double rate = 0.0;
    bool committed = false;
  };

  /// Long-lived per-worker solver state: the warm search workspace, the
  /// composed view whose path cache survives across requests, and the
  /// stage-one candidate buffers.
  struct WorkerState {
    explicit WorkerState(const shard::ShardedSubstrate& substrate)
        : view(substrate) {}
    graph::SearchWorkspace ws;
    shard::ComposedView view;
    std::vector<std::vector<shard::RegionId>> candidates;
  };

  struct Pool {
    explicit Pool(std::size_t queue_capacity) : queue(queue_capacity) {}
    BoundedQueue<Job> queue;
    std::vector<std::thread> workers;
  };

  /// One in-flight request per worker lane, watched by the monitor thread.
  struct WatchSlot {
    RequestId id = 0;
    Clock::time_point started{};
    bool active = false;
    bool warned = false;  ///< one-time: a slow request warns exactly once
  };

  /// Shared tail of both constructors: validates options, builds the
  /// tracing plane, the pools and the watchdog, and starts the workers.
  void start();
  /// \p lane is the worker's global lane: region * workers + worker.
  void worker_loop(shard::RegionId region, std::size_t lane);
  [[nodiscard]] Response process(Job& job, WorkerState& state,
                                 RequestTrace& trace);
  void finish(Job&& job, Response&& resp);
  /// Tail sampling: promotes \p trace to the flight recorder iff \p resp
  /// matches a TracingOptions trigger.
  void maybe_promote(const RequestTrace& trace, const Response& resp);

  void begin_watch(std::size_t lane, RequestId id);
  /// Deactivates the lane's slot; returns true iff the watchdog warned on
  /// the request that just finished (the watchdog tail-sampling trigger).
  bool end_watch(std::size_t lane);
  void watchdog_loop();
  [[nodiscard]] std::chrono::nanoseconds watchdog_period() const;

  /// The flat service's one-region substrate (null for a sharded one).
  std::unique_ptr<const shard::ShardedSubstrate> own_substrate_;
  const shard::ShardedSubstrate* substrate_;
  const core::Embedder* embedder_;
  std::size_t region_paths_;
  Options opts_;

  shard::ShardedLedger ledger_;
  ServiceMetrics metrics_;

  /// Guards flows_ and in_service_.
  mutable std::mutex flows_mu_;
  std::unordered_map<RequestId, Flow> flows_;
  std::size_t in_service_ = 0;  ///< committed entries of flows_

  /// Tracing plane (null when Options::tracing.enabled is false): one ring
  /// lane per worker, plus the tail-sampled flight recorder.
  std::unique_ptr<util::SpanRecorder> spans_;
  std::unique_ptr<FlightRecorder> flight_;

  /// drain(): submitted-but-unanswered requests.
  mutable std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  std::size_t outstanding_ = 0;

  /// Watchdog state: one slot per worker lane plus the monitor thread.
  /// Guarded by watch_mu_; the monitor wakes every watchdog_period() or
  /// on stop.
  mutable std::mutex watch_mu_;
  std::condition_variable watch_cv_;
  std::vector<WatchSlot> watch_slots_;
  bool watch_stop_ = false;
  std::thread watchdog_;

  std::vector<std::unique_ptr<Pool>> pools_;  ///< one per region
  bool shut_down_ = false;
};

}  // namespace dagsfc::serve
