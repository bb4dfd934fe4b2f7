#pragma once
/// \file driver.hpp
/// Deterministic drivers for the embedding service.
///
/// Workload generation is *open-loop*: a seeded schedule of arrivals
/// (Poisson inter-arrival times, a fresh random DAG-SFC and endpoint pair
/// per arrival, exponential holding times) is materialized up front with
/// the same generator plumbing as sim::run_dynamic, so a workload is a pure
/// function of its config.
///
/// Replay is *closed-loop*: run_closed_loop() submits one arrival, waits
/// for its response, applies the virtual departures that fall before the
/// next arrival, and only then advances. At most one request is ever in
/// flight, so the sequence of ledger states — and therefore every counter
/// and histogram bucket in the metrics — is a pure function of the
/// workload, bit-identical across worker counts. That property is what the
/// determinism tests pin; the throughput bench replays the same workloads
/// open-loop (many in flight) to exercise the optimistic-commit machinery
/// instead.

#include <cstdint>
#include <functional>
#include <vector>

#include "core/embedder.hpp"
#include "serve/service.hpp"
#include "sim/dynamic.hpp"
#include "sim/scenario.hpp"

namespace dagsfc::serve {

/// One scheduled arrival: virtual arrival instant, holding time, and the
/// fully materialized request.
struct TimedRequest {
  double at = 0.0;
  double holding = 0.0;
  Request request;
};

/// A reproducible serving workload: the scenario (network) plus the
/// arrival schedule. The network must outlive any service solving into it.
struct Workload {
  sim::Scenario scenario;
  std::vector<TimedRequest> arrivals;
};

/// Materializes the schedule for \p cfg (cfg.num_arrivals arrivals into a
/// cfg.base scenario). Deterministic in \p seed; uses the same scenario /
/// SFC generators as sim::run_dynamic.
[[nodiscard]] Workload make_workload(const sim::DynamicConfig& cfg,
                                     std::uint64_t seed);

/// Observability knobs forwarded to the EmbeddingService the drivers build
/// internally, plus a hook to reach the live service (e.g. to attach a
/// /metrics HTTP endpoint to its registry for the duration of the run).
struct ServiceTuning {
  std::chrono::nanoseconds slow_solve_threshold{0};  ///< 0 = watchdog off
  std::chrono::nanoseconds watchdog_period{0};       ///< 0 = threshold/4
  /// Forwarded to EmbeddingService::Options::tracing — request-lifecycle
  /// spans + tail-sampled flight recorder. Reach the recorders through the
  /// service in on_start/on_finish.
  TracingOptions tracing;
  /// Called once, after the service starts and before any submit.
  std::function<void(EmbeddingService&)> on_start;
  /// Called once, after the drain and final metrics capture but before the
  /// service (and its registry) is destroyed — detach anything on_start
  /// attached here, or it dangles.
  std::function<void(EmbeddingService&)> on_finish;
};

struct DriverResult {
  MetricsSnapshot metrics;
  double simulated_time = 0.0;   ///< last arrival's virtual instant
  std::uint64_t final_epoch = 0; ///< ledger epoch after the full drain
  /// Residuals returned to nominal after every accepted flow departed —
  /// the conservation invariant, checked on every run.
  bool conserved = false;
};

/// Replays \p workload closed-loop through a fresh EmbeddingService with
/// \p workers solver threads, releasing departures in virtual time, then
/// drains the remaining in-service flows. Deterministic in the workload
/// and seed for any worker count.
[[nodiscard]] DriverResult run_closed_loop(
    const Workload& workload, const core::Embedder& embedder,
    std::size_t workers, const AdmissionPolicy& admission = {},
    std::uint64_t seed = 0x5eedbeefULL, const ServiceTuning& tuning = {});

/// Open-loop replay: contention mode for the bench and the CLI.
struct OpenLoopConfig {
  std::size_t workers = 4;
  /// Producer threads; each submits its stride of the schedule with up to
  /// `window` responses outstanding before it settles the oldest, so the
  /// service sees many concurrent requests (windowed open loop).
  std::size_t producers = 2;
  std::size_t window = 8;
  /// Target flows concurrently in service; each producer releases its own
  /// oldest accepted flows beyond its share, racing departures against the
  /// other producers' commits.
  std::size_t target_load = 16;
  AdmissionPolicy admission;
  std::uint64_t seed = 0x5eedbeefULL;
  /// Per-request deadline measured from submit; zero disables.
  std::chrono::nanoseconds deadline{0};
  ServiceTuning tuning;
};

struct OpenLoopResult {
  MetricsSnapshot metrics;
  double wall_seconds = 0.0;
  bool conserved = false;  ///< residuals nominal after the full drain

  [[nodiscard]] double throughput_rps() const noexcept {
    return wall_seconds > 0.0
               ? static_cast<double>(metrics.completed()) / wall_seconds
               : 0.0;
  }
};

/// Replays \p workload open-loop (cfg.producers submitting threads, many
/// requests in flight) through a fresh EmbeddingService. This is the mode
/// that actually exercises optimistic commits: snapshots go stale while
/// other workers commit, so the validated-commit and conflict counters are
/// live. Releases every flow and drains before returning.
[[nodiscard]] OpenLoopResult run_open_loop(const Workload& workload,
                                           const core::Embedder& embedder,
                                           const OpenLoopConfig& cfg);

}  // namespace dagsfc::serve
