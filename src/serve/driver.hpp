#pragma once
/// \file driver.hpp
/// Deterministic workloads and drivers for the embedding service.
///
/// Workload generation is *open-loop*: a seeded schedule of arrivals
/// (Poisson inter-arrival times, a fresh random DAG-SFC and endpoint pair
/// per arrival, exponential holding times) is materialized up front by one
/// generator, make_arrivals, over a flat scenario (make_workload) or a
/// regional one (make_regional_workload), so a workload is a pure function
/// of its config.
///
/// Replay is *closed-loop*: run_closed_loop() submits one arrival, waits
/// for its response, applies the virtual departures that fall before the
/// next arrival, and only then advances. At most one request is ever in
/// flight, so the sequence of ledger states — and therefore every counter
/// and histogram bucket in the metrics — is a pure function of the
/// workload, bit-identical across worker counts. That property is what the
/// determinism tests pin; run_open_loop() replays the same workloads with
/// many requests in flight to exercise the optimistic-commit machinery
/// instead.
///
/// Both drivers take the service by reference, so the caller builds it —
/// flat or sharded, with whatever watchdog and tracing options — and can
/// reach it before and after the run.

#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "serve/service.hpp"
#include "sim/dynamic.hpp"
#include "sim/regional.hpp"
#include "sim/scenario.hpp"

namespace dagsfc::serve {

/// One scheduled arrival: virtual arrival instant, holding time, and the
/// fully materialized request.
struct TimedRequest {
  double at = 0.0;
  double holding = 0.0;
  Request request;
};

/// The one request generator: \p count arrivals of rate \p arrival_rate
/// into \p network, each with a fresh DAG-SFC (sim::make_sfc under
/// \p base), endpoints uniform over the nodes (distinct), base's flow rate
/// and size, and an exponential holding time of mean
/// \p mean_holding_time. Request ids are 1..count.
[[nodiscard]] std::vector<TimedRequest> make_arrivals(
    Rng& rng, const net::Network& network, const sim::ExperimentConfig& base,
    double arrival_rate, double mean_holding_time, std::size_t count);

/// A reproducible flat workload: the scenario (network) plus the arrival
/// schedule. The network must outlive any service solving into it.
struct Workload {
  sim::Scenario scenario;
  std::vector<TimedRequest> arrivals;
};

/// Materializes cfg.num_arrivals arrivals into a cfg.base scenario.
/// Deterministic in \p seed.
[[nodiscard]] Workload make_workload(const sim::DynamicConfig& cfg,
                                     std::uint64_t seed);

/// The regional counterpart: a region-labeled substrate
/// (sim::make_regional_scenario) and the same arrival recipe, endpoints
/// uniform over the whole substrate — so the fraction of cross-region
/// requests follows from the region geometry, not from the driver.
struct RegionalWorkloadConfig {
  sim::RegionalConfig regional;     ///< substrate shape + pricing
  double arrival_rate = 1.0;        ///< Poisson arrivals per time unit
  double mean_holding_time = 10.0;  ///< exponential holding mean
  std::size_t num_arrivals = 200;

  void validate() const;
};

struct RegionalWorkload {
  sim::RegionalScenario scenario;
  std::vector<TimedRequest> arrivals;
};

/// Deterministic in \p seed.
[[nodiscard]] RegionalWorkload make_regional_workload(
    const RegionalWorkloadConfig& cfg, std::uint64_t seed);

struct DriverResult {
  MetricsSnapshot metrics;
  double simulated_time = 0.0;   ///< last arrival's virtual instant
  std::uint64_t final_epoch = 0; ///< EmbeddingService::epoch after the drain
  /// Residuals returned to nominal after every accepted flow departed —
  /// the conservation invariant, checked on every run.
  bool conserved = false;
};

/// Replays \p arrivals closed-loop through \p service, releasing
/// departures in virtual time, then releases the remaining in-service
/// flows. Deterministic in the arrivals and the service's seed for any
/// worker count.
[[nodiscard]] DriverResult run_closed_loop(
    EmbeddingService& service, std::span<const TimedRequest> arrivals);

/// Open-loop replay: contention mode for the benches and the CLI.
struct OpenLoopConfig {
  /// Producer threads; each submits its stride of the schedule with up to
  /// `window` responses outstanding before it settles the oldest, so the
  /// service sees many concurrent requests (windowed open loop).
  std::size_t producers = 2;
  std::size_t window = 8;
  /// Target flows concurrently in service; each producer releases its own
  /// oldest accepted flows beyond its share, racing departures against the
  /// other producers' commits.
  std::size_t target_load = 16;
  /// Per-request deadline measured from submit; zero disables.
  std::chrono::nanoseconds deadline{0};
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

/// Replays \p arrivals open-loop (cfg.producers submitting threads, many
/// requests in flight) through \p service. This is the mode that actually
/// exercises optimistic commits: views go stale while other workers
/// commit, so the validated-commit and conflict counters are live.
/// Releases every flow and drains before returning.
[[nodiscard]] OpenLoopResult run_open_loop(
    EmbeddingService& service, std::span<const TimedRequest> arrivals,
    const OpenLoopConfig& cfg);

}  // namespace dagsfc::serve
