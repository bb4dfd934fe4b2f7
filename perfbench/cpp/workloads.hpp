#pragma once
/// \file workloads.hpp
/// The three perfbench workloads. Each runs in its own process, measures
/// for RunArgs::seconds after a fixed-count warm-up, checks its outputs,
/// and returns the run record (see README.md for every metric).
/// regional_hier is held out of BENCHMARK.json (README.md, "Known defect").

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct RunArgs {
  /// Taken first thing in main(): setup_s runs from here to the first
  /// timed op.
  Clock::time_point start = Clock::now();
  std::uint64_t seed = 1;
  /// 0 runs the set-up only: inputs, program objects and warm-up, then
  /// the warm-up's correctness checks, without a timed phase.
  double seconds = 10.0;
  /// The traced run: call timers, the timing decorator, the counting
  /// operator new and the shard plane's span recorder are on.
  bool traced = false;

  [[nodiscard]] bool setup_only() const { return seconds == 0.0; }
};

/// The serving workloads' substrate is the same for every seed; --seed
/// drives only their traffic. One 60-node network is too small a sample of
/// its generator: between two seeds that also redrew it, serve_churn's
/// throughput moved by a third.
inline constexpr std::uint64_t kSubstrateSeed = 0x5eed0f5b57a7eULL;

/// Commit retries of the serving workloads (service default: 3). At 3,
/// a 20 s serve_churn run lost 3-4 requests to LostConflict, which the
/// correctness gate counts as failures; each record carries the per-request
/// conflict histogram.
inline constexpr std::uint32_t kMaxRetries = 8;

[[nodiscard]] Record run_fig6_offline(const RunArgs& args);
[[nodiscard]] Record run_serve_churn(const RunArgs& args);
[[nodiscard]] Record run_regional_hier(const RunArgs& args);

}  // namespace perfbench
