#pragma once
/// \file build_info.hpp
/// Process-level identity metrics: `dagsfc_build_info{version=,flags=}` (an
/// info-style gauge pinned to 1, Prometheus' idiom for attaching build
/// metadata to a scrape) and `dagsfc_uptime_seconds` (seconds since
/// registration). Both CLIs register these on the default registry at
/// startup so every exposition answers "which binary, built how, up for how
/// long" without shelling out to the box.

#include <chrono>
#include <string>

#include "util/metrics.hpp"

namespace dagsfc::util {

/// Compile-time identity of this binary.
struct BuildInfo {
  std::string version;  ///< project version (CMake), "dev" if unset
  std::string flags;    ///< comma-joined build flags ("asan,ndebug", "none")
};

/// The identity baked into this translation unit's build.
[[nodiscard]] BuildInfo build_info();

/// Registers the two process metrics on \p registry and keeps the uptime
/// gauge fresh via update(). The build-info gauge never changes after
/// construction; uptime is whatever update() last stamped, so callers wire
/// update() into their scrape path (MetricsHttpServer's before_scrape hook)
/// or a reporter tick.
class ProcessMetrics {
 public:
  explicit ProcessMetrics(MetricRegistry& registry = MetricRegistry::global());

  /// Stamps dagsfc_uptime_seconds with seconds since construction.
  void update() const noexcept;
  [[nodiscard]] double uptime_seconds() const noexcept;

 private:
  std::chrono::steady_clock::time_point start_;
  Gauge uptime_;
};

}  // namespace dagsfc::util
