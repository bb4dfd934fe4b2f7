#include "util/build_info.hpp"

namespace dagsfc::util {

namespace {

std::string build_flags() {
  std::string flags;
  const auto append = [&flags](const char* f) {
    if (!flags.empty()) flags += ',';
    flags += f;
  };
#if defined(__SANITIZE_ADDRESS__)
  append("asan");
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  append("asan");
#endif
#endif
#if defined(__SANITIZE_THREAD__)
  append("tsan");
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  append("tsan");
#endif
#endif
#ifdef NDEBUG
  append("ndebug");
#endif
  if (flags.empty()) flags = "none";
  return flags;
}

}  // namespace

BuildInfo build_info() {
  BuildInfo info;
#ifdef DAGSFC_VERSION
  info.version = DAGSFC_VERSION;
#else
  info.version = "dev";
#endif
  info.flags = build_flags();
  return info;
}

ProcessMetrics::ProcessMetrics(MetricRegistry& registry)
    : start_(std::chrono::steady_clock::now()) {
  const BuildInfo info = build_info();
  // Info-style metric: the value is always 1; the payload is the labels.
  registry
      .gauge("dagsfc_build_info",
             {{"version", info.version}, {"flags", info.flags}})
      .set(1.0);
  uptime_ = registry.gauge("dagsfc_uptime_seconds");
  uptime_.set(0.0);
}

void ProcessMetrics::update() const noexcept {
  uptime_.set(uptime_seconds());
}

double ProcessMetrics::uptime_seconds() const noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

}  // namespace dagsfc::util
