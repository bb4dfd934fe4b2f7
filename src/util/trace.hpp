#pragma once
/// \file trace.hpp
/// Chrome trace_event export: typed events and the JSON document that
/// `about:tracing` and Perfetto load directly. core::EmbeddingTrace (the
/// per-solve audit stream) and the serve plane's flight dumps render
/// through it.

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace dagsfc::util {

/// One Chrome-trace-compatible event. `phase` follows the trace_event
/// format: 'B'egin / 'E'nd span edges, 'i'nstant, 'C'ounter, 'X' complete.
struct TraceEvent {
  std::string name;
  std::string cat;
  char phase = 'i';
  std::uint64_t ts = 0;   ///< microseconds (or a logical sequence number)
  std::uint64_t dur = 0;  ///< only meaningful for phase 'X'
  std::uint32_t tid = 0;  ///< thread lane (0 = main/unpooled)
  /// Small typed payload rendered into the Chrome "args" object.
  std::vector<std::pair<std::string, double>> num_args;
  std::vector<std::pair<std::string, std::string>> str_args;
};

/// Renders events as a Chrome trace_event JSON document (object form, so
/// Perfetto metadata could be added later). Deterministic byte-for-byte for
/// a given event sequence.
[[nodiscard]] std::string to_chrome_trace(std::span<const TraceEvent> events,
                                          std::uint32_t pid = 0);

}  // namespace dagsfc::util
