#pragma once
/// \file serve/trace.hpp
/// Request-lifecycle tracing for the serving plane: the span vocabulary
/// (queue wait, solve attempt, commit attempt, outcome), the per-request
/// RequestTrace context worker threads thread through processing, and the
/// tail-sampled FlightRecorder that retains only the traces worth keeping.
///
/// The sampling model is Dapper/Canopy-style *tail-based* retention:
/// every request is traced into the util::SpanRecorder ring (cheap,
/// allocation-free, bounded, overwritten), and only when the request
/// *finishes badly* — latency over threshold, LostConflict, refusal,
/// watchdog fire — is its complete span set promoted into the flight
/// recorder (a mutex-guarded bounded store; promotion is the cold path by
/// construction, because triggers fire on the tail, not the body, of the
/// distribution). The ring answers "what is the service doing right now";
/// the flight recorder answers "what did the worst requests look like",
/// dumpable via GET /debug/traces.json, --flight-dump at exit, or SIGUSR1.
///
/// Determinism contract: tracing is observation only. No solver input,
/// RNG draw, or commit decision reads tracing state, so solve results and
/// outcome counters are bit-identical with tracing on or off (enforced by
/// the test_serve.cpp determinism battery).

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "serve/request.hpp"
#include "shard/ledger.hpp"
#include "util/span_recorder.hpp"

namespace dagsfc::serve {

/// Span vocabulary carried in util::SpanRecord::kind.
enum class SpanKind : std::uint8_t {
  kQueueWait = 1,  ///< submit → dequeue; arg unused
  kSolve = 2,      ///< one solve; detail = feasible, arg = candidate index
  kCommit = 3,     ///< one commit attempt; detail = CommitPath, arg = shards
  kOutcome = 4,    ///< whole request; detail = Outcome, value = cost
};

[[nodiscard]] constexpr const char* to_string(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::kQueueWait: return "queue_wait";
    case SpanKind::kSolve: return "solve";
    case SpanKind::kCommit: return "commit";
    case SpanKind::kOutcome: return "outcome";
  }
  return "unknown";
}

/// Tail-sampling trigger bits (a trace can match several).
enum TraceTrigger : std::uint8_t {
  kTriggerLatency = 1u << 0,       ///< total latency over threshold
  kTriggerLostConflict = 1u << 1,  ///< request lost commit validation
  kTriggerRefusal = 1u << 2,       ///< infeasible / queue full / shed
  kTriggerWatchdog = 1u << 3,      ///< solve watchdog fired on this request
};

/// "latency,lost_conflict" — sorted by bit, empty string for 0.
[[nodiscard]] std::string trigger_names(std::uint8_t triggers);

/// Triggered traces a service's flight recorder retains; older promotions
/// are evicted FIFO.
inline constexpr std::size_t kFlightCapacity = 64;

/// Knobs threaded through serve::EmbeddingService::Options.
struct TracingOptions {
  bool enabled = false;
  /// Span records per worker lane — the ring holds the most recent
  /// ring_capacity spans each worker emitted (~64 B per record).
  std::size_t ring_capacity = 256;
  /// Promote traces whose submit→finish latency exceeds this; 0 disables
  /// the latency trigger.
  std::chrono::nanoseconds latency_over{0};
  bool on_lost_conflict = true;
  bool on_refusal = false;
  bool on_watchdog = true;
};

/// Which triggers \p outcome / \p latency_ms / \p watchdog_fired match
/// under \p opts. 0 means "do not promote".
[[nodiscard]] std::uint8_t evaluate_triggers(const TracingOptions& opts,
                                             Outcome outcome,
                                             double latency_ms,
                                             bool watchdog_fired) noexcept;

/// Per-request span accumulator, stack-allocated in the worker around
/// processing. Spans are pushed into fixed inline storage (so the hot path
/// never allocates) and simultaneously emitted into the ring; if the
/// request later matches a trigger, the inline copy — which, unlike the
/// ring, cannot have been overwritten by other lanes' traffic — is what
/// gets promoted. An inactive trace (null recorder) is a no-op sink, the
/// same pattern as the metric handles.
class RequestTrace {
 public:
  /// More spans than any sane retry budget produces: 1 queue wait +
  /// (solve + commit) per attempt + 1 outcome.
  static constexpr std::size_t kMaxSpans = 64;

  RequestTrace() = default;
  RequestTrace(util::SpanRecorder* recorder, std::size_t lane,
               RequestId id) noexcept
      : recorder_(recorder), lane_(lane), id_(id) {}

  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  [[nodiscard]] bool active() const noexcept { return recorder_ != nullptr; }
  [[nodiscard]] RequestId id() const noexcept { return id_; }
  [[nodiscard]] std::size_t lane() const noexcept { return lane_; }

  /// Recorder-timebase "now"; 0 when inactive.
  [[nodiscard]] std::uint64_t now() const noexcept {
    return recorder_ != nullptr ? recorder_->now_ns() : 0;
  }
  /// Recorder-timebase conversion for pre-captured instants (submit time).
  [[nodiscard]] std::uint64_t at(Clock::time_point t) const noexcept {
    return recorder_ != nullptr ? recorder_->to_ns(t) : 0;
  }

  void queue_wait(std::uint64_t t0, std::uint64_t t1) noexcept {
    add(SpanKind::kQueueWait, 0, 0, t0, t1, 0, 0.0);
  }
  void solve(std::uint16_t attempt, bool feasible, std::uint64_t t0,
             std::uint64_t t1, std::uint64_t candidate, double cost) noexcept {
    add(SpanKind::kSolve, attempt, feasible ? 1 : 0, t0, t1, candidate, cost);
  }
  void commit(std::uint16_t attempt, shard::CommitPath path,
              std::uint64_t t0, std::uint64_t t1, std::uint64_t arg) noexcept {
    add(SpanKind::kCommit, attempt, static_cast<std::uint8_t>(path), t0, t1,
        arg, 0.0);
  }
  void outcome(Outcome o, std::uint64_t t0, std::uint64_t t1,
               double cost) noexcept {
    add(SpanKind::kOutcome, 0, static_cast<std::uint8_t>(o), t0, t1, 0,
        cost);
  }

  /// Spans recorded so far (inline copy, emission order).
  [[nodiscard]] std::span<const util::SpanRecord> spans() const noexcept {
    return {spans_.data(), n_};
  }
  /// Spans that did not fit in the inline buffer (still emitted to the
  /// ring; only the promoted copy is truncated).
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }

 private:
  void add(SpanKind kind, std::uint16_t attempt, std::uint8_t detail,
           std::uint64_t t0, std::uint64_t t1, std::uint64_t arg,
           double value) noexcept;

  util::SpanRecorder* recorder_ = nullptr;
  std::size_t lane_ = 0;
  RequestId id_ = 0;
  std::array<util::SpanRecord, kMaxSpans> spans_;
  std::size_t n_ = 0;
  std::uint64_t overflow_ = 0;
};

/// One retained trace: the complete span set of a request that matched a
/// trigger, plus the terminal facts the triggers were evaluated against.
struct FlightTrace {
  RequestId trace_id = 0;
  std::uint8_t triggers = 0;  ///< TraceTrigger bits that fired
  Outcome outcome = Outcome::RejectedInfeasible;
  double latency_ms = 0.0;  ///< submit → finish
  std::uint64_t dropped_spans = 0;  ///< RequestTrace inline-buffer overflow
  std::vector<util::SpanRecord> spans;
};

/// Bounded store of promoted traces. promote() is the tail-sampled cold
/// path, so a plain mutex is the right tool; dumps are byte-stable for a
/// given retained set (deterministic rendering of stored data).
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Retains \p t, evicting the oldest retained trace when full.
  void promote(FlightTrace t);

  /// Traces ever promoted (including evicted ones).
  [[nodiscard]] std::uint64_t promoted() const;
  /// Retained traces, oldest first.
  [[nodiscard]] std::vector<FlightTrace> snapshot() const;

  /// Single-line JSON document:
  /// {"promoted":N,"capacity":C,"traces":[{"trace_id":...,"triggers":[...],
  ///  "outcome":"...","latency_ms":...,"spans":[...]},...]}
  /// Byte-stable for a given retained set.
  [[nodiscard]] std::string to_json() const;

  /// Chrome trace_event JSON of the retained traces (spans as 'X' complete
  /// events, one Perfetto track per lane) — the --flight-dump format.
  [[nodiscard]] std::string to_chrome() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<FlightTrace> traces_;  // oldest first
  std::uint64_t promoted_ = 0;
};

}  // namespace dagsfc::serve
