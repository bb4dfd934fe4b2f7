#pragma once
/// \file span_recorder.hpp
/// Always-on request-lifecycle span substrate: fixed-size span records in
/// lock-free per-worker ring buffers, merged on dump.
///
/// This sits below serve::RequestTrace the way core::EmbeddingTrace's
/// event vector sits below a traced solve, but with the opposite cost
/// profile: a solve trace heap-allocates per event (fine for opt-in solver
/// tracing), while the span recorder must run on the serving hot path for
/// *every* request. So records are PODs of seven 64-bit words,
/// each lane is written by exactly one worker thread, and emission is a
/// handful of relaxed atomic stores plus one release store of the lane's
/// publication count — no locks, no allocation, no strings.
///
/// Concurrency contract:
///   * one writer per lane (the serve/shard worker owning that slot);
///   * any thread may collect() at any time. The reader snapshots a lane's
///     publication count (acquire), copies the published slots (relaxed
///     word loads), re-reads the count, and discards every record the
///     writer may have started overwriting in between. Torn records are
///     therefore *discarded by index arithmetic*, never returned — and
///     because every slot word is an atomic, the discipline is exactly as
///     data-race-free as TSan demands, not just "benign".
///
/// When a lane wraps, the oldest records are overwritten and counted as
/// dropped — tracing every request must never grow without bound inside a
/// long-running service. Timestamps are steady-clock nanoseconds since the
/// recorder's construction, so spans from different lanes merge onto one
/// timeline.

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace dagsfc::util {

/// One decoded span. `kind` / `detail` are a caller-defined vocabulary
/// (the serve layer's lives in serve/trace.hpp); the recorder only moves
/// the bits.
struct SpanRecord {
  std::uint64_t trace_id = 0;  ///< request id — groups spans into a trace
  std::uint8_t kind = 0;       ///< span vocabulary (queue wait, solve, ...)
  std::uint8_t detail = 0;     ///< kind-specific classification
  std::uint16_t attempt = 0;   ///< solve/commit attempt number
  std::uint32_t lane = 0;      ///< filled in by the recorder on collect()
  std::uint64_t t0_ns = 0;     ///< span start, ns since recorder epoch
  std::uint64_t t1_ns = 0;     ///< span end, ns since recorder epoch
  std::uint64_t arg = 0;       ///< kind-specific payload (epoch, shard mask)
  double value = 0.0;          ///< kind-specific payload (cost, latency)
};

class SpanRecorder {
 public:
  /// \p lanes single-writer rings of \p capacity_per_lane records each.
  SpanRecorder(std::size_t lanes, std::size_t capacity_per_lane);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  [[nodiscard]] std::size_t num_lanes() const noexcept {
    return lanes_.size();
  }
  [[nodiscard]] std::size_t lane_capacity() const noexcept {
    return capacity_;
  }

  /// Steady-clock nanoseconds since the recorder was constructed — the
  /// timebase of every SpanRecord this recorder holds.
  [[nodiscard]] std::uint64_t now_ns() const noexcept;
  /// Same timebase for an externally captured steady_clock instant
  /// (e.g. a request's submit time). Clamps to 0 before the epoch.
  [[nodiscard]] std::uint64_t to_ns(
      std::chrono::steady_clock::time_point t) const noexcept;

  /// Appends \p r to \p lane's ring, overwriting the oldest record when
  /// full. Allocation-free and lock-free; the caller must be \p lane's
  /// single writer. r.lane is ignored (collect() stamps it).
  void emit(std::size_t lane, const SpanRecord& r) noexcept;

  /// Total records ever emitted into / overwritten out of \p lane.
  [[nodiscard]] std::uint64_t emitted(std::size_t lane) const noexcept;
  [[nodiscard]] std::uint64_t dropped(std::size_t lane) const noexcept;

  /// Merged copy of every lane's surviving records, sorted by
  /// (t0_ns, lane, per-lane order) so the dump is one coherent timeline.
  [[nodiscard]] std::vector<SpanRecord> collect() const;

 private:
  // Seven words per slot: trace_id, packed(kind|detail|attempt), t0, t1,
  // arg, value bits, plus one spare that keeps the slot a power-of-two-ish
  // stride. Every word is a relaxed atomic — see the file comment.
  static constexpr std::size_t kWords = 7;
  struct Slot {
    std::array<std::atomic<std::uint64_t>, kWords> w;
  };
  /// One ring. alignas keeps one lane's publication counter off its
  /// neighbours' cache lines (each lane has a different writer thread).
  struct alignas(64) Lane {
    std::vector<Slot> slots;
    std::atomic<std::uint64_t> pub{0};  ///< records published so far
  };

  const std::size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

}  // namespace dagsfc::util
