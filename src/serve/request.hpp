#pragma once
/// \file request.hpp
/// The unit of work of the online embedding service: one flow request
/// carrying its own DAG-SFC, endpoints, and an optional wall-clock deadline,
/// and the structured response the service delivers for it.

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "core/model.hpp"
#include "sfc/dag_sfc.hpp"

namespace dagsfc::serve {

using RequestId = std::uint64_t;
using Clock = std::chrono::steady_clock;

/// One embedding request. Unlike the offline harness, requests own their
/// SFC — the submitting thread hands the whole problem over and the service
/// may outlive the submitter's stack frame.
struct Request {
  RequestId id = 0;
  sfc::DagSfc sfc;
  core::Flow flow;  ///< endpoints into the service's network, rate R, size z
  /// Latest wall-clock instant at which starting to solve is still useful;
  /// requests found expired at dequeue are shed without solving.
  std::optional<Clock::time_point> deadline;
};

/// Terminal classification of a request.
enum class Outcome : std::uint8_t {
  Accepted,          ///< committed to the ledger; release(id) undoes it
  RejectedInfeasible,  ///< solver found no feasible embedding
  RejectedQueueFull,   ///< admission: bounded queue was full at submit
  SheddedDeadline,     ///< admission: deadline expired before solving
  LostConflict,        ///< feasible solves kept losing commit validation
};

[[nodiscard]] constexpr const char* to_string(Outcome o) noexcept {
  switch (o) {
    case Outcome::Accepted: return "accepted";
    case Outcome::RejectedInfeasible: return "rejected_infeasible";
    case Outcome::RejectedQueueFull: return "rejected_queue_full";
    case Outcome::SheddedDeadline: return "shed_deadline";
    case Outcome::LostConflict: return "lost_conflict";
  }
  return "unknown";
}

struct Response {
  RequestId id = 0;
  Outcome outcome = Outcome::RejectedInfeasible;
  double cost = 0.0;           ///< objective (1); meaningful iff Accepted
  /// Solver invocations: one per stage-one candidate tried, per attempt.
  std::uint32_t solves = 0;
  std::uint32_t conflicts = 0; ///< commits rejected by epoch validation
  /// True when some touched shard's epoch had moved past the snapshot at
  /// commit time, so the commit had to be validated; false for fast-path
  /// commits (epochs unchanged).
  bool epoch_validated = false;
  /// True when a moved epoch was reconciled by MVCC stamp validation alone
  /// (no resource in the solution's footprint changed since the snapshot,
  /// so the residuals the solver saw are still live — no capacity
  /// re-check). False for fast commits and for commits that needed the
  /// full residual re-check. Implies epoch_validated.
  bool stamp_validated = false;
  double queue_ms = 0.0;  ///< submit → dequeue
  double solve_ms = 0.0;  ///< dequeue → terminal outcome
  /// True when the slow-solve watchdog warned on this request while it was
  /// in flight — a tail-sampling trigger for the flight recorder.
  bool watchdog_flagged = false;

  [[nodiscard]] bool accepted() const noexcept {
    return outcome == Outcome::Accepted;
  }
};

}  // namespace dagsfc::serve
