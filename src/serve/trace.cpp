#include "serve/trace.hpp"

#include <sstream>

#include "util/check.hpp"
#include "util/json.hpp"
#include "util/trace.hpp"

namespace dagsfc::serve {

std::string trigger_names(std::uint8_t triggers) {
  std::string out;
  const auto append = [&out](const char* name) {
    if (!out.empty()) out += ',';
    out += name;
  };
  if (triggers & kTriggerLatency) append("latency");
  if (triggers & kTriggerLostConflict) append("lost_conflict");
  if (triggers & kTriggerRefusal) append("refusal");
  if (triggers & kTriggerWatchdog) append("watchdog");
  return out;
}

std::uint8_t evaluate_triggers(const TracingOptions& opts, Outcome outcome,
                               double latency_ms,
                               bool watchdog_fired) noexcept {
  std::uint8_t hit = 0;
  if (opts.latency_over.count() > 0 &&
      latency_ms >= std::chrono::duration<double, std::milli>(
                        opts.latency_over)
                        .count()) {
    hit |= kTriggerLatency;
  }
  if (opts.on_lost_conflict && outcome == Outcome::LostConflict) {
    hit |= kTriggerLostConflict;
  }
  if (opts.on_refusal && (outcome == Outcome::RejectedInfeasible ||
                          outcome == Outcome::RejectedQueueFull ||
                          outcome == Outcome::SheddedDeadline)) {
    hit |= kTriggerRefusal;
  }
  if (opts.on_watchdog && watchdog_fired) hit |= kTriggerWatchdog;
  return hit;
}

void RequestTrace::add(SpanKind kind, std::uint16_t attempt,
                       std::uint8_t detail, std::uint64_t t0, std::uint64_t t1,
                       std::uint64_t arg, double value) noexcept {
  if (recorder_ == nullptr) return;
  util::SpanRecord r;
  r.trace_id = id_;
  r.kind = static_cast<std::uint8_t>(kind);
  r.detail = detail;
  r.attempt = attempt;
  r.t0_ns = t0;
  r.t1_ns = t1;
  r.arg = arg;
  r.value = value;
  recorder_->emit(lane_, r);
  if (n_ < kMaxSpans) {
    spans_[n_++] = r;
  } else {
    ++overflow_;
  }
}

FlightRecorder::FlightRecorder(std::size_t capacity) : capacity_(capacity) {
  DAGSFC_CHECK_MSG(capacity > 0, "FlightRecorder capacity must be positive");
  traces_.reserve(capacity);
}

void FlightRecorder::promote(FlightTrace t) {
  std::lock_guard lock(mu_);
  ++promoted_;
  if (traces_.size() == capacity_) {
    traces_.erase(traces_.begin());
  }
  traces_.push_back(std::move(t));
}

std::uint64_t FlightRecorder::promoted() const {
  std::lock_guard lock(mu_);
  return promoted_;
}

std::vector<FlightTrace> FlightRecorder::snapshot() const {
  std::lock_guard lock(mu_);
  return traces_;
}

namespace {

/// detail decoded per kind — "feasible"/"infeasible" for solve spans, the
/// commit path for commit spans, the outcome for outcome spans.
std::string span_detail(const util::SpanRecord& r) {
  switch (static_cast<SpanKind>(r.kind)) {
    case SpanKind::kQueueWait:
      return {};
    case SpanKind::kSolve:
      return r.detail != 0 ? "feasible" : "infeasible";
    case SpanKind::kCommit:
      return to_string(static_cast<shard::CommitPath>(r.detail));
    case SpanKind::kOutcome:
      return to_string(static_cast<Outcome>(r.detail));
  }
  return {};
}

void render_span(std::ostringstream& os, const util::SpanRecord& r) {
  os << "{\"kind\":\"" << to_string(static_cast<SpanKind>(r.kind)) << '"';
  const std::string detail = span_detail(r);
  if (!detail.empty()) os << ",\"detail\":\"" << detail << '"';
  os << ",\"lane\":" << r.lane << ",\"attempt\":" << r.attempt
     << ",\"t0_ns\":" << r.t0_ns << ",\"t1_ns\":" << r.t1_ns;
  if (r.arg != 0) os << ",\"arg\":" << r.arg;
  if (r.value != 0.0) os << ",\"value\":" << util::json_number(r.value);
  os << '}';
}

}  // namespace

std::string FlightRecorder::to_json() const {
  std::vector<FlightTrace> traces;
  std::uint64_t promoted = 0;
  {
    std::lock_guard lock(mu_);
    traces = traces_;
    promoted = promoted_;
  }
  std::ostringstream os;
  os << "{\"promoted\":" << promoted << ",\"capacity\":" << capacity_
     << ",\"traces\":[";
  bool tf = true;
  for (const FlightTrace& t : traces) {
    if (!tf) os << ',';
    tf = false;
    os << "{\"trace_id\":" << t.trace_id << ",\"triggers\":[";
    bool gf = true;
    const std::uint8_t bits[] = {kTriggerLatency, kTriggerLostConflict,
                                 kTriggerRefusal, kTriggerWatchdog};
    for (std::uint8_t bit : bits) {
      if ((t.triggers & bit) == 0) continue;
      if (!gf) os << ',';
      gf = false;
      os << '"' << trigger_names(bit) << '"';
    }
    os << "],\"outcome\":\"" << to_string(t.outcome)
       << "\",\"latency_ms\":" << util::json_number(t.latency_ms);
    if (t.dropped_spans != 0) os << ",\"dropped_spans\":" << t.dropped_spans;
    os << ",\"spans\":[";
    bool sf = true;
    for (const util::SpanRecord& r : t.spans) {
      if (!sf) os << ',';
      sf = false;
      render_span(os, r);
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

std::string FlightRecorder::to_chrome() const {
  const std::vector<FlightTrace> traces = snapshot();
  std::vector<util::TraceEvent> events;
  for (const FlightTrace& t : traces) {
    for (const util::SpanRecord& r : t.spans) {
      util::TraceEvent e;
      e.name = to_string(static_cast<SpanKind>(r.kind));
      const std::string detail = span_detail(r);
      if (!detail.empty()) {
        e.name += '/';
        e.name += detail;
      }
      e.cat = "serve";
      e.phase = 'X';
      e.ts = r.t0_ns / 1000;
      e.dur = r.t1_ns > r.t0_ns ? (r.t1_ns - r.t0_ns) / 1000 : 0;
      if (e.dur == 0) e.dur = 1;  // Perfetto hides zero-width slices
      e.tid = r.lane;
      e.num_args.emplace_back("trace_id",
                              static_cast<double>(r.trace_id));
      e.num_args.emplace_back("attempt", static_cast<double>(r.attempt));
      if (r.arg != 0) {
        e.num_args.emplace_back("arg", static_cast<double>(r.arg));
      }
      if (r.value != 0.0) e.num_args.emplace_back("value", r.value);
      events.push_back(std::move(e));
    }
  }
  return util::to_chrome_trace(events);
}

}  // namespace dagsfc::serve
