#pragma once
/// \file serving.hpp
/// The closed-loop load driver shared by serve_churn and regional_hier,
/// and the timing core::Embedder decorator of the traced serve_churn run.
///
/// One driver thread keeps a fixed number of requests outstanding per lane.
/// A lane is a fixed sub-sequence of the request pool: the whole pool for
/// the flat service, the requests homed on one shard for the sharded one,
/// so that every worker always has queued work. The k-th submit of the
/// process (0-based) arrives at virtual time k; an accepted flow departs at
/// k + its holding time, and departures are released just before the
/// first submit whose virtual time reaches them. Load therefore never
/// depends on wall-clock time: a slow run serves the same requests, later.

#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <mutex>
#include <queue>
#include <string>
#include <vector>

#include "core/embedder.hpp"
#include "inputs.hpp"
#include "serve/request.hpp"

namespace perfbench {

namespace serve = dagsfc::serve;

/// The serving workloads' request recipe: flow rates drawn uniformly from
/// kRates, exponential holding times of mean kMeanHolding arrivals. On
/// serve_churn this refuses about 7% of requests for capacity.
inline const std::vector<double> kRates = {0.3, 0.7, 1.0, 1.3};
inline constexpr double kMeanHolding = 250.0;

/// Everything the driver observed inside the timed window.
struct Window {
  Clock::time_point t0{};
  Clock::time_point t_last{};  ///< last completion counted in the window
  std::uint64_t ops = 0;       ///< requests that reached a terminal outcome
  std::uint64_t accepted = 0;
  std::uint64_t solves = 0;  ///< Response::solves summed
  double cost_sum = 0.0;     ///< accepted costs
  Samples latency_ms;      ///< submit() call -> response observed
  double slice_s = 1.0;    ///< length of one slice of the window
  std::size_t slices = 0;  ///< whole slices in the window
  /// Index into latency_ms of the first sample of each slice: slice k
  /// holds the ops completed in [t0 + k * slice_s, t0 + (k + 1) * slice_s).
  std::vector<std::size_t> slice_begin;
  // Traced run only, so that the untraced run's memory, and so its
  // peak_rss_mb, grows by as little as possible with the ops it completes.
  Samples queue_ms;         ///< Response::queue_ms
  Samples service_ms;       ///< Response::solve_ms (dequeue -> terminal)
  Samples unattributed_ms;  ///< latency - queue - service
  Samples submit_us;        ///< submit() call
  Samples release_us;       ///< release() call
  std::vector<serve::RequestId> ids;

  [[nodiscard]] double seconds() const { return s_since(t0, t_last); }
};

/// Latency samples reserved per window: over 20,000 ops/s for 45 s.
inline constexpr std::size_t kMaxWindowOps = std::size_t{1} << 20;

template <class Service>
class ClosedLoop {
 public:
  /// \p lanes lists pool indices per lane; \p per_lane requests of each
  /// lane are kept in flight; the timed window is cut into slices of
  /// \p slice_s seconds; \p traced adds the traced run's submit()/release()
  /// call timers and per-layer samples.
  ClosedLoop(Service& service, const std::vector<FlowRequest>& pool,
             std::vector<std::vector<std::size_t>> lanes, std::size_t per_lane,
             double slice_s, bool traced)
      : svc_(&service),
        pool_(&pool),
        lanes_(std::move(lanes)),
        per_lane_(per_lane),
        traced_(traced),
        lane_next_(lanes_.size(), 0),
        lane_pending_(lanes_.size(), 0) {
    // Completion polling sleeps 50us at a time; without this the kernel's
    // default 50us timer slack would double every sleep.
    prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
    // Reserved, not touched: the latency samples then add 8 bytes per op
    // to the peak RSS instead of stepping with every doubling of the vector.
    window_.latency_ms.reserve(kMaxWindowOps);
    window_.slice_s = slice_s;
  }

  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Fixed-count phase: returns once \p count more requests completed.
  void run_count(std::uint64_t count) {
    const std::uint64_t target = completed_ + count;
    while (completed_ < target) {
      top_up();
      poll();
    }
  }

  /// The timed window: runs for \p seconds of wall time.
  void run_window(double seconds) {
    window_.t0 = Clock::now();
    window_.t_last = window_.t0;
    deadline_ = window_.t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    // A window shorter than a slice is one slice of its own length.
    if (seconds > 0.0 && seconds < window_.slice_s) window_.slice_s = seconds;
    window_.slices = static_cast<std::size_t>(seconds / window_.slice_s);
    in_window_ = true;
    while (Clock::now() < deadline_) {
      top_up();
      poll();
    }
    in_window_ = false;
  }

  /// Stops submitting, collects every outstanding response, drains the
  /// service and releases every flow still in service.
  void finish() {
    while (!pending_.empty()) poll();
    svc_->drain();
    while (!departures_.empty()) {
      svc_->release(departures_.top().id);
      departures_.pop();
    }
  }

  [[nodiscard]] const Window& window() const noexcept { return window_; }
  [[nodiscard]] std::uint64_t submitted() const noexcept { return next_seq_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& errors() const noexcept {
    return errors_;
  }
  /// Adds this loop's requests, failures and their reasons to \p rec.
  void tally(Record& rec) const {
    rec.attempted += next_seq_;
    rec.failed += failed_;
    for (const std::string& e : errors_) rec.fail(e);
  }
  /// Responses by commit conflicts suffered (0, 1, 2, 3, 4 or more): how
  /// close the run came to LostConflict, which fails the correctness gate.
  [[nodiscard]] std::string conflict_histogram() const {
    std::string out;
    for (std::size_t k = 0; k < conflict_hist_.size(); ++k) {
      out += (k ? " " : "") + std::to_string(conflict_hist_[k]);
    }
    return out;
  }

 private:
  struct Pending {
    serve::RequestId id = 0;
    std::uint64_t seq = 0;
    std::size_t lane = 0;
    std::size_t request = 0;  ///< pool index
    Clock::time_point t0{};
    std::future<serve::Response> fut;
  };
  struct Departure {
    double at = 0.0;
    serve::RequestId id = 0;
    bool operator>(const Departure& o) const {
      return at != o.at ? at > o.at : id > o.id;
    }
  };

  void top_up() {
    for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
      while (lane_pending_[lane] < per_lane_) submit_one(lane);
    }
  }

  void submit_one(std::size_t lane) {
    const std::uint64_t seq = next_seq_++;
    const auto now_virtual = static_cast<double>(seq);
    while (!departures_.empty() && departures_.top().at <= now_virtual) {
      const auto r0 = Clock::now();
      svc_->release(departures_.top().id);
      if (in_window_ && traced_) {
        window_.release_us.add(ms_since(r0) * 1e3);
      }
      departures_.pop();
    }
    const std::vector<std::size_t>& order = lanes_[lane];
    const std::size_t request = order[lane_next_[lane]++ % order.size()];
    const FlowRequest& src = (*pool_)[request];
    serve::Request req;
    req.id = seq + 1;
    req.sfc = src.sfc;
    req.flow = src.flow;
    const auto t0 = Clock::now();
    std::future<serve::Response> fut = svc_->submit(std::move(req));
    if (in_window_ && traced_) window_.submit_us.add(ms_since(t0) * 1e3);
    pending_.push_back(Pending{seq + 1, seq, lane, request, t0, std::move(fut)});
    ++lane_pending_[lane];
  }

  /// Collects every ready response; when none is ready, waits up to 50us
  /// for the oldest.
  void poll() {
    bool any = false;
    for (std::size_t i = 0; i < pending_.size();) {
      if (pending_[i].fut.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        complete(pending_[i], Clock::now());
        --lane_pending_[pending_[i].lane];
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        any = true;
      } else {
        ++i;
      }
    }
    if (!any && !pending_.empty()) {
      (void)pending_.front().fut.wait_for(std::chrono::microseconds(50));
    }
  }

  void complete(Pending& p, Clock::time_point t1) {
    const serve::Response r = p.fut.get();
    ++completed_;
    ++conflict_hist_[std::min<std::size_t>(r.conflicts, 4)];
    bool ok = r.id == p.id;
    if (r.outcome == serve::Outcome::Accepted) {
      ok = ok && std::isfinite(r.cost) && r.cost > 0.0;
      departures_.push(Departure{
          static_cast<double>(p.seq) + (*pool_)[p.request].holding, p.id});
    } else if (r.outcome != serve::Outcome::RejectedInfeasible) {
      ok = false;  // LostConflict, queue-full and shed count as failures
    }
    if (!ok) {
      ++failed_;
      if (errors_.size() < 8) {
        errors_.push_back("request " + std::to_string(p.id) + ": " +
                          serve::to_string(r.outcome) +
                          " cost=" + std::to_string(r.cost));
      }
    }
    if (!in_window_ || t1 > deadline_) return;
    Window& w = window_;
    const auto slice = static_cast<std::size_t>(s_since(w.t0, t1) / w.slice_s);
    while (w.slice_begin.size() <= slice) {
      w.slice_begin.push_back(w.latency_ms.count());
    }
    ++w.ops;
    w.t_last = t1;
    w.solves += r.solves;
    if (r.accepted()) {
      ++w.accepted;
      w.cost_sum += r.cost;
    }
    const double latency = ms_since(p.t0, t1);
    w.latency_ms.add(latency);
    if (!traced_) return;
    w.queue_ms.add(r.queue_ms);
    w.service_ms.add(r.solve_ms);
    w.unattributed_ms.add(latency - r.queue_ms - r.solve_ms);
    w.ids.push_back(p.id);
  }

  Service* svc_;
  const std::vector<FlowRequest>* pool_;
  std::vector<std::vector<std::size_t>> lanes_;
  std::size_t per_lane_;
  bool traced_;
  std::vector<std::size_t> lane_next_;
  std::vector<std::size_t> lane_pending_;

  std::uint64_t next_seq_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::array<std::uint64_t, 5> conflict_hist_{};
  std::vector<std::string> errors_;
  std::vector<Pending> pending_;
  std::priority_queue<Departure, std::vector<Departure>, std::greater<>>
      departures_;

  bool in_window_ = false;
  Clock::time_point deadline_{};
  Window window_;
};

/// The end-to-end metrics of a serving window. Throughput and latency are
/// medians over the window's slices of each slice's own figure, so that a
/// few seconds of host CPU steal move them only if they cover half the
/// window; accept ratio and mean cost are over the whole window.
inline void report_window(Record& rec, const Window& w) {
  std::vector<std::size_t> begin = w.slice_begin;
  begin.resize(w.slices + 1, w.latency_ms.count());
  Samples rps, p50, p99;
  std::string series;  // per-slice throughput, for the run record
  for (std::size_t k = 0; k < w.slices; ++k) {
    rps.add(static_cast<double>(begin[k + 1] - begin[k]) / w.slice_s);
    series += (k ? " " : "") + std::to_string(begin[k + 1] - begin[k]);
    p50.add(w.latency_ms.percentile(50, begin[k], begin[k + 1]));
    p99.add(w.latency_ms.percentile(99, begin[k], begin[k + 1]));
  }
  rec.set("throughput_rps", rps.percentile(50), "1/s", w.ops);
  rec.set("latency_p50_ms", p50.percentile(50), "ms", w.ops);
  rec.set("latency_p99_ms", p99.percentile(50), "ms", w.ops);
  const auto ops = static_cast<double>(w.ops);
  rec.set("accept_ratio", ratio(static_cast<double>(w.accepted), ops),
          "ratio", w.ops);
  rec.set("cost_mean", ratio(w.cost_sum, static_cast<double>(w.accepted)),
          "cost", w.accepted);
  rec.notes["window_slices"] =
      std::to_string(w.slices) + " x " + std::to_string(w.slice_s) + " s";
  rec.notes["ops_per_slice"] = series;
}

/// The per-layer metrics both serving planes report from the driver
/// thread's own observations, under \p layer ("serve" or "shard").
inline void report_window_layers(Record& rec, const Window& w,
                                 const std::string& layer,
                                 std::size_t workers) {
  rec.set(layer + ".queue_wait_ms_p50", w.queue_ms.percentile(50), "ms",
          w.ops);
  rec.set(layer + ".queue_wait_ms_p99", w.queue_ms.percentile(99), "ms",
          w.ops);
  rec.set(layer + ".release_us_p50", w.release_us.percentile(50), "us",
          w.release_us.count());
  rec.set(layer + ".release_us_p99", w.release_us.percentile(99), "us",
          w.release_us.count());
  rec.set(layer + ".worker_busy_ratio",
          ratio(w.service_ms.sum(),
                w.seconds() * 1e3 * static_cast<double>(workers)),
          "ratio", w.ops);
  rec.set(layer + ".unattributed_ms_mean", w.unattributed_ms.mean(), "ms",
          w.ops);
}

/// How commits resolved: fast / stamp-validated / residual-validated
/// shares of all successful commits, under \p layer.
inline void report_commit_classes(Record& rec, const std::string& layer,
                                  std::uint64_t fast, std::uint64_t stamp,
                                  std::uint64_t validated) {
  const std::uint64_t n = fast + stamp + validated;
  const auto dn = static_cast<double>(n);
  rec.set(layer + ".fast_commit_ratio", ratio(static_cast<double>(fast), dn),
          "ratio", n);
  rec.set(layer + ".stamp_commit_ratio",
          ratio(static_cast<double>(stamp), dn), "ratio", n);
  rec.set(layer + ".validated_commit_ratio",
          ratio(static_cast<double>(validated), dn), "ratio", n);
}

/// Wraps an embedder and times every solve the service runs through it,
/// counting the allocations made on the solving thread. Recording is on
/// only between set_recording(true) and set_recording(false).
class TimedEmbedder final : public core::Embedder {
 public:
  struct Totals {
    Samples solve_ms;    ///< feasible solves
    Samples refusal_ms;  ///< infeasible solves
    std::uint64_t allocs = 0;
    graph::PathQueryCounters queries;
  };

  explicit TimedEmbedder(const core::Embedder& inner) : inner_(&inner) {}

  [[nodiscard]] std::string name() const override {
    return inner_->name() + "/timed";
  }
  void set_recording(bool on) { recording_.store(on); }
  [[nodiscard]] Totals totals() const {
    std::lock_guard lock(mu_);
    return totals_;
  }

 protected:
  [[nodiscard]] core::SolveResult do_solve(
      const core::ModelIndex& index, const net::CapacityLedger& ledger,
      Rng& rng, core::TraceSink* trace,
      graph::SearchWorkspace* workspace) const override {
    const std::uint64_t a0 = thread_allocs();
    const auto t0 = Clock::now();
    core::SolveResult r = inner_->solve(index, ledger, rng, trace, workspace);
    const double ms = ms_since(t0);
    const std::uint64_t allocs = thread_allocs() - a0;
    if (recording_.load()) {
      std::lock_guard lock(mu_);
      (r.ok() ? totals_.solve_ms : totals_.refusal_ms).add(ms);
      totals_.allocs += allocs;
      totals_.queries += r.path_queries;
    }
    return r;
  }

 private:
  const core::Embedder* inner_;
  std::atomic<bool> recording_{false};
  mutable std::mutex mu_;
  mutable Totals totals_;
};

}  // namespace perfbench
