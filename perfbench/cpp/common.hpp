#pragma once
/// \file common.hpp
/// Measurement plumbing shared by the perfbench workloads: the benchmark's
/// own seeded generator, input digests, exact sample percentiles, the
/// counting operator new, host counters (/proc/stat steal, peak RSS) and
/// the run record every workload prints as its last stdout line.
///
/// Everything here observes the program from outside: timers around public
/// calls, counters the public API returns, and process-level facts.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t0,
                                     Clock::time_point t1 = Clock::now()) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}
[[nodiscard]] inline double s_since(Clock::time_point t0,
                                    Clock::time_point t1 = Clock::now()) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// The benchmark's own generator (SplitMix64). Inputs must not depend on
/// the library's util::Rng, so a change there cannot move what is measured.
class BenchRng {
 public:
  explicit BenchRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }
  bool bernoulli(double p) { return uniform() < p; }
  double exponential(double mean);

 private:
  std::uint64_t state_;
};

/// FNV-1a over the bytes of every value fed in; printed as 16 hex digits.
class Digest {
 public:
  void add_u64(std::uint64_t v);
  void add_f64(double v);  ///< the bit pattern, so -0.0 != 0.0
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// A run's raw observations of one quantity; percentiles are exact
/// (nearest rank over the sorted samples), never histogram buckets.
class Samples {
 public:
  void add(double x) {
    xs_.push_back(x);
    sorted_.clear();
  }
  void reserve(std::size_t n) { xs_.reserve(n); }
  [[nodiscard]] std::size_t count() const noexcept { return xs_.size(); }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;
  /// Nearest-rank percentile, \p p in (0, 100]; 0 when empty.
  [[nodiscard]] double percentile(double p) const;
  /// The same over the samples added at positions [\p begin, \p end).
  [[nodiscard]] double percentile(double p, std::size_t begin,
                                  std::size_t end) const;

 private:
  std::vector<double> xs_;  ///< in the order added
  mutable std::vector<double> sorted_;
};

/// Counting operator new (defined in common.cpp). Off until enabled; when
/// on, every allocation bumps a per-thread counter, so a caller brackets a
/// call with thread_allocs() on the same thread.
void set_alloc_counting(bool on) noexcept;
[[nodiscard]] std::uint64_t thread_allocs() noexcept;

/// Aggregate CPU tick counters from /proc/stat's first line.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuTicks read_cpu_ticks();
/// steal / all ticks between two readings; 0 when no tick elapsed.
[[nodiscard]] double steal_ratio(const CpuTicks& a, const CpuTicks& b);

/// ru_maxrss of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Everything one workload process reports; run.py turns it into the
/// benchmark's result line and the run record.
struct Record {
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;
  };

  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::string input_digest;
  std::map<std::string, std::string> cost_digests;  ///< per algorithm
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> notes;  ///< sizes and settings

  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples) {
    metrics[name] = Metric{value, unit, samples};
  }
  void fail(const std::string& why) { errors.push_back(why); }

  /// One-line JSON object.
  [[nodiscard]] std::string json() const;
};

/// setup_s and its parts bench.inputs_s (\p start -> \p inputs),
/// bench.build_s (-> \p built) and bench.warmup_s (-> \p warm).
void report_setup(Record& rec, Clock::time_point start,
                  Clock::time_point inputs, Clock::time_point built,
                  Clock::time_point warm);

/// \p num / \p den, 0 when there is nothing to divide by.
[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Sets the metrics every workload reports the same way once its ops are
/// tallied: ok_ratio, peak RSS, and the host's steal ratio over the window.
void report_run(Record& rec, const CpuTicks& t0, const CpuTicks& t1);

}  // namespace perfbench
