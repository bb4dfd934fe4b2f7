#pragma once
/// \file metrics.hpp
/// The unified telemetry plane: a MetricRegistry of named Counter / Gauge /
/// Histogram instruments with stable `name{label="value"}` identity and two
/// byte-stable exposition formats — Prometheus text and JSON.
///
/// Hot-path contract: incrementing an instrument takes zero locks and zero
/// heap allocations. Counters stripe their value across 16 cache-line-sized
/// cells (each thread picks a fixed stripe, relaxed fetch_add) and are
/// summed on snapshot. Gauges are a single relaxed atomic double (set) with
/// a CAS loop for add. Histograms are deliberately NOT striped: bucket
/// counts and the sample count are relaxed atomics (exact under any
/// interleaving), but the running float sum/min/max go through CAS loops on
/// one shared cell, so the sum is bit-deterministic exactly when the
/// observation order is — the closed-loop serve driver's one-in-flight
/// regime — and merely order-sensitive-in-the-last-ulp under real
/// contention. Striped histograms would break the serve layer's bitwise
/// snapshot-equality tests (shards merge in scheduling order).
///
/// Naming convention (linted at registration): `dagsfc_[a-z0-9_]+` with the
/// conventional Prometheus unit suffixes `_total` (counters), `_seconds`,
/// `_bytes`, `_ratio`. Labels discriminate instances (`algo="mbbe"`,
/// `phase="mbbe/forward"`); the (name, sorted labels) pair is the identity,
/// and registering the same identity twice returns the same instrument.
///
/// Exposition is rendered from a RegistrySnapshot whose samples are sorted
/// by (name, labels), so the bytes depend only on the registered set and
/// the values — never on registration or increment order.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace dagsfc::util {

/// Sorted, duplicate-free (key, value) pairs; part of instrument identity.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

/// True iff \p name matches ^dagsfc_[a-z0-9_]+$ — the registry's lint,
/// enforced at registration so the namespace stays Prometheus-clean.
[[nodiscard]] bool valid_metric_name(const std::string& name) noexcept;

/// Shared percent rendering ("97.3%") used by core/report's inline text and
/// the sweep detail table, so cache hit-rates print identically everywhere.
/// \p fraction is the 0..1 ratio.
[[nodiscard]] std::string format_percent(double fraction);

/// One histogram bucket's exemplar: the trace id of the worst (largest)
/// value observed in that bucket via observe_exemplar(). Links the metrics
/// plane to the flight recorder: a scrape answers "which request made p99
/// bad?" with an id the trace dump can be grepped for.
struct HistogramExemplar {
  std::size_t bucket = 0;      ///< bucket index in the histogram layout
  double value = 0.0;          ///< worst value seen in the bucket
  std::uint64_t trace_id = 0;  ///< caller-supplied id (serve: request id)
};

namespace detail {

inline constexpr std::size_t kCounterStripes = 16;

/// One cache line per stripe so concurrent increments from different
/// threads never bounce a line between cores.
struct alignas(64) CounterCell {
  std::atomic<std::uint64_t> v{0};
};

struct CounterState {
  CounterCell cells[kCounterStripes];
  [[nodiscard]] std::uint64_t sum() const noexcept;
};

struct GaugeState {
  std::atomic<double> v{0.0};
};

/// Shared (unstriped) histogram cells — see the file comment for why.
class HistogramState {
 public:
  HistogramState(double min_bound, double max_bound,
                 std::size_t buckets_per_decade);

  void observe(double x) noexcept;
  /// observe(x) plus a per-bucket CAS-max exemplar: if \p x is the largest
  /// value this bucket has seen, \p trace_id becomes the bucket's exemplar.
  /// Exemplars live only here (registry side), never in util::Histogram, so
  /// snapshot() stays bitwise-comparable with exemplars on or off. Under a
  /// racing pair of observers the stored id can transiently belong to the
  /// runner-up — exemplars are debugging breadcrumbs, not ground truth.
  void observe_exemplar(double x, std::uint64_t trace_id) noexcept;
  /// Materializes the atomic cells into the bitwise-comparable Histogram.
  [[nodiscard]] Histogram snapshot() const;
  /// Exemplars for every bucket that has one, in bucket order.
  [[nodiscard]] std::vector<HistogramExemplar> exemplars() const;
  [[nodiscard]] const Histogram& layout() const noexcept { return layout_; }

 private:
  struct ExemplarCell {
    /// -inf until the first exemplar lands, so any real value wins the CAS.
    std::atomic<double> value{-std::numeric_limits<double>::infinity()};
    std::atomic<std::uint64_t> trace_id{0};
  };

  const Histogram layout_;  ///< never added to; bucket math + layout identity
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::vector<ExemplarCell> exemplars_;
  std::atomic<std::uint64_t> n_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// The calling thread's counter stripe: a thread_local slot dealt once from
/// a global sequence, so increments are spread without hashing thread ids.
[[nodiscard]] std::size_t counter_stripe() noexcept;

}  // namespace detail

class MetricRegistry;

/// Monotonic event count. Handles are cheap value types pointing at
/// registry-owned state; a default-constructed handle is a no-op sink.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) const noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept;

 private:
  friend class MetricRegistry;
  explicit Counter(detail::CounterState* s) noexcept : state_(s) {}
  detail::CounterState* state_ = nullptr;
};

/// Instantaneous level (queue depth, busy workers, cumulative seconds).
class Gauge {
 public:
  Gauge() = default;
  void set(double v) const noexcept;
  void add(double delta) const noexcept;
  [[nodiscard]] double value() const noexcept;

 private:
  friend class MetricRegistry;
  explicit Gauge(detail::GaugeState* s) noexcept : state_(s) {}
  detail::GaugeState* state_ = nullptr;
};

/// Log-bucketed value distribution; snapshot() yields a util::Histogram
/// with the registered layout.
class HistogramMetric {
 public:
  HistogramMetric() = default;
  void observe(double x) const noexcept;
  /// observe(x) that also tags the bucket's worst-value exemplar with
  /// \p trace_id — see detail::HistogramState::observe_exemplar.
  void observe_exemplar(double x, std::uint64_t trace_id) const noexcept;
  [[nodiscard]] Histogram snapshot() const;

 private:
  friend class MetricRegistry;
  explicit HistogramMetric(detail::HistogramState* s) noexcept : state_(s) {}
  detail::HistogramState* state_ = nullptr;
};

/// One instrument's value at snapshot time. Only the field matching `kind`
/// is meaningful.
struct MetricSample {
  std::string name;
  MetricLabels labels;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t counter = 0;
  double gauge = 0.0;
  Histogram histogram;
  /// Histogram-only: per-bucket worst-request exemplars. Rendered in the
  /// JSON exposition; the Prometheus 0.0.4 text format has no exemplar
  /// syntax, so the text bytes are unchanged whether exemplars exist.
  std::vector<HistogramExemplar> exemplars;
};

/// Point-in-time copy of every instrument, sorted by (name, labels).
struct RegistrySnapshot {
  std::vector<MetricSample> samples;

  [[nodiscard]] const MetricSample* find(const std::string& name,
                                         const MetricLabels& labels = {}) const;
  /// 0 / 0.0 when the instrument is absent.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name,
                                            const MetricLabels& labels = {})
      const noexcept;
  [[nodiscard]] double gauge_value(const std::string& name,
                                   const MetricLabels& labels = {})
      const noexcept;

  /// Prometheus text exposition format 0.0.4. Deterministic byte-for-byte
  /// for a given set of (identity, value) pairs.
  [[nodiscard]] std::string prometheus() const;
  /// Single-line JSON document `{"metrics":[...]}` (util::json rendering,
  /// so numbers are deterministic too).
  [[nodiscard]] std::string json() const;
};

/// The instrument store. register-or-lookup methods are mutex-guarded (cold
/// path); the returned handles touch only their own atomic state.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Registers (or looks up) an instrument. Throws ContractViolation on a
  /// name failing valid_metric_name(), duplicate label keys, or an identity
  /// already registered as a different kind (or histogram layout).
  Counter counter(const std::string& name, MetricLabels labels = {});
  Gauge gauge(const std::string& name, MetricLabels labels = {});
  HistogramMetric histogram(const std::string& name, MetricLabels labels = {},
                            double min_bound = 1e-3, double max_bound = 1e9,
                            std::size_t buckets_per_decade = 16);

  [[nodiscard]] RegistrySnapshot snapshot() const;
  [[nodiscard]] std::string expose_prometheus() const;
  [[nodiscard]] std::string expose_json() const;

  /// The process-wide registry (solver phase meters, path-query roll-ups).
  /// Leaked on purpose so instruments outlive every static/thread_local
  /// destructor that might still increment them at exit.
  [[nodiscard]] static MetricRegistry& global();

 private:
  struct Key {
    std::string name;
    MetricLabels labels;
    [[nodiscard]] bool operator<(const Key& o) const noexcept {
      return name != o.name ? name < o.name : labels < o.labels;
    }
  };
  struct Instrument {
    MetricKind kind = MetricKind::Counter;
    std::unique_ptr<detail::CounterState> counter;
    std::unique_ptr<detail::GaugeState> gauge;
    std::unique_ptr<detail::HistogramState> histogram;
  };

  Instrument& lookup(const std::string& name, MetricLabels&& labels,
                     MetricKind kind);

  mutable std::mutex mu_;
  std::map<Key, Instrument> instruments_;
};

/// Cumulative wall-time meter for one named phase:
/// `dagsfc_phase_seconds{phase=...}` (gauge, busy seconds) and
/// `dagsfc_phase_calls_total{phase=...}`. The DAGSFC_PHASE_SCOPE macro
/// below instantiates one per site as a function-local static, so the
/// registry lookup happens once per site, not per call.
class PhaseMeter {
 public:
  PhaseMeter(MetricRegistry& registry, const std::string& phase);
  /// Meters into MetricRegistry::global().
  explicit PhaseMeter(const std::string& phase);

  void record(double seconds) const noexcept {
    seconds_.add(seconds);
    calls_.inc();
  }

 private:
  Gauge seconds_;
  Counter calls_;
};

/// RAII timer feeding a PhaseMeter at scope exit.
class PhaseTimer {
 public:
  explicit PhaseTimer(const PhaseMeter& meter) noexcept
      : meter_(&meter), t0_(std::chrono::steady_clock::now()) {}
  ~PhaseTimer() {
    meter_->record(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0_)
                       .count());
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  const PhaseMeter* meter_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace dagsfc::util

// Meters the enclosing scope as phase `name` on the global registry
// (dagsfc_phase_seconds / dagsfc_phase_calls_total): a function-local
// static PhaseMeter per site (one registry lookup per site), then a
// PhaseTimer per entry (two relaxed atomics at scope exit).
#define DAGSFC_PHASE_CONCAT_IMPL(a, b) a##b
#define DAGSFC_PHASE_CONCAT(a, b) DAGSFC_PHASE_CONCAT_IMPL(a, b)
#define DAGSFC_PHASE_SCOPE(name)                                        \
  static const ::dagsfc::util::PhaseMeter DAGSFC_PHASE_CONCAT(          \
      dagsfc_phase_meter_, __LINE__){(name)};                           \
  const ::dagsfc::util::PhaseTimer DAGSFC_PHASE_CONCAT(                 \
      dagsfc_phase_timer_,                                              \
      __LINE__)(DAGSFC_PHASE_CONCAT(dagsfc_phase_meter_, __LINE__))
