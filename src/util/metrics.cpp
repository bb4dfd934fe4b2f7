#include "util/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>

#include "util/check.hpp"
#include "util/json.hpp"

namespace dagsfc::util {

bool valid_metric_name(const std::string& name) noexcept {
  constexpr const char kPrefix[] = "dagsfc_";
  constexpr std::size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (name.size() <= kPrefixLen) return false;
  if (name.compare(0, kPrefixLen, kPrefix) != 0) return false;
  for (std::size_t i = kPrefixLen; i < name.size(); ++i) {
    const char c = name[i];
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
  }
  return true;
}

std::string format_percent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

namespace detail {

std::uint64_t CounterState::sum() const noexcept {
  std::uint64_t total = 0;
  for (const CounterCell& cell : cells) {
    total += cell.v.load(std::memory_order_relaxed);
  }
  return total;
}

std::size_t counter_stripe() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot % kCounterStripes;
}

namespace {

void atomic_add(std::atomic<double>& cell, double x) noexcept {
  double cur = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(cur, cur + x,
                                     std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& cell, double x) noexcept {
  double cur = cell.load(std::memory_order_relaxed);
  while (x < cur && !cell.compare_exchange_weak(cur, x,
                                                std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& cell, double x) noexcept {
  double cur = cell.load(std::memory_order_relaxed);
  while (x > cur && !cell.compare_exchange_weak(cur, x,
                                                std::memory_order_relaxed)) {
  }
}

}  // namespace

HistogramState::HistogramState(double min_bound, double max_bound,
                               std::size_t buckets_per_decade)
    : layout_(min_bound, max_bound, buckets_per_decade),
      counts_(layout_.num_buckets()),
      exemplars_(layout_.num_buckets()),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {}

void HistogramState::observe(double x) noexcept {
  counts_[layout_.bucket_of(x)].fetch_add(1, std::memory_order_relaxed);
  n_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, x);
  atomic_min(min_, x);
  atomic_max(max_, x);
}

void HistogramState::observe_exemplar(double x,
                                      std::uint64_t trace_id) noexcept {
  observe(x);
  ExemplarCell& cell = exemplars_[layout_.bucket_of(x)];
  double cur = cell.value.load(std::memory_order_relaxed);
  // >= so a repeat of the current worst value refreshes the id too.
  while (x >= cur) {
    if (cell.value.compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
      cell.trace_id.store(trace_id, std::memory_order_relaxed);
      break;
    }
  }
}

Histogram HistogramState::snapshot() const {
  std::vector<std::uint64_t> counts(counts_.size());
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    counts[b] = counts_[b].load(std::memory_order_relaxed);
  }
  return Histogram::from_parts(layout_, std::move(counts),
                               n_.load(std::memory_order_relaxed),
                               sum_.load(std::memory_order_relaxed),
                               min_.load(std::memory_order_relaxed),
                               max_.load(std::memory_order_relaxed));
}

std::vector<HistogramExemplar> HistogramState::exemplars() const {
  std::vector<HistogramExemplar> out;
  for (std::size_t b = 0; b < exemplars_.size(); ++b) {
    const double v = exemplars_[b].value.load(std::memory_order_relaxed);
    if (v == -std::numeric_limits<double>::infinity()) continue;
    out.push_back(HistogramExemplar{
        b, v, exemplars_[b].trace_id.load(std::memory_order_relaxed)});
  }
  return out;
}

}  // namespace detail

void Counter::inc(std::uint64_t n) const noexcept {
  if (state_ == nullptr) return;
  state_->cells[detail::counter_stripe()].v.fetch_add(
      n, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const noexcept {
  return state_ != nullptr ? state_->sum() : 0;
}

void Gauge::set(double v) const noexcept {
  if (state_ != nullptr) state_->v.store(v, std::memory_order_relaxed);
}

void Gauge::add(double delta) const noexcept {
  if (state_ != nullptr) detail::atomic_add(state_->v, delta);
}

double Gauge::value() const noexcept {
  return state_ != nullptr ? state_->v.load(std::memory_order_relaxed) : 0.0;
}

void HistogramMetric::observe(double x) const noexcept {
  if (state_ != nullptr) state_->observe(x);
}

void HistogramMetric::observe_exemplar(double x,
                                       std::uint64_t trace_id) const noexcept {
  if (state_ != nullptr) state_->observe_exemplar(x, trace_id);
}

Histogram HistogramMetric::snapshot() const {
  return state_ != nullptr ? state_->snapshot() : Histogram();
}

namespace {

/// Sorts by key and rejects duplicates/empty keys — labels are identity, so
/// {a,b} and {b,a} must collapse to one instrument.
MetricLabels canonical_labels(MetricLabels labels) {
  std::sort(labels.begin(), labels.end());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    DAGSFC_CHECK_MSG(!labels[i].first.empty(), "empty metric label key");
    DAGSFC_CHECK_MSG(i == 0 || labels[i].first != labels[i - 1].first,
                     "duplicate metric label key: " + labels[i].first);
  }
  return labels;
}

std::string render_label_set(const MetricLabels& labels,
                             const std::string* le = nullptr) {
  if (labels.empty() && le == nullptr) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += json_escape(v);
    out += '"';
  }
  if (le != nullptr) {
    if (!first) out += ',';
    out += "le=\"";
    out += *le;
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace

MetricRegistry::Instrument& MetricRegistry::lookup(const std::string& name,
                                                   MetricLabels&& labels,
                                                   MetricKind kind) {
  DAGSFC_CHECK_MSG(valid_metric_name(name),
                   "metric name fails ^dagsfc_[a-z0-9_]+$ lint: " + name);
  Key key{name, canonical_labels(std::move(labels))};
  auto [it, inserted] = instruments_.try_emplace(std::move(key));
  if (inserted) {
    it->second.kind = kind;
  } else {
    DAGSFC_CHECK_MSG(it->second.kind == kind,
                     "metric re-registered as a different kind: " + name);
  }
  return it->second;
}

Counter MetricRegistry::counter(const std::string& name, MetricLabels labels) {
  std::lock_guard lock(mu_);
  Instrument& inst = lookup(name, std::move(labels), MetricKind::Counter);
  if (!inst.counter) inst.counter = std::make_unique<detail::CounterState>();
  return Counter(inst.counter.get());
}

Gauge MetricRegistry::gauge(const std::string& name, MetricLabels labels) {
  std::lock_guard lock(mu_);
  Instrument& inst = lookup(name, std::move(labels), MetricKind::Gauge);
  if (!inst.gauge) inst.gauge = std::make_unique<detail::GaugeState>();
  return Gauge(inst.gauge.get());
}

HistogramMetric MetricRegistry::histogram(const std::string& name,
                                          MetricLabels labels,
                                          double min_bound, double max_bound,
                                          std::size_t buckets_per_decade) {
  std::lock_guard lock(mu_);
  Instrument& inst = lookup(name, std::move(labels), MetricKind::Histogram);
  if (!inst.histogram) {
    inst.histogram = std::make_unique<detail::HistogramState>(
        min_bound, max_bound, buckets_per_decade);
  } else {
    DAGSFC_CHECK_MSG(
        inst.histogram->layout().same_layout(
            Histogram(min_bound, max_bound, buckets_per_decade)),
        "histogram re-registered with a different layout: " + name);
  }
  return HistogramMetric(inst.histogram.get());
}

RegistrySnapshot MetricRegistry::snapshot() const {
  std::lock_guard lock(mu_);
  RegistrySnapshot out;
  out.samples.reserve(instruments_.size());
  // The map iterates in Key order, so samples arrive already sorted by
  // (name, labels) — the property the byte-stable expositions rest on.
  for (const auto& [key, inst] : instruments_) {
    MetricSample s;
    s.name = key.name;
    s.labels = key.labels;
    s.kind = inst.kind;
    switch (inst.kind) {
      case MetricKind::Counter:
        s.counter = inst.counter->sum();
        break;
      case MetricKind::Gauge:
        s.gauge = inst.gauge->v.load(std::memory_order_relaxed);
        break;
      case MetricKind::Histogram:
        s.histogram = inst.histogram->snapshot();
        s.exemplars = inst.histogram->exemplars();
        break;
    }
    out.samples.push_back(std::move(s));
  }
  return out;
}

std::string MetricRegistry::expose_prometheus() const {
  return snapshot().prometheus();
}

std::string MetricRegistry::expose_json() const { return snapshot().json(); }

MetricRegistry& MetricRegistry::global() {
  // Leaked: instruments must stay valid for code running during static and
  // thread_local destruction (worker-thread teardown, atexit log lines).
  static MetricRegistry* g = new MetricRegistry();
  return *g;
}

const MetricSample* RegistrySnapshot::find(const std::string& name,
                                           const MetricLabels& labels) const {
  for (const MetricSample& s : samples) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

std::uint64_t RegistrySnapshot::counter_value(
    const std::string& name, const MetricLabels& labels) const noexcept {
  const MetricSample* s = find(name, labels);
  return s != nullptr && s->kind == MetricKind::Counter ? s->counter : 0;
}

double RegistrySnapshot::gauge_value(const std::string& name,
                                     const MetricLabels& labels)
    const noexcept {
  const MetricSample* s = find(name, labels);
  return s != nullptr && s->kind == MetricKind::Gauge ? s->gauge : 0.0;
}

std::string RegistrySnapshot::prometheus() const {
  std::ostringstream os;
  const std::string* prev_name = nullptr;
  for (const MetricSample& s : samples) {
    if (prev_name == nullptr || *prev_name != s.name) {
      const char* type = s.kind == MetricKind::Counter   ? "counter"
                         : s.kind == MetricKind::Gauge   ? "gauge"
                                                         : "histogram";
      os << "# TYPE " << s.name << ' ' << type << '\n';
      prev_name = &s.name;
    }
    switch (s.kind) {
      case MetricKind::Counter:
        os << s.name << render_label_set(s.labels) << ' ' << s.counter
           << '\n';
        break;
      case MetricKind::Gauge:
        os << s.name << render_label_set(s.labels) << ' '
           << json_number(s.gauge) << '\n';
        break;
      case MetricKind::Histogram: {
        const Histogram& h = s.histogram;
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b < h.num_buckets(); ++b) {
          cum += h.bucket_count(b);
          const std::string le = b + 1 == h.num_buckets()
                                     ? "+Inf"
                                     : json_number(h.bucket_bounds(b).second);
          os << s.name << "_bucket" << render_label_set(s.labels, &le) << ' '
             << cum << '\n';
        }
        os << s.name << "_sum" << render_label_set(s.labels) << ' '
           << json_number(h.sum()) << '\n';
        os << s.name << "_count" << render_label_set(s.labels) << ' '
           << h.count() << '\n';
        break;
      }
    }
  }
  return os.str();
}

std::string RegistrySnapshot::json() const {
  std::ostringstream os;
  os << "{\"metrics\":[";
  bool first = true;
  for (const MetricSample& s : samples) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"" << json_escape(s.name) << '"';
    if (!s.labels.empty()) {
      os << ",\"labels\":{";
      bool lf = true;
      for (const auto& [k, v] : s.labels) {
        if (!lf) os << ',';
        lf = false;
        os << '"' << json_escape(k) << "\":\"" << json_escape(v) << '"';
      }
      os << '}';
    }
    switch (s.kind) {
      case MetricKind::Counter:
        os << ",\"type\":\"counter\",\"value\":" << s.counter;
        break;
      case MetricKind::Gauge:
        os << ",\"type\":\"gauge\",\"value\":" << json_number(s.gauge);
        break;
      case MetricKind::Histogram: {
        const Histogram& h = s.histogram;
        os << ",\"type\":\"histogram\",\"count\":" << h.count()
           << ",\"sum\":" << json_number(h.sum())
           << ",\"min\":" << json_number(h.min())
           << ",\"max\":" << json_number(h.max())
           << ",\"mean\":" << json_number(h.mean())
           << ",\"p50\":" << json_number(h.p50())
           << ",\"p95\":" << json_number(h.p95())
           << ",\"p99\":" << json_number(h.p99());
        if (!s.exemplars.empty()) {
          os << ",\"exemplars\":[";
          bool ef = true;
          for (const HistogramExemplar& e : s.exemplars) {
            if (!ef) os << ',';
            ef = false;
            const std::string le =
                e.bucket + 1 == h.num_buckets()
                    ? "+Inf"
                    : json_number(h.bucket_bounds(e.bucket).second);
            os << "{\"bucket\":" << e.bucket << ",\"le\":\"" << le
               << "\",\"value\":" << json_number(e.value)
               << ",\"trace_id\":" << e.trace_id << '}';
          }
          os << ']';
        }
        break;
      }
    }
    os << '}';
  }
  os << "]}";
  return os.str();
}

PhaseMeter::PhaseMeter(MetricRegistry& registry, const std::string& phase)
    : seconds_(registry.gauge("dagsfc_phase_seconds", {{"phase", phase}})),
      calls_(
          registry.counter("dagsfc_phase_calls_total", {{"phase", phase}})) {}

PhaseMeter::PhaseMeter(const std::string& phase)
    : PhaseMeter(MetricRegistry::global(), phase) {}

}  // namespace dagsfc::util
