#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <numeric>
#include <sstream>
#include <string>

namespace perfbench {

double BenchRng::exponential(double mean) {
  return -mean * std::log1p(-uniform());
}

void Digest::add_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add_f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  add_u64(bits);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

double Samples::sum() const {
  return std::accumulate(xs_.begin(), xs_.end(), 0.0);
}

double Samples::mean() const {
  return xs_.empty() ? 0.0 : sum() / static_cast<double>(xs_.size());
}

namespace {
/// Nearest-rank index of percentile \p p among \p n > 0 samples.
std::size_t rank_index(double p, std::size_t n) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n) - 1;
}
}  // namespace

double Samples::percentile(double p) const {
  if (xs_.empty()) return 0.0;
  if (sorted_.empty()) {
    sorted_ = xs_;
    std::sort(sorted_.begin(), sorted_.end());
  }
  return sorted_[rank_index(p, sorted_.size())];
}

double Samples::percentile(double p, std::size_t begin,
                           std::size_t end) const {
  end = std::min(end, xs_.size());
  if (begin >= end) return 0.0;
  std::vector<double> part(xs_.begin() + static_cast<std::ptrdiff_t>(begin),
                           xs_.begin() + static_cast<std::ptrdiff_t>(end));
  const auto nth = part.begin() +
                   static_cast<std::ptrdiff_t>(rank_index(p, part.size()));
  std::nth_element(part.begin(), nth, part.end());
  return *nth;
}

// --- counting operator new --------------------------------------------------

namespace {
std::atomic<bool> g_counting{false};
thread_local std::uint64_t tl_allocs = 0;

void* counted_malloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) ++tl_allocs;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  if (g_counting.load(std::memory_order_relaxed)) ++tl_allocs;
  const auto a = static_cast<std::size_t>(al);
  const std::size_t rounded = (std::max<std::size_t>(n, 1) + a - 1) / a * a;
  return std::aligned_alloc(a, rounded);
}
}  // namespace

void set_alloc_counting(bool on) noexcept {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t thread_allocs() noexcept { return tl_allocs; }

// --- host counters ----------------------------------------------------------

CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal; guest time is already
  // folded into user/nice, so it is not added again.
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(in >> v)) return CpuTicks{};
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_ratio(const CpuTicks& a, const CpuTicks& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// --- record -----------------------------------------------------------------

namespace {
std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}
}  // namespace

std::string Record::json() const {
  std::ostringstream os;
  os << "{\"workload\":" << quote(workload) << ",\"seed\":" << seed
     << ",\"traced\":" << (traced ? "true" : "false")
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed
     << ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    os << (i ? "," : "") << quote(errors[i]);
  }
  os << "],\"input_digest\":" << quote(input_digest) << ",\"cost_digests\":{";
  bool first = true;
  for (const auto& [k, v] : cost_digests) {
    os << (first ? "" : ",") << quote(k) << ":" << quote(v);
    first = false;
  }
  os << "},\"notes\":{";
  first = true;
  for (const auto& [k, v] : notes) {
    os << (first ? "" : ",") << quote(k) << ":" << quote(v);
    first = false;
  }
  os << "},\"metrics\":{";
  first = true;
  for (const auto& [k, m] : metrics) {
    os << (first ? "" : ",") << quote(k) << ":{\"value\":" << number(m.value)
       << ",\"unit\":" << quote(m.unit) << ",\"samples\":" << m.samples << "}";
    first = false;
  }
  os << "}}";
  return os.str();
}

void report_setup(Record& rec, Clock::time_point start,
                  Clock::time_point inputs, Clock::time_point built,
                  Clock::time_point warm) {
  rec.set("setup_s", s_since(start, warm), "s", 1);
  rec.set("bench.inputs_s", s_since(start, inputs), "s", 1);
  rec.set("bench.build_s", s_since(inputs, built), "s", 1);
  rec.set("bench.warmup_s", s_since(built, warm), "s", 1);
}

void report_run(Record& rec, const CpuTicks& t0, const CpuTicks& t1) {
  rec.set("ok_ratio",
          ratio(static_cast<double>(rec.attempted - rec.failed),
                static_cast<double>(rec.attempted)),
          "ratio", rec.attempted);
  rec.set("host.steal_ratio", steal_ratio(t0, t1), "ratio",
          t1.total > t0.total ? t1.total - t0.total : 0);
  rec.set("peak_rss_mb", peak_rss_mb(), "MiB", 1);
}

}  // namespace perfbench

// Global replacements: the counting operator new the traced run turns on.
void* operator new(std::size_t n) {
  if (void* p = perfbench::counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = perfbench::counted_malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted_malloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = perfbench::counted_aligned(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = perfbench::counted_aligned(n, al)) return p;
  throw std::bad_alloc();
}
// The replacement deletes hand blocks back to the C allocator that
// counted_malloc / counted_aligned took them from; GCC cannot see that
// pairing through the replaced operator new and warns.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop
