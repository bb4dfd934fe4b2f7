/// Request-lifecycle tracing tests, layer by layer: the lock-free
/// SpanRecorder ring (round trips, wraparound accounting, multi-lane
/// merging, torn-record discipline under a concurrent reader — the TSan
/// target of scripts/check.sh), the RequestTrace inline accumulator, the
/// spans an EmbeddingService actually emits for a served request, and the
/// zero-allocation contract of span emission (counting global operator new,
/// the same idiom as test_metrics.cpp).

#include "util/span_recorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "core/backtracking.hpp"
#include "serve/service.hpp"
#include "serve/trace.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace {
/// Counts every path into the global allocator. Only read as a delta
/// around single-threaded regions, so unrelated allocations don't matter.
std::atomic<std::size_t> g_news{0};

void* counted_alloc(std::size_t size) {
  ++g_news;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  ++g_news;
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size == 0 ? 1 : size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
// The nothrow forms must be replaced too: libstdc++'s stable_sort scratch
// buffer allocates through them, and mixing the runtime's nothrow new with
// our free()-based operator delete is an alloc-dealloc mismatch under ASan.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_news;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_news;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(al));
}
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
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dagsfc {
namespace {

using test::NetBuilder;

util::SpanRecord make_record(std::uint64_t trace_id, std::uint64_t t0) {
  util::SpanRecord r;
  r.trace_id = trace_id;
  r.kind = 2;
  r.detail = 1;
  r.attempt = 3;
  r.t0_ns = t0;
  r.t1_ns = t0 + 10;
  r.arg = trace_id * 7;
  r.value = static_cast<double>(trace_id) + 0.5;
  return r;
}

// -------------------------------------------------------- span recorder --

TEST(SpanRecorder, EmitCollectRoundTripsEveryField) {
  util::SpanRecorder rec(/*lanes=*/2, /*capacity_per_lane=*/8);
  EXPECT_EQ(rec.num_lanes(), 2u);
  EXPECT_EQ(rec.lane_capacity(), 8u);

  util::SpanRecord in = make_record(42, 100);
  in.lane = 99;  // must be ignored; collect() stamps the true lane
  rec.emit(1, in);

  const std::vector<util::SpanRecord> out = rec.collect();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].trace_id, 42u);
  EXPECT_EQ(out[0].kind, 2);
  EXPECT_EQ(out[0].detail, 1);
  EXPECT_EQ(out[0].attempt, 3);
  EXPECT_EQ(out[0].lane, 1u);
  EXPECT_EQ(out[0].t0_ns, 100u);
  EXPECT_EQ(out[0].t1_ns, 110u);
  EXPECT_EQ(out[0].arg, 42u * 7);
  EXPECT_DOUBLE_EQ(out[0].value, 42.5);
  EXPECT_EQ(rec.emitted(1), 1u);
  EXPECT_EQ(rec.emitted(0), 0u);
  EXPECT_EQ(rec.dropped(1), 0u);
}

TEST(SpanRecorder, WraparoundKeepsNewestAndCountsDropped) {
  constexpr std::size_t kCap = 4;
  util::SpanRecorder rec(1, kCap);
  for (std::uint64_t i = 0; i < 10; ++i) rec.emit(0, make_record(i, i));

  EXPECT_EQ(rec.emitted(0), 10u);
  EXPECT_EQ(rec.dropped(0), 10u - kCap);

  // The reader drops one extra record conservatively: with pub == n the
  // slot of entry n - capacity may be mid-overwrite, so only the last
  // capacity - 1 entries are certainly intact.
  const std::vector<util::SpanRecord> out = rec.collect();
  ASSERT_EQ(out.size(), kCap - 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].trace_id, 10u - (kCap - 1) + i);
  }
}

TEST(SpanRecorder, CollectMergesLanesIntoOneTimeline) {
  util::SpanRecorder rec(3, 8);
  // Interleaved timestamps across lanes; collect must sort by t0, with the
  // lane index as a deterministic tiebreak.
  rec.emit(2, make_record(20, 5));
  rec.emit(0, make_record(1, 9));
  rec.emit(1, make_record(10, 1));
  rec.emit(0, make_record(2, 5));

  const std::vector<util::SpanRecord> out = rec.collect();
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].trace_id, 10u);  // t0 = 1
  EXPECT_EQ(out[1].trace_id, 2u);   // t0 = 5, lane 0 before lane 2
  EXPECT_EQ(out[2].trace_id, 20u);  // t0 = 5, lane 2
  EXPECT_EQ(out[3].trace_id, 1u);   // t0 = 9
}

TEST(SpanRecorder, TimebaseIsMonotonicSinceConstruction) {
  util::SpanRecorder rec(1, 4);
  const std::uint64_t a = rec.now_ns();
  const std::uint64_t b = rec.now_ns();
  EXPECT_LE(a, b);
  // Instants before the recorder's epoch clamp to 0 instead of wrapping.
  EXPECT_EQ(rec.to_ns(std::chrono::steady_clock::time_point{}), 0u);
}

TEST(SpanRecorder, RejectsDegenerateShapes) {
  EXPECT_THROW(util::SpanRecorder(0, 4), ContractViolation);
  EXPECT_THROW(util::SpanRecorder(1, 0), ContractViolation);
}

/// The torn-record discipline (and the TSan target): one writer hammers a
/// small ring while a reader collects concurrently. Every record carries a
/// checksum relation between its fields; a torn read — parts of two
/// different records in one returned SpanRecord — would break it.
TEST(SpanRecorderThreads, ConcurrentCollectNeverReturnsTornRecords) {
  constexpr std::uint64_t kEmits = 20000;
  util::SpanRecorder rec(1, 8);  // tiny ring: constant wraparound

  std::thread writer([&] {
    for (std::uint64_t i = 1; i <= kEmits; ++i) {
      util::SpanRecord r;
      r.trace_id = i;
      r.kind = static_cast<std::uint8_t>(i & 0x7f);
      r.attempt = static_cast<std::uint16_t>(i & 0xffff);
      r.t0_ns = i;
      r.t1_ns = i + 1;
      r.arg = i ^ 0xdeadbeefULL;
      r.value = static_cast<double>(i);
      rec.emit(0, r);
    }
  });

  std::size_t seen = 0;
  const auto validate = [&seen](const std::vector<util::SpanRecord>& recs) {
    for (const util::SpanRecord& r : recs) {
      ++seen;
      EXPECT_EQ(r.arg, r.trace_id ^ 0xdeadbeefULL);
      EXPECT_EQ(r.t0_ns, r.trace_id);
      EXPECT_EQ(r.t1_ns, r.trace_id + 1);
      EXPECT_DOUBLE_EQ(r.value, static_cast<double>(r.trace_id));
    }
  };
  // Concurrent collects may legitimately come back empty: the writer can
  // lap the whole 8-slot ring while the reader copies it, making every
  // copied record torn-suspect. What matters is that whatever IS returned
  // passes the checksum relation.
  while (rec.emitted(0) < kEmits) validate(rec.collect());
  writer.join();

  // Quiescent wrap-up: the newest records are all intact and in order.
  const std::vector<util::SpanRecord> out = rec.collect();
  validate(out);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.back().trace_id, kEmits);
  EXPECT_GT(seen, 0u);
}

// -------------------------------------------------------- request trace --

TEST(RequestTrace, InactiveTraceIsANoOpSink) {
  serve::RequestTrace trace;  // no recorder
  EXPECT_FALSE(trace.active());
  EXPECT_EQ(trace.now(), 0u);
  EXPECT_EQ(trace.at(serve::Clock::now()), 0u);
  trace.queue_wait(0, 1);
  trace.solve(0, true, 1, 2, 3, 4.0);
  trace.commit(0, shard::CommitPath::kFast, 2, 3, 0);
  trace.outcome(serve::Outcome::Accepted, 0, 3, 4.0);
  EXPECT_TRUE(trace.spans().empty());
  EXPECT_EQ(trace.overflow(), 0u);
}

TEST(RequestTrace, KeepsInlineCopyAndEmitsToRing) {
  util::SpanRecorder rec(2, 16);
  serve::RequestTrace trace(&rec, /*lane=*/1, /*id=*/7);
  ASSERT_TRUE(trace.active());
  trace.queue_wait(10, 20);
  trace.solve(0, true, 20, 30, /*candidate=*/5, /*cost=*/12.5);
  trace.commit(0, shard::CommitPath::kStamp, 30, 40, /*arg=*/6);
  trace.outcome(serve::Outcome::Accepted, 10, 40, 12.5);

  const std::span<const util::SpanRecord> spans = trace.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].kind,
            static_cast<std::uint8_t>(serve::SpanKind::kQueueWait));
  EXPECT_EQ(spans[1].kind, static_cast<std::uint8_t>(serve::SpanKind::kSolve));
  EXPECT_EQ(spans[1].detail, 1);  // feasible
  EXPECT_EQ(spans[1].arg, 5u);
  EXPECT_DOUBLE_EQ(spans[1].value, 12.5);
  EXPECT_EQ(spans[2].detail,
            static_cast<std::uint8_t>(shard::CommitPath::kStamp));
  EXPECT_EQ(spans[3].kind,
            static_cast<std::uint8_t>(serve::SpanKind::kOutcome));
  for (const util::SpanRecord& s : spans) EXPECT_EQ(s.trace_id, 7u);

  // The same four spans landed in the ring, on the trace's lane.
  EXPECT_EQ(rec.emitted(1), 4u);
  EXPECT_EQ(rec.emitted(0), 0u);
}

TEST(RequestTrace, InlineOverflowCountsButRingStillSees) {
  util::SpanRecorder rec(1, 512);
  serve::RequestTrace trace(&rec, 0, 1);
  const std::size_t total = serve::RequestTrace::kMaxSpans + 5;
  for (std::size_t i = 0; i < total; ++i) {
    trace.solve(static_cast<std::uint16_t>(i), false, i, i + 1, 0, 0.0);
  }
  EXPECT_EQ(trace.spans().size(), serve::RequestTrace::kMaxSpans);
  EXPECT_EQ(trace.overflow(), 5u);
  EXPECT_EQ(rec.emitted(0), total);  // the ring is never truncated
}

// ---------------------------------------------------- service lifecycle --

/// A 3-node line whose single f1 instance (capacity 1) admits exactly one
/// rate-1 flow.
net::Network one_slot_network() {
  NetBuilder b(3, 1);
  b.link(0, 1, 1.0, 10.0).link(1, 2, 1.0, 10.0);
  b.put(1, 1, 5.0, 1.0);
  return b.build();
}

serve::Request one_slot_request(serve::RequestId id) {
  serve::Request req;
  req.id = id;
  req.sfc = sfc::DagSfc({sfc::Layer{{1}}});
  req.flow = core::Flow{0, 2, 1.0, 1.0};
  return req;
}

TEST(ServiceLifecycle, TracingOffKeepsRecordersNull) {
  const net::Network network = one_slot_network();
  const core::MbbeEmbedder mbbe;
  serve::EmbeddingService service(network, mbbe, {});
  EXPECT_EQ(service.span_recorder(), nullptr);
  EXPECT_EQ(service.flight_recorder(), nullptr);
}

TEST(ServiceLifecycle, AcceptedRequestEmitsFullSpanChain) {
  const net::Network network = one_slot_network();
  const core::MbbeEmbedder mbbe;
  serve::EmbeddingService::Options opts;
  opts.workers = 1;
  opts.tracing.enabled = true;
  serve::EmbeddingService service(network, mbbe, opts);
  ASSERT_NE(service.span_recorder(), nullptr);
  ASSERT_NE(service.flight_recorder(), nullptr);

  const serve::Response r = service.submit(one_slot_request(1)).get();
  ASSERT_EQ(r.outcome, serve::Outcome::Accepted);

  const std::vector<util::SpanRecord> spans =
      service.span_recorder()->collect();
  ASSERT_EQ(spans.size(), 4u);
  using serve::SpanKind;
  // collect() sorts by t0, and the outcome span starts at submission — the
  // same instant the queue wait starts — so it sorts ahead of solve and
  // commit. Locate each span by kind rather than by position.
  const auto find = [&spans](SpanKind k) {
    return std::find_if(spans.begin(), spans.end(),
                        [k](const util::SpanRecord& s) {
                          return s.kind == static_cast<std::uint8_t>(k);
                        });
  };
  const auto queue = find(SpanKind::kQueueWait);
  const auto solve = find(SpanKind::kSolve);
  const auto commit = find(SpanKind::kCommit);
  const auto outcome = find(SpanKind::kOutcome);
  ASSERT_NE(queue, spans.end());
  ASSERT_NE(solve, spans.end());
  ASSERT_NE(commit, spans.end());
  ASSERT_NE(outcome, spans.end());
  EXPECT_EQ(spans[0].kind, static_cast<std::uint8_t>(SpanKind::kQueueWait));
  EXPECT_EQ(solve->detail, 1);  // feasible
  EXPECT_DOUBLE_EQ(solve->value, r.cost);
  EXPECT_EQ(commit->detail,
            static_cast<std::uint8_t>(shard::CommitPath::kFast));
  EXPECT_EQ(outcome->detail,
            static_cast<std::uint8_t>(serve::Outcome::Accepted));
  EXPECT_DOUBLE_EQ(outcome->value, r.cost);
  for (const util::SpanRecord& s : spans) {
    EXPECT_EQ(s.trace_id, 1u);
    EXPECT_LE(s.t0_ns, s.t1_ns);
  }
  // The outcome span covers the whole request: submit → finish.
  EXPECT_EQ(outcome->t0_ns, queue->t0_ns);
  EXPECT_GE(outcome->t1_ns, commit->t1_ns);

  // A fast-path accept matches no trigger: nothing was promoted.
  EXPECT_EQ(service.flight_recorder()->promoted(), 0u);
}

TEST(ServiceLifecycle, RefusalSpansCarryTheRejectedOutcome) {
  const net::Network network = one_slot_network();
  const core::MbbeEmbedder mbbe;
  serve::EmbeddingService::Options opts;
  opts.workers = 1;
  opts.tracing.enabled = true;
  serve::EmbeddingService service(network, mbbe, opts);

  ASSERT_EQ(service.submit(one_slot_request(1)).get().outcome,
            serve::Outcome::Accepted);
  ASSERT_EQ(service.submit(one_slot_request(2)).get().outcome,
            serve::Outcome::RejectedInfeasible);

  // Request 2's chain: queue wait, one infeasible solve (no commit), and a
  // rejected outcome.
  std::vector<util::SpanRecord> spans = service.span_recorder()->collect();
  std::erase_if(spans,
                [](const util::SpanRecord& s) { return s.trace_id != 2; });
  ASSERT_EQ(spans.size(), 3u);
  using serve::SpanKind;
  const auto find = [&spans](SpanKind k) {
    return std::find_if(spans.begin(), spans.end(),
                        [k](const util::SpanRecord& s) {
                          return s.kind == static_cast<std::uint8_t>(k);
                        });
  };
  const auto solve = find(SpanKind::kSolve);
  const auto outcome = find(SpanKind::kOutcome);
  ASSERT_NE(solve, spans.end());
  ASSERT_NE(outcome, spans.end());
  EXPECT_EQ(find(SpanKind::kCommit), spans.end());  // nothing to commit
  EXPECT_EQ(solve->detail, 0);  // infeasible
  EXPECT_EQ(outcome->detail,
            static_cast<std::uint8_t>(serve::Outcome::RejectedInfeasible));
}

// ------------------------------------------------------------- hot path --

TEST(SpanEmission, HotPathAllocatesNothing) {
  util::SpanRecorder rec(1, 64);
  const util::SpanRecord r = make_record(1, 1);
  rec.emit(0, r);  // warm-up

  const std::size_t before = g_news.load();
  for (int i = 0; i < 1000; ++i) {
    rec.emit(0, r);
    serve::RequestTrace trace(&rec, 0, static_cast<serve::RequestId>(i));
    trace.queue_wait(0, 1);
    trace.solve(0, true, 1, 2, 3, 4.0);
    trace.commit(0, shard::CommitPath::kFast, 2, 3, 0);
    trace.outcome(serve::Outcome::Accepted, 0, 3, 4.0);
  }
  EXPECT_EQ(g_news.load() - before, 0u);
}

}  // namespace
}  // namespace dagsfc
