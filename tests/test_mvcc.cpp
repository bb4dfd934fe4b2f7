/// MVCC battery: per-resource version stamps, footprint-scoped validation,
/// and the concurrent conflict battery through EmbeddingService — the second ThreadSanitizer target of
/// scripts/check.sh.
///
/// The core of the file is the shadow-ledger fuzz: a long random
/// interleaving of can_apply / apply / unapply footprints is mirrored into
/// a plain-array oracle, and after every step the real ledger must agree
/// bitwise on residuals, epochs and stamps. Rates are dyadic (0.25 .. 2.0)
/// against power-of-two capacities, so every debit/credit is exact in
/// binary floating point and "conserves" means *bitwise* restoration.

#include "net/ledger.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstdint>
#include <deque>
#include <span>
#include <thread>
#include <vector>

#include "core/backtracking.hpp"
#include "serve/service.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace dagsfc {
namespace {

using test::NetBuilder;

// ---------------------------------------------------------------- stamps --

TEST(MvccStamps, StartAtZeroAndRecordTheMutatingEpoch) {
  auto fx = test::canonical_fixture();
  net::CapacityLedger led(fx->network);

  EXPECT_EQ(led.epoch(), 0u);
  for (graph::EdgeId e = 0; e < fx->network.num_links(); ++e) {
    EXPECT_EQ(led.link_stamp(e), 0u);
  }
  for (net::InstanceId i = 0; i < fx->network.num_instances(); ++i) {
    EXPECT_EQ(led.instance_stamp(i), 0u);
  }

  led.consume_link(2, 1.0);
  EXPECT_EQ(led.epoch(), 1u);
  EXPECT_EQ(led.link_stamp(2), 1u);
  EXPECT_EQ(led.link_stamp(0), 0u);  // untouched resources keep their stamp

  led.consume_instance(0, 1.0);
  EXPECT_EQ(led.epoch(), 2u);
  EXPECT_EQ(led.instance_stamp(0), 2u);
  EXPECT_EQ(led.link_stamp(2), 1u);

  // Credits stamp too: a departure invalidates snapshots just like a debit.
  led.release_link(2, 1.0);
  EXPECT_EQ(led.epoch(), 3u);
  EXPECT_EQ(led.link_stamp(2), 3u);
}

TEST(MvccStamps, FootprintValidationScopesToTouchedResources) {
  auto fx = test::canonical_fixture();
  net::CapacityLedger led(fx->network);

  // Footprint: links {0, 1}, instance {0}.
  const std::vector<std::uint32_t> links{1, 1};
  const std::vector<std::uint32_t> insts{1};
  const std::uint64_t snap = led.epoch();
  EXPECT_TRUE(led.footprint_unchanged_since(links, insts, snap));

  // Mutations strictly outside the footprint never invalidate it.
  led.consume_link(3, 1.0);
  led.consume_instance(2, 1.0);
  EXPECT_TRUE(led.footprint_unchanged_since(links, insts, snap));

  // A zero count is "not in the footprint" even though the span covers it.
  const std::vector<std::uint32_t> sparse{0, 0, 0, 1};
  EXPECT_FALSE(led.footprint_unchanged_since(sparse, {}, snap));

  // Touching any counted resource invalidates, debit or credit alike.
  led.consume_link(0, 1.0);
  EXPECT_FALSE(led.footprint_unchanged_since(links, insts, snap));
  const std::uint64_t snap2 = led.epoch();
  EXPECT_TRUE(led.footprint_unchanged_since(links, insts, snap2));
  led.release_link(0, 1.0);
  EXPECT_FALSE(led.footprint_unchanged_since(links, insts, snap2));

  // Instance stamps gate exactly like link stamps.
  const std::uint64_t snap3 = led.epoch();
  led.consume_instance(0, 1.0);
  EXPECT_FALSE(led.footprint_unchanged_since(links, insts, snap3));
  EXPECT_TRUE(led.footprint_unchanged_since(links, {}, snap3));

  // The empty footprint is trivially unchanged forever.
  EXPECT_TRUE(led.footprint_unchanged_since({}, {}, 0));
}

// ------------------------------------------------------- shadow-led fuzz --

/// Plain-array oracle mirroring the exact mutation semantics the ledger
/// documents: one epoch bump per touched resource, instances before links
/// (the apply/unapply order), stamp = the bumped epoch.
struct ShadowLedger {
  std::vector<double> link, inst;
  std::vector<double> link_cap, inst_cap;
  std::vector<std::uint64_t> link_stamp, inst_stamp;
  std::uint64_t epoch = 0;

  explicit ShadowLedger(const net::Network& n) {
    for (graph::EdgeId e = 0; e < n.num_links(); ++e) {
      link.push_back(n.link_capacity(e));
      link_cap.push_back(n.link_capacity(e));
    }
    for (net::InstanceId i = 0; i < n.num_instances(); ++i) {
      inst.push_back(n.instance(i).capacity);
      inst_cap.push_back(n.instance(i).capacity);
    }
    link_stamp.assign(link.size(), 0);
    inst_stamp.assign(inst.size(), 0);
  }

  [[nodiscard]] bool can_apply(std::span<const std::uint32_t> lu,
                               std::span<const std::uint32_t> iu,
                               double rate) const {
    for (std::size_t i = 0; i < iu.size(); ++i) {
      if (iu[i] > 0 && inst[i] < static_cast<double>(iu[i]) * rate) {
        return false;
      }
    }
    for (std::size_t e = 0; e < lu.size(); ++e) {
      if (lu[e] > 0 && link[e] < static_cast<double>(lu[e]) * rate) {
        return false;
      }
    }
    return true;
  }

  void apply(std::span<const std::uint32_t> lu,
             std::span<const std::uint32_t> iu, double rate, double sign) {
    for (std::size_t i = 0; i < iu.size(); ++i) {
      if (iu[i] > 0) {
        inst[i] -= sign * static_cast<double>(iu[i]) * rate;
        inst_stamp[i] = ++epoch;
      }
    }
    for (std::size_t e = 0; e < lu.size(); ++e) {
      if (lu[e] > 0) {
        link[e] -= sign * static_cast<double>(lu[e]) * rate;
        link_stamp[e] = ++epoch;
      }
    }
  }

  [[nodiscard]] bool unchanged_since(std::span<const std::uint32_t> lu,
                                     std::span<const std::uint32_t> iu,
                                     std::uint64_t since) const {
    for (std::size_t i = 0; i < iu.size(); ++i) {
      if (iu[i] > 0 && inst_stamp[i] > since) return false;
    }
    for (std::size_t e = 0; e < lu.size(); ++e) {
      if (lu[e] > 0 && link_stamp[e] > since) return false;
    }
    return true;
  }
};

struct AppliedFootprint {
  std::vector<std::uint32_t> links, insts;
  double rate = 0.0;
};

/// 5-node ring + two chords, power-of-two capacities; three instances.
net::Network fuzz_network() {
  NetBuilder b(5, 2);
  b.link(0, 1, 1.0, 64.0).link(1, 2, 1.0, 64.0).link(2, 3, 1.0, 64.0);
  b.link(3, 4, 1.0, 64.0).link(4, 0, 1.0, 64.0);
  b.link(0, 2, 1.0, 32.0).link(1, 3, 1.0, 32.0);
  b.put(1, 1, 5.0, 64.0).put(3, 2, 5.0, 64.0).put(2, 1, 5.0, 32.0);
  return b.build();
}

TEST(MvccFuzz, RandomFootprintInterleavingsAgreeWithAShadowOracle) {
  const net::Network network = fuzz_network();
  net::CapacityLedger led(network);
  ShadowLedger shadow(network);
  Rng rng(0xfeedface);

  const std::size_t L = network.num_links();
  const std::size_t I = network.num_instances();
  constexpr double kRates[] = {0.25, 0.5, 1.0, 2.0};

  auto random_footprint = [&](AppliedFootprint& f) {
    f.links.assign(L, 0);
    f.insts.assign(I, 0);
    bool any = false;
    for (auto& c : f.links) {
      c = static_cast<std::uint32_t>(rng.index(3));
      any |= c > 0;
    }
    for (auto& c : f.insts) {
      c = static_cast<std::uint32_t>(rng.index(3));
      any |= c > 0;
    }
    if (!any) f.links[rng.index(L)] = 1;
    f.rate = kRates[rng.index(4)];
  };

  auto check_equal = [&] {
    ASSERT_EQ(led.epoch(), shadow.epoch);
    for (graph::EdgeId e = 0; e < L; ++e) {
      ASSERT_EQ(led.link_residual(e), shadow.link[e]) << "link " << e;
      ASSERT_EQ(led.link_stamp(e), shadow.link_stamp[e]) << "link " << e;
      ASSERT_LE(led.link_stamp(e), led.epoch());
    }
    for (net::InstanceId i = 0; i < I; ++i) {
      ASSERT_EQ(led.instance_residual(i), shadow.inst[i]) << "inst " << i;
      ASSERT_EQ(led.instance_stamp(i), shadow.inst_stamp[i]) << "inst " << i;
      ASSERT_LE(led.instance_stamp(i), led.epoch());
    }
  };

  // A rolling validation snapshot: (epoch, residual copies) refreshed every
  // 16 steps, probed every step for the stamp-exactness property.
  std::uint64_t snap_epoch = 0;
  std::vector<double> snap_link = shadow.link;
  std::vector<double> snap_inst = shadow.inst;

  std::vector<AppliedFootprint> outstanding;
  std::vector<std::uint64_t> prev_link_stamp(L, 0), prev_inst_stamp(I, 0);
  AppliedFootprint f;

  for (int step = 0; step < 4000; ++step) {
    const std::size_t op = rng.index(100);
    if (op < 55 || outstanding.empty()) {
      random_footprint(f);
      const bool fits = shadow.can_apply(f.links, f.insts, f.rate);
      ASSERT_EQ(led.can_apply(f.links, f.insts, f.rate), fits) << step;
      if (fits) {
        led.apply(f.links, f.insts, f.rate);
        shadow.apply(f.links, f.insts, f.rate, +1.0);
        outstanding.push_back(f);
      }
    } else {
      const std::size_t pick = rng.index(outstanding.size());
      const AppliedFootprint take = outstanding[pick];
      outstanding[pick] = outstanding.back();
      outstanding.pop_back();
      led.unapply(take.links, take.insts, take.rate);
      shadow.apply(take.links, take.insts, take.rate, -1.0);
    }

    check_equal();
    if (HasFatalFailure()) return;

    // Stamps are monotone per resource.
    for (graph::EdgeId e = 0; e < L; ++e) {
      ASSERT_GE(led.link_stamp(e), prev_link_stamp[e]);
      prev_link_stamp[e] = led.link_stamp(e);
    }
    for (net::InstanceId i = 0; i < I; ++i) {
      ASSERT_GE(led.instance_stamp(i), prev_inst_stamp[i]);
      prev_inst_stamp[i] = led.instance_stamp(i);
    }

    // Validation probe: the ledger's verdict matches the shadow stamps, and
    // an unchanged verdict really does mean "the snapshot residuals of the
    // footprint are the live residuals, bitwise" — the exactness the serve
    // layer's stamp-validated commit rides on.
    random_footprint(f);
    const bool unchanged = shadow.unchanged_since(f.links, f.insts, snap_epoch);
    ASSERT_EQ(led.footprint_unchanged_since(f.links, f.insts, snap_epoch),
              unchanged)
        << step;
    if (unchanged) {
      for (graph::EdgeId e = 0; e < L; ++e) {
        if (f.links[e] > 0) {
          ASSERT_EQ(led.link_residual(e), snap_link[e]);
        }
      }
      for (net::InstanceId i = 0; i < I; ++i) {
        if (f.insts[i] > 0) {
          ASSERT_EQ(led.instance_residual(i), snap_inst[i]);
        }
      }
    }

    if (step % 16 == 0) {
      snap_epoch = led.epoch();
      snap_link = shadow.link;
      snap_inst = shadow.inst;
    }
  }

  // Conservation: unwinding every outstanding footprint restores nominal
  // capacity bitwise (all arithmetic was dyadic-exact).
  for (const AppliedFootprint& o : outstanding) {
    led.unapply(o.links, o.insts, o.rate);
    shadow.apply(o.links, o.insts, o.rate, -1.0);
  }
  check_equal();
  for (graph::EdgeId e = 0; e < L; ++e) {
    EXPECT_EQ(led.link_residual(e), network.link_capacity(e));
  }
  for (net::InstanceId i = 0; i < I; ++i) {
    EXPECT_EQ(led.instance_residual(i), network.instance(i).capacity);
  }
  EXPECT_EQ(led.total_link_consumed(), 0.0);
  EXPECT_EQ(led.total_instance_consumed(), 0.0);
}

// ------------------------------------------- conflict battery (TSan run) --

/// Single corridor: every request routes 0 -> 2 through the one f1
/// instance, so all footprints overlap completely. Capacity 3 admits at
/// most three concurrent rate-1 flows.
net::Network contended_network() {
  NetBuilder b(3, 1);
  b.link(0, 1, 1.0, 3.0).link(1, 2, 1.0, 3.0);
  b.put(1, 1, 5.0, 3.0);
  return b.build();
}

serve::Request corridor_request(serve::RequestId id) {
  serve::Request req;
  req.id = id;
  req.sfc = sfc::DagSfc({sfc::Layer{{1}}});
  req.flow = core::Flow{0, 2, 1.0, 1.0};
  return req;
}

TEST(MvccConflictBattery, OverlappingFootprintsNeverOverCommitOrLivelock) {
  const net::Network network = contended_network();
  const core::MbbeEmbedder mbbe;
  serve::EmbeddingService::Options opts;
  opts.workers = 8;
  opts.admission.queue_capacity = 1024;
  opts.admission.retry_backoff = std::chrono::nanoseconds(0);
  opts.admission.max_retries = 2;
  serve::EmbeddingService service(network, mbbe, opts);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 30;
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> terminal{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Hold up to two accepted flows before releasing the oldest, so
      // commits and departures interleave with other threads' commits.
      std::deque<serve::RequestId> held;
      for (int i = 0; i < kPerThread; ++i) {
        const auto id = static_cast<serve::RequestId>(t * kPerThread + i + 1);
        const serve::Response r = service.submit(corridor_request(id)).get();
        // Every request terminates in a decided state — the no-livelock
        // guarantee (a hung future would time the whole test out).
        const bool decided = r.outcome == serve::Outcome::Accepted ||
                             r.outcome == serve::Outcome::RejectedInfeasible ||
                             r.outcome == serve::Outcome::LostConflict;
        EXPECT_TRUE(decided) << static_cast<int>(r.outcome);
        ++terminal;
        if (r.accepted()) {
          ++accepted;
          held.push_back(id);
          if (held.size() > 2) {
            EXPECT_TRUE(service.release(held.front()));
            held.pop_front();
          }
        }
      }
      for (const serve::RequestId id : held) {
        EXPECT_TRUE(service.release(id));
      }
    });
  }
  for (auto& th : threads) th.join();
  service.drain();

  const serve::MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.submitted, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(terminal.load(), m.submitted);
  EXPECT_EQ(m.completed(), m.submitted);
  EXPECT_EQ(m.accepted, accepted.load());
  // No lost updates: every accepted flow's exact usage came back, so the
  // drained ledger is bitwise nominal (all rates were integral) — and no
  // over-commit ever happened, or the ledger's contract checks would have
  // aborted the run mid-flight.
  EXPECT_EQ(m.releases, m.accepted);
  EXPECT_EQ(service.in_service(), 0u);
  const net::CapacityLedger drained = service.ledger_snapshot();
  EXPECT_EQ(drained.instance_residual(0), 3.0);
  EXPECT_EQ(drained.link_residual(0), 3.0);
  EXPECT_EQ(drained.link_residual(1), 3.0);
  // Commit accounting closes across the three paths.
  EXPECT_EQ(m.fast_commits + m.stamp_commits + m.validated_commits,
            m.accepted);
  EXPECT_GT(m.accepted, 0u);
}

// -------------------------------------- deterministic stamp-commit proof --

/// Wraps an embedder; the first two solves rendezvous *after* solving and
/// *before* returning, so both hold solutions computed from pre-commit
/// snapshots — whichever commits second is guaranteed to face a moved
/// epoch.
class RendezvousEmbedder : public core::Embedder {
 public:
  explicit RendezvousEmbedder(const core::Embedder& inner) : inner_(&inner) {}

  [[nodiscard]] std::string name() const override { return "rendezvous"; }

 protected:
  [[nodiscard]] core::SolveResult do_solve(
      const core::ModelIndex& index, const net::CapacityLedger& ledger,
      Rng& rng, core::TraceSink*,
      graph::SearchWorkspace* workspace) const override {
    core::SolveResult r = inner_->solve(index, ledger, rng, nullptr, workspace);
    if (calls_.fetch_add(1) < 2) sync_.arrive_and_wait();
    return r;
  }

 private:
  const core::Embedder* inner_;
  mutable std::atomic<int> calls_{0};
  mutable std::barrier<> sync_{2};
};

/// Two disjoint corridors (0-1-2 and 3-4-5, one f1 instance each): two
/// concurrent requests never share a resource.
net::Network disjoint_corridors_network() {
  NetBuilder b(6, 1);
  b.link(0, 1, 1.0, 10.0).link(1, 2, 1.0, 10.0);
  b.link(3, 4, 1.0, 10.0).link(4, 5, 1.0, 10.0);
  b.put(1, 1, 5.0, 10.0).put(4, 1, 5.0, 10.0);
  return b.build();
}

TEST(MvccService, DisjointFootprintsCommitByStampWhenTheEpochMoves) {
  const net::Network network = disjoint_corridors_network();
  const core::MbbeEmbedder mbbe;
  const RendezvousEmbedder rendezvous(mbbe);
  serve::EmbeddingService::Options opts;
  opts.workers = 2;
  opts.admission.retry_backoff = std::chrono::nanoseconds(0);
  serve::EmbeddingService service(network, rendezvous, opts);

  serve::Request a;
  a.id = 1;
  a.sfc = sfc::DagSfc({sfc::Layer{{1}}});
  a.flow = core::Flow{0, 2, 1.0, 1.0};
  serve::Request b;
  b.id = 2;
  b.sfc = sfc::DagSfc({sfc::Layer{{1}}});
  b.flow = core::Flow{3, 5, 1.0, 1.0};

  // The rendezvous forces both solves to finish before either commits, so
  // the second commit always sees a moved epoch — but its footprint is
  // disjoint from the first's, so the per-resource stamps alone must
  // reconcile it: one fast commit, one stamp-validated commit, and the
  // expensive residual re-check never runs.
  auto fa = service.submit(std::move(a));
  auto fb = service.submit(std::move(b));
  const serve::Response ra = fa.get();
  const serve::Response rb = fb.get();
  ASSERT_EQ(ra.outcome, serve::Outcome::Accepted);
  ASSERT_EQ(rb.outcome, serve::Outcome::Accepted);
  EXPECT_EQ(ra.conflicts + rb.conflicts, 0u);

  const serve::MetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.accepted, 2u);
  EXPECT_EQ(m.commit_conflicts, 0u);
  EXPECT_EQ(m.fast_commits, 1u);
  EXPECT_EQ(m.stamp_commits, 1u);
  EXPECT_EQ(m.validated_commits, 0u);
}

}  // namespace
}  // namespace dagsfc
