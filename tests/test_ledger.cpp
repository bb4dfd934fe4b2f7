#include "net/ledger.hpp"

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace dagsfc::net {
namespace {

Network small() {
  graph::Graph g(2);
  (void)g.add_edge(0, 1, 1.0);
  Network n(std::move(g), VnfCatalog(1), 10.0);
  (void)n.deploy(0, 1, 5.0, 3.0);
  return n;
}

TEST(Ledger, StartsAtNominalCapacities) {
  const Network n = small();
  const CapacityLedger l(n);
  EXPECT_DOUBLE_EQ(l.link_residual(0), 10.0);
  EXPECT_DOUBLE_EQ(l.instance_residual(0), 3.0);
}

TEST(Ledger, ConsumeAndRelease) {
  const Network n = small();
  CapacityLedger l(n);
  l.consume_link(0, 4.0);
  EXPECT_DOUBLE_EQ(l.link_residual(0), 6.0);
  l.release_link(0, 4.0);
  EXPECT_DOUBLE_EQ(l.link_residual(0), 10.0);
  l.consume_instance(0, 1.0);
  EXPECT_DOUBLE_EQ(l.instance_residual(0), 2.0);
  l.release_instance(0, 1.0);
  EXPECT_DOUBLE_EQ(l.instance_residual(0), 3.0);
}

TEST(Ledger, PredicatesReflectResiduals) {
  const Network n = small();
  CapacityLedger l(n);
  EXPECT_TRUE(l.link_can_carry(0, 10.0));
  EXPECT_FALSE(l.link_can_carry(0, 10.5));
  l.consume_link(0, 9.5);
  EXPECT_TRUE(l.link_can_carry(0, 0.5));
  EXPECT_FALSE(l.link_can_carry(0, 1.0));
  EXPECT_TRUE(l.instance_can_process(0, 3.0));
  EXPECT_FALSE(l.instance_can_process(0, 3.1));
}

TEST(Ledger, OverSubscriptionRejected) {
  const Network n = small();
  CapacityLedger l(n);
  EXPECT_THROW(l.consume_link(0, 11.0), ContractViolation);
  EXPECT_THROW(l.consume_instance(0, 4.0), ContractViolation);
}

TEST(Ledger, OverReleaseRejected) {
  const Network n = small();
  CapacityLedger l(n);
  EXPECT_THROW(l.release_link(0, 0.5), ContractViolation);
  l.consume_link(0, 2.0);
  EXPECT_THROW(l.release_link(0, 2.5), ContractViolation);
}

TEST(Ledger, NodeOffersChecksTypeAndCapacity) {
  const Network n = small();
  CapacityLedger l(n);
  EXPECT_TRUE(l.node_offers(0, 1, 1.0));
  EXPECT_FALSE(l.node_offers(1, 1, 1.0));  // not deployed there
  EXPECT_FALSE(l.node_offers(0, 1, 5.0));  // beyond capacity
  l.consume_instance(0, 3.0);
  EXPECT_FALSE(l.node_offers(0, 1, 1.0));  // exhausted
}

TEST(Ledger, CopiesAreIndependent) {
  const Network n = small();
  CapacityLedger a(n);
  CapacityLedger b(a);
  a.consume_link(0, 5.0);
  EXPECT_DOUBLE_EQ(a.link_residual(0), 5.0);
  EXPECT_DOUBLE_EQ(b.link_residual(0), 10.0);
}

TEST(Ledger, EveryMutationBumpsTheEpoch) {
  const Network n = small();
  CapacityLedger l(n);
  const auto e0 = l.epoch();
  l.consume_link(0, 1.0);
  EXPECT_EQ(l.epoch(), e0 + 1);
  l.consume_instance(0, 1.0);
  EXPECT_EQ(l.epoch(), e0 + 2);
  l.release_link(0, 1.0);
  EXPECT_EQ(l.epoch(), e0 + 3);
  l.release_instance(0, 1.0);
  EXPECT_EQ(l.epoch(), e0 + 4);
  // Releasing back to nominal is still a new epoch: equal residuals do
  // not mean cached paths were computed against this state.
  EXPECT_DOUBLE_EQ(l.link_residual(0), 10.0);
  EXPECT_NE(l.epoch(), e0);
}

TEST(Ledger, CopyCarriesEpochButNotTheCache) {
  const Network n = small();
  CapacityLedger a(n);
  a.consume_link(0, 1.0);
  graph::PathCache& cache = a.path_cache();  // lazily created on first access
  EXPECT_EQ(&a.path_cache(), &cache);
  const CapacityLedger b(a);
  EXPECT_EQ(b.epoch(), a.epoch());
  // The copy gets its own (empty) cache object, not a shared one.
  EXPECT_NE(&b.path_cache(), &a.path_cache());
}

TEST(Ledger, TotalsTrackConsumption) {
  const Network n = small();
  CapacityLedger l(n);
  EXPECT_DOUBLE_EQ(l.total_link_consumed(), 0.0);
  l.consume_link(0, 2.5);
  l.consume_instance(0, 1.0);
  EXPECT_DOUBLE_EQ(l.total_link_consumed(), 2.5);
  EXPECT_DOUBLE_EQ(l.total_instance_consumed(), 1.0);
}

TEST(Ledger, ExactFitLeavesExactlyZero) {
  const Network n = small();
  CapacityLedger l(n);
  // Many small consumes summing to the capacity must not spuriously fail,
  // and they leave exactly nothing: 0.1 is not a binary fraction, but it is
  // a whole number of units.
  for (int i = 0; i < 100; ++i) l.consume_link(0, 0.1);
  EXPECT_EQ(l.link_residual(0), 0.0);
  EXPECT_FALSE(l.link_can_carry(0, 1e-9));
  EXPECT_THROW(l.consume_link(0, 1e-9), ContractViolation);
}

TEST(Ledger, OutOfRangeAmountsThrow) {
  const Network n = small();
  CapacityLedger l(n);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf, -1e-9, 1e10}) {
    EXPECT_THROW(l.consume_link(0, bad), ContractViolation);
    EXPECT_THROW(l.release_instance(0, bad), ContractViolation);
    EXPECT_THROW((void)l.link_can_carry(0, bad), ContractViolation);
    EXPECT_THROW(l.set_link_residual(0, bad), ContractViolation);
  }
  EXPECT_EQ(l.epoch(), 0u);
  // A flow rate must round to at least one unit and stay in int64 range.
  EXPECT_FALSE(CapacityLedger::valid_rate(4e-10));
  EXPECT_TRUE(CapacityLedger::valid_rate(1e-9));
  EXPECT_TRUE(CapacityLedger::valid_rate(9e9));
  EXPECT_FALSE(CapacityLedger::valid_rate(1e10));
  EXPECT_FALSE(CapacityLedger::valid_rate(nan));
}

TEST(Ledger, HugeMultiUseDebitsRefuseWithoutOverflow) {
  // A rate-1e9 flow is 10^18 units: ten uses of one link would be 10^19,
  // beyond int64, so the checks must never form that product.
  graph::Graph g(2);
  (void)g.add_edge(0, 1, 1.0);
  Network n(std::move(g), VnfCatalog(1));  // default link capacity 1e9
  (void)n.deploy(0, 1, 5.0, 1e9);
  CapacityLedger l(n);
  const std::vector<std::uint32_t> none{0};
  for (const std::uint32_t uses : {2u, 10u, 4'000'000'000u}) {
    const std::vector<std::uint32_t> many{uses};
    EXPECT_FALSE(l.can_apply(many, none, 1e9));
    EXPECT_FALSE(l.can_apply(none, many, 1e9));
    EXPECT_THROW(l.apply(many, none, 1e9), ContractViolation);
    EXPECT_THROW(l.consume_instance(0, 1e9, uses), ContractViolation);
  }
  EXPECT_EQ(l.link_residual(0), 1e9);  // refusals change nothing
  EXPECT_EQ(l.instance_residual(0), 1e9);

  const std::vector<std::uint32_t> one{1}, ten{10};
  ASSERT_TRUE(l.can_apply(one, one, 1e9));
  l.apply(one, one, 1e9);
  EXPECT_EQ(l.link_residual(0), 0.0);
  EXPECT_THROW(l.unapply(ten, none, 1e9), ContractViolation);
  l.unapply(one, one, 1e9);
  EXPECT_EQ(l.link_residual(0), 1e9);
  EXPECT_EQ(l.instance_residual(0), 1e9);
}

/// 10⁷ random admit/release steps of a one-link, one-instance footprint at
/// non-dyadic rates. Every admission must agree with an integer model in
/// 10⁻⁹ units, and every full drain must leave both residuals at their
/// nominal 8.0 exactly — in doubles, sums like 0.3 + 0.7 − 0.3 − 0.7 drift
/// by ulps.
TEST(Ledger, SoakDrainsToNominalExactlyOverTenMillionSteps) {
  graph::Graph g(2);
  (void)g.add_edge(0, 1, 1.0);
  Network n(std::move(g), VnfCatalog(1), 8.0);
  (void)n.deploy(0, 1, 5.0, 8.0);
  CapacityLedger l(n);

  constexpr std::array<double, 5> kRates = {0.05, 0.1, 0.3, 0.7, 1.3};
  constexpr std::array<std::int64_t, 5> kUnits = {
      50'000'000, 100'000'000, 300'000'000, 700'000'000, 1'300'000'000};
  std::int64_t link_model = 8'000'000'000;
  std::int64_t instance_model = link_model;
  std::vector<std::size_t> held;  // rate index per admitted flow
  Rng rng(0x50a4);
  std::size_t drains = 0, mismatches = 0, inexact = 0, first_inexact = 0;
  for (std::size_t step = 0; step < 10'000'000; ++step) {
    const std::uint64_t draw = rng();
    if (held.empty() || (draw & 1) != 0) {
      const std::size_t r = (draw >> 1) % kRates.size();
      const bool admit = l.link_can_carry(0, kRates[r]) &&
                         l.instance_can_process(0, kRates[r]);
      const bool model =
          link_model >= kUnits[r] && instance_model >= kUnits[r];
      if (admit != model) ++mismatches;
      if (!admit) continue;
      l.consume_link(0, kRates[r]);
      l.consume_instance(0, kRates[r]);
      link_model -= kUnits[r];
      instance_model -= kUnits[r];
      held.push_back(r);
      continue;
    }
    const std::size_t k = (draw >> 1) % held.size();
    const std::size_t r = held[k];
    held[k] = held.back();
    held.pop_back();
    l.release_link(0, kRates[r]);
    l.release_instance(0, kRates[r]);
    link_model += kUnits[r];
    instance_model += kUnits[r];
    if (!held.empty()) continue;
    ++drains;
    if (l.link_residual(0) != 8.0 || l.instance_residual(0) != 8.0) {
      if (inexact++ == 0) first_inexact = step;
    }
  }
  EXPECT_GT(drains, 100'000u);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(inexact, 0u) << "of " << drains
                         << " drains; the first inexact one at step "
                         << first_inexact;
}

}  // namespace
}  // namespace dagsfc::net
