#include "net/ledger.hpp"

#include <gtest/gtest.h>

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

TEST(Ledger, EpsilonToleranceOnExactFit) {
  const Network n = small();
  CapacityLedger l(n);
  // Many small consumes summing to the capacity must not spuriously fail.
  for (int i = 0; i < 10; ++i) l.consume_link(0, 1.0);
  EXPECT_NEAR(l.link_residual(0), 0.0, 1e-9);
  EXPECT_FALSE(l.link_can_carry(0, 0.1));
}

}  // namespace
}  // namespace dagsfc::net
