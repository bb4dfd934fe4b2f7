#include "net/network.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "util/rng.hpp"

namespace dagsfc::net {
namespace {

Network triangle() {
  graph::Graph g(3);
  (void)g.add_edge(0, 1, 2.0);
  (void)g.add_edge(1, 2, 3.0);
  (void)g.add_edge(0, 2, 4.0);
  return Network(std::move(g), VnfCatalog(2), 50.0);
}

TEST(Network, TopologyAndLinkDefaults) {
  const Network n = triangle();
  EXPECT_EQ(n.num_nodes(), 3u);
  EXPECT_EQ(n.num_links(), 3u);
  EXPECT_DOUBLE_EQ(n.link_price(0), 2.0);
  EXPECT_DOUBLE_EQ(n.link_capacity(0), 50.0);
}

TEST(Network, LinkMutation) {
  Network n = triangle();
  n.set_link_price(1, 7.5);
  n.set_link_capacity(1, 9.0);
  EXPECT_DOUBLE_EQ(n.link_price(1), 7.5);
  EXPECT_DOUBLE_EQ(n.link_capacity(1), 9.0);
  EXPECT_THROW(n.set_link_capacity(1, -1.0), ContractViolation);
}

TEST(Network, DeployAndLookup) {
  Network n = triangle();
  const InstanceId id = n.deploy(1, 1, 10.0, 5.0);
  EXPECT_EQ(n.num_instances(), 1u);
  EXPECT_EQ(n.instance(id).node, 1u);
  EXPECT_EQ(n.instance(id).type, 1u);
  EXPECT_DOUBLE_EQ(n.instance(id).price, 10.0);
  EXPECT_DOUBLE_EQ(n.instance(id).capacity, 5.0);
  EXPECT_EQ(n.find_instance(1, 1), std::optional<InstanceId>(id));
  EXPECT_FALSE(n.find_instance(0, 1).has_value());
  EXPECT_TRUE(n.has_vnf(1, 1));
  EXPECT_FALSE(n.has_vnf(1, 2));
}

TEST(Network, OneInstancePerTypePerNode) {
  Network n = triangle();
  (void)n.deploy(0, 1, 1.0, 1.0);
  EXPECT_THROW((void)n.deploy(0, 1, 2.0, 2.0), ContractViolation);
  (void)n.deploy(0, 2, 2.0, 2.0);  // different type on same node is fine
  EXPECT_EQ(n.instances_on(0).size(), 2u);
}

TEST(Network, DummyNotDeployable) {
  Network n = triangle();
  EXPECT_THROW((void)n.deploy(0, VnfCatalog::dummy(), 1.0, 1.0),
               ContractViolation);
}

TEST(Network, MergerIsDeployable) {
  Network n = triangle();
  const VnfTypeId m = n.catalog().merger();
  (void)n.deploy(2, m, 3.0, 4.0);
  EXPECT_TRUE(n.has_vnf(2, m));
  EXPECT_EQ(n.nodes_with(m), std::vector<graph::NodeId>{2});
}

TEST(Network, TypeNodeSetsTrackDeployments) {
  Network n = triangle();
  (void)n.deploy(0, 1, 1.0, 1.0);
  (void)n.deploy(2, 1, 1.0, 1.0);
  (void)n.deploy(1, 2, 1.0, 1.0);
  EXPECT_EQ(n.nodes_with(1), (std::vector<graph::NodeId>{0, 2}));
  EXPECT_EQ(n.nodes_with(2), std::vector<graph::NodeId>{1});
  EXPECT_TRUE(n.nodes_with(n.catalog().merger()).empty());
}

TEST(Network, MeanPrices) {
  Network n = triangle();
  EXPECT_DOUBLE_EQ(n.mean_link_price(), 3.0);
  EXPECT_DOUBLE_EQ(n.mean_vnf_price(), 0.0);  // nothing deployed
  (void)n.deploy(0, 1, 10.0, 1.0);
  (void)n.deploy(1, 2, 20.0, 1.0);
  EXPECT_DOUBLE_EQ(n.mean_vnf_price(), 15.0);
}

TEST(Network, InvalidArgumentsRejected) {
  Network n = triangle();
  EXPECT_THROW((void)n.deploy(9, 1, 1.0, 1.0), ContractViolation);
  EXPECT_THROW((void)n.deploy(0, 99, 1.0, 1.0), ContractViolation);
  EXPECT_THROW((void)n.deploy(0, 1, -1.0, 1.0), ContractViolation);
  EXPECT_THROW((void)n.deploy(0, 1, 1.0, -1.0), ContractViolation);
  // Capacities the ledger cannot count in its int64 units of 1e-9.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, 1e10}) {
    EXPECT_THROW(n.set_link_capacity(0, bad), ContractViolation);
    EXPECT_THROW((void)n.deploy(0, 1, 1.0, bad), ContractViolation);
    EXPECT_THROW(Network(graph::Graph(2), VnfCatalog(1), bad),
                 ContractViolation);
  }
  EXPECT_EQ(n.num_instances(), 0u);
  n.set_link_capacity(0, 9e9);  // the range ends near 9.2e9
  EXPECT_EQ(n.link_capacity(0), 9e9);
}

/// find_instance answers from a dense node × type table; it must agree with
/// a scan of the node's instance list for every (node, type) pair, deployed
/// or not, whatever order the deployments came in.
TEST(Network, FindInstanceAgreesWithInstanceScanOnRandomNetworks) {
  Rng rng(0x1257a9ce);
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::size_t n = 1 + rng.index(25);
    const std::size_t regular = 1 + rng.index(8);
    graph::Graph g(n);
    for (graph::NodeId v = 1; v < n; ++v) {
      (void)g.add_edge(static_cast<graph::NodeId>(rng.index(v)), v, 1.0);
    }
    Network net(std::move(g), VnfCatalog(regular));
    const auto types = static_cast<VnfTypeId>(net.catalog().num_types());
    for (graph::NodeId v = 0; v < n; ++v) {
      for (VnfTypeId t = 1; t < types; ++t) {  // regular types and merger
        if (rng.bernoulli(0.4)) (void)net.deploy(v, t, 1.0, 1.0);
      }
    }
    for (graph::NodeId v = 0; v < n; ++v) {
      for (VnfTypeId t = 0; t < types; ++t) {
        std::optional<InstanceId> scanned;
        for (const InstanceId id : net.instances_on(v)) {
          if (net.instance(id).type == t) scanned = id;
        }
        EXPECT_EQ(net.find_instance(v, t), scanned) << v << " " << t;
      }
    }
    EXPECT_THROW((void)net.find_instance(static_cast<graph::NodeId>(n), 1),
                 ContractViolation);
    EXPECT_THROW((void)net.find_instance(0, types), ContractViolation);
  }
}

}  // namespace
}  // namespace dagsfc::net
