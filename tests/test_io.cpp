#include "net/io.hpp"
#include "sfc/io.hpp"

#include <gtest/gtest.h>

#include "core/backtracking.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"

namespace dagsfc {
namespace {

TEST(NetworkIo, RoundTripCanonicalFixture) {
  auto fx = test::canonical_fixture();
  const std::string text = net::to_text(fx->network);
  const net::Network parsed = net::network_from_text(text);

  EXPECT_EQ(parsed.num_nodes(), fx->network.num_nodes());
  EXPECT_EQ(parsed.num_links(), fx->network.num_links());
  EXPECT_EQ(parsed.num_instances(), fx->network.num_instances());
  EXPECT_EQ(parsed.catalog().num_regular(),
            fx->network.catalog().num_regular());
  for (graph::EdgeId e = 0; e < parsed.num_links(); ++e) {
    EXPECT_DOUBLE_EQ(parsed.link_price(e), fx->network.link_price(e));
    EXPECT_DOUBLE_EQ(parsed.link_capacity(e), fx->network.link_capacity(e));
  }
  for (net::InstanceId id = 0; id < parsed.num_instances(); ++id) {
    EXPECT_EQ(parsed.instance(id).node, fx->network.instance(id).node);
    EXPECT_EQ(parsed.instance(id).type, fx->network.instance(id).type);
    EXPECT_DOUBLE_EQ(parsed.instance(id).price,
                     fx->network.instance(id).price);
  }
}

TEST(NetworkIo, RoundTripIsIdempotentText) {
  auto fx = test::canonical_fixture();
  const std::string once = net::to_text(fx->network);
  const std::string twice = net::to_text(net::network_from_text(once));
  EXPECT_EQ(once, twice);
}

TEST(NetworkIo, RoundTripGeneratedScenario) {
  Rng rng(3);
  sim::ExperimentConfig cfg;
  cfg.network_size = 50;
  cfg.catalog_size = 6;
  const sim::Scenario s = sim::make_scenario(rng, cfg);
  const net::Network parsed = net::network_from_text(net::to_text(s.network));
  EXPECT_EQ(parsed.num_instances(), s.network.num_instances());
  EXPECT_DOUBLE_EQ(parsed.mean_vnf_price(), s.network.mean_vnf_price());
  EXPECT_DOUBLE_EQ(parsed.mean_link_price(), s.network.mean_link_price());
}

TEST(NetworkIo, CustomNamesSurvive) {
  net::VnfCatalog c({"firewall", "ids"});
  graph::Graph g(2);
  (void)g.add_edge(0, 1, 1.0);
  net::Network n(std::move(g), c);
  (void)n.deploy(0, 1, 2.0, 3.0);
  const net::Network parsed = net::network_from_text(net::to_text(n));
  EXPECT_EQ(parsed.catalog().name(1), "firewall");
  EXPECT_EQ(parsed.catalog().name(2), "ids");
}

TEST(NetworkIo, MergerKeywordParses) {
  const std::string text =
      "catalog 2\nnodes 2\nlink 0 1 1.5 10\nvnf 1 merger 2.5 4\n";
  const net::Network n = net::network_from_text(text);
  EXPECT_TRUE(n.has_vnf(1, n.catalog().merger()));
}

TEST(NetworkIo, ErrorsCarryLineNumbers) {
  auto expect_error = [](const std::string& text, const std::string& frag) {
    try {
      (void)net::network_from_text(text);
      FAIL() << "expected parse failure for: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(frag), std::string::npos)
          << e.what();
    }
  };
  expect_error("nodes 2\nlink 0 1 1 1\n", "missing catalog");
  expect_error("catalog 2\n", "missing nodes");
  expect_error("catalog 2\nnodes 2\nlink 0 9 1 1\n", "line 3");
  expect_error("catalog 2\nnodes 2\nbogus 1\n", "unknown keyword");
  expect_error("catalog 2\nnodes 2\nvnf 0 7 1 1\n", "out of range");
  expect_error("catalog 2\nnodes 2\nvnf 0 1\n", "vnf needs");
  expect_error("catalog 2\nnodes 2\nlink 0 0 1 1\n", "self loops");
  // Capacities the ledger cannot count in its int64 units.
  expect_error("catalog 2\nnodes 2\nlink 0 1 1 -1\n", "link capacity");
  expect_error("catalog 2\nnodes 2\nlink 0 1 1 1e300\n", "link capacity");
  expect_error("catalog 2\nnodes 2\nvnf 0 1 1 1e300\n", "line 3");
}

TEST(SfcIo, RoundTripStructure) {
  const sfc::DagSfc dag({sfc::Layer{{1}}, sfc::Layer{{2, 3, 4}},
                         sfc::Layer{{5, 6}}});
  const sfc::SfcFile parsed = sfc::sfc_from_text(sfc::to_text(dag));
  ASSERT_EQ(parsed.dag.num_layers(), 3u);
  for (std::size_t l = 0; l < 3; ++l) {
    EXPECT_EQ(parsed.dag.layer(l).vnfs, dag.layer(l).vnfs);
  }
  EXPECT_FALSE(parsed.flow.has_value());
}

TEST(SfcIo, FlowLineRoundTrips) {
  const sfc::DagSfc dag({sfc::Layer{{1, 2}}});
  sfc::SfcFile::Flow f{3, 9, 2.0, 4.5};
  const sfc::SfcFile parsed = sfc::sfc_from_text(sfc::to_text(dag, f));
  ASSERT_TRUE(parsed.flow.has_value());
  EXPECT_EQ(parsed.flow->source, 3u);
  EXPECT_EQ(parsed.flow->destination, 9u);
  EXPECT_DOUBLE_EQ(parsed.flow->rate, 2.0);
  EXPECT_DOUBLE_EQ(parsed.flow->size, 4.5);
}

TEST(SfcIo, ParseErrors) {
  EXPECT_THROW((void)sfc::sfc_from_text(""), std::invalid_argument);
  EXPECT_THROW((void)sfc::sfc_from_text("layer\n"), std::invalid_argument);
  EXPECT_THROW((void)sfc::sfc_from_text("layer 1 x\n"),
               std::invalid_argument);
  EXPECT_THROW((void)sfc::sfc_from_text("chain 1 2\n"),
               std::invalid_argument);
  EXPECT_THROW((void)sfc::sfc_from_text("layer 1\nflow 0 1\n"),
               std::invalid_argument);
}

TEST(SfcIo, CommentsAndBlanksIgnored) {
  const sfc::SfcFile parsed = sfc::sfc_from_text(
      "# header\n\nlayer 1 2\n  \n# trailing\nlayer 3\n");
  EXPECT_EQ(parsed.dag.num_layers(), 2u);
}

TEST(Io, MutatedTextNeverCrashesTheParsers) {
  // Fuzz-lite: random single-character mutations of valid documents must
  // either parse or throw std::invalid_argument — never crash or hang.
  auto fx = test::canonical_fixture();
  const std::string net_text = net::to_text(fx->network);
  const std::string sfc_text =
      sfc::to_text(fx->dag, sfc::SfcFile::Flow{0, 4, 1.0, 1.0});
  Rng rng(0xF022);
  const std::string charset = "abcxyz0189 .-#\nmerger";
  for (int trial = 0; trial < 200; ++trial) {
    std::string n = net_text;
    std::string s = sfc_text;
    for (int m = 0; m < 3; ++m) {
      n[rng.index(n.size())] = charset[rng.index(charset.size())];
      s[rng.index(s.size())] = charset[rng.index(charset.size())];
    }
    try {
      (void)net::network_from_text(n);
    } catch (const std::invalid_argument&) {
    } catch (const ContractViolation&) {
    }
    try {
      (void)sfc::sfc_from_text(s);
    } catch (const std::invalid_argument&) {
    } catch (const ContractViolation&) {
    }
  }
}

TEST(Io, FullProblemRoundTripSolvesIdentically) {
  // Serialize the canonical fixture, reload it, and confirm MBBE returns
  // the same cost on the reloaded instance.
  auto fx = test::canonical_fixture();
  const std::string net_text = net::to_text(fx->network);
  const std::string sfc_text = sfc::to_text(
      fx->dag, sfc::SfcFile::Flow{fx->problem.flow.source,
                                  fx->problem.flow.destination,
                                  fx->problem.flow.rate,
                                  fx->problem.flow.size});
  net::Network network = net::network_from_text(net_text);
  const sfc::SfcFile file = sfc::sfc_from_text(sfc_text);
  ASSERT_TRUE(file.flow.has_value());
  core::EmbeddingProblem problem;
  problem.network = &network;
  problem.sfc = &file.dag;
  problem.flow = core::Flow{file.flow->source, file.flow->destination,
                            file.flow->rate, file.flow->size};
  const core::ModelIndex index(problem);
  const core::MbbeEmbedder mbbe;
  Rng rng(1);
  const auto reloaded = mbbe.solve_fresh(index, rng);
  const auto original = mbbe.solve_fresh(*fx->index, rng);
  ASSERT_TRUE(reloaded.ok() && original.ok());
  EXPECT_DOUBLE_EQ(reloaded.cost, original.cost);
}

}  // namespace
}  // namespace dagsfc
