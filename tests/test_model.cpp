#include "core/model.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "test_helpers.hpp"

namespace dagsfc::core {
namespace {

TEST(EmbeddingProblem, ValidateChecksEverything) {
  auto fx = test::canonical_fixture();
  EXPECT_NO_THROW(fx->problem.validate());

  EmbeddingProblem bad = fx->problem;
  bad.network = nullptr;
  EXPECT_THROW(bad.validate(), ContractViolation);

  bad = fx->problem;
  bad.flow.source = 99;
  EXPECT_THROW(bad.validate(), ContractViolation);

  bad = fx->problem;
  // Rates the ledger cannot count: below one 1e-9 unit, or not finite, or
  // beyond its int64 range.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double rate : {0.0, 4e-10, nan, inf, 1e10}) {
    bad.flow.rate = rate;
    EXPECT_THROW(bad.validate(), ContractViolation) << rate;
  }
  bad.flow.rate = 1e-9;  // one unit
  EXPECT_NO_THROW(bad.validate());

  bad = fx->problem;
  bad.flow.size = -1.0;
  EXPECT_THROW(bad.validate(), ContractViolation);
}

TEST(ModelIndex, SlotLayoutForCanonicalFixture) {
  // [f1] -> [f2|f3 (+merger)] → slots: f1, f2, f3, merger.
  auto fx = test::canonical_fixture();
  const ModelIndex& idx = *fx->index;
  const net::VnfCatalog& c = fx->network.catalog();
  ASSERT_EQ(idx.num_slots(), 4u);
  EXPECT_EQ(idx.slot_type(0), c.regular(1));
  EXPECT_EQ(idx.slot_type(1), c.regular(2));
  EXPECT_EQ(idx.slot_type(2), c.regular(3));
  EXPECT_EQ(idx.slot_type(3), c.merger());
  EXPECT_TRUE(idx.is_merger_slot(3));
  EXPECT_FALSE(idx.is_merger_slot(1));
  EXPECT_EQ(idx.slot_layer(0), 0u);
  EXPECT_EQ(idx.slot_layer(3), 1u);
}

TEST(ModelIndex, SlotLookupHelpers) {
  auto fx = test::canonical_fixture();
  const ModelIndex& idx = *fx->index;
  EXPECT_EQ(idx.vnf_slot(0, 0), 0u);
  EXPECT_EQ(idx.vnf_slot(1, 1), 2u);
  EXPECT_EQ(idx.merger_slot(1), 3u);
  EXPECT_EQ(idx.layer_end_slot(0), 0u);  // single VNF
  EXPECT_EQ(idx.layer_end_slot(1), 3u);  // merger
  EXPECT_THROW((void)idx.merger_slot(0), ContractViolation);
  EXPECT_EQ(idx.layer_slots(1).size(), 3u);
}

TEST(ModelIndex, InterLayerGroupsCoverSfcPlusDestinationHop) {
  auto fx = test::canonical_fixture();
  const ModelIndex& idx = *fx->index;
  // Groups: 0 (src→f1), 1 (f1→{f2,f3}), 2 (merger→t).
  EXPECT_EQ(idx.num_inter_groups(), 3u);
  ASSERT_EQ(idx.inter_paths().size(), 4u);

  auto [f0, l0] = idx.inter_group_range(0);
  EXPECT_EQ(l0 - f0, 1u);
  EXPECT_EQ(idx.inter_paths()[f0].from.kind, SlotRef::Kind::Source);
  EXPECT_EQ(idx.inter_paths()[f0].to, SlotRef::of(0));

  auto [f1, l1] = idx.inter_group_range(1);
  EXPECT_EQ(l1 - f1, 2u);
  EXPECT_EQ(idx.inter_paths()[f1].from, SlotRef::of(0));
  EXPECT_EQ(idx.inter_paths()[f1].to, SlotRef::of(1));
  EXPECT_EQ(idx.inter_paths()[f1 + 1].to, SlotRef::of(2));

  auto [f2, l2] = idx.inter_group_range(2);
  EXPECT_EQ(l2 - f2, 1u);
  EXPECT_EQ(idx.inter_paths()[f2].from, SlotRef::of(3));  // merger
  EXPECT_EQ(idx.inter_paths()[f2].to.kind, SlotRef::Kind::Destination);
}

TEST(ModelIndex, InnerLayerPathsOnlyForParallelLayers) {
  auto fx = test::canonical_fixture();
  const ModelIndex& idx = *fx->index;
  ASSERT_EQ(idx.inner_paths().size(), 2u);
  auto [f0, l0] = idx.inner_layer_range(0);
  EXPECT_EQ(f0, l0);  // single-VNF layer: none
  auto [f1, l1] = idx.inner_layer_range(1);
  EXPECT_EQ(l1 - f1, 2u);
  EXPECT_EQ(idx.inner_paths()[f1].from, SlotRef::of(1));
  EXPECT_EQ(idx.inner_paths()[f1].to, SlotRef::of(3));
  EXPECT_EQ(idx.inner_paths()[f1 + 1].from, SlotRef::of(2));
}

TEST(ModelIndex, AllSequentialSfcHasNoMergerSlots) {
  test::NetBuilder b(3, 2);
  b.link(0, 1, 1.0).link(1, 2, 1.0);
  b.put(1, 1, 1.0).put(1, 2, 1.0);
  auto fx = test::make_fixture(
      b.build(), sfc::DagSfc({sfc::Layer{{1}}, sfc::Layer{{2}}}),
      Flow{0, 2, 1.0, 1.0});
  EXPECT_EQ(fx->index->num_slots(), 2u);
  EXPECT_TRUE(fx->index->inner_paths().empty());
  EXPECT_EQ(fx->index->num_inter_groups(), 3u);
}

TEST(ModelIndex, WideSingleLayer) {
  test::NetBuilder b(2, 4);
  b.link(0, 1, 1.0);
  for (net::VnfTypeId t = 1; t <= 4; ++t) b.put(0, t, 1.0);
  b.put(0, b.merger(), 1.0);
  auto fx = test::make_fixture(
      b.build(), sfc::DagSfc({sfc::Layer{{1, 2, 3, 4}}}),
      Flow{0, 1, 1.0, 1.0});
  EXPECT_EQ(fx->index->num_slots(), 5u);  // 4 VNFs + merger
  EXPECT_EQ(fx->index->inner_paths().size(), 4u);
  auto [f, l] = fx->index->inter_group_range(0);
  EXPECT_EQ(l - f, 4u);
}

}  // namespace
}  // namespace dagsfc::core
