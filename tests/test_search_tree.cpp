#include "core/search_tree.hpp"

#include <gtest/gtest.h>

#include <set>

namespace dagsfc::core {
namespace {

/// Path 0-1-2-3 plus branch 1-4 (same shape as the BFS tests).
graph::Graph branchy() {
  graph::Graph g(5);
  (void)g.add_edge(0, 1, 1.0);
  (void)g.add_edge(1, 2, 1.0);
  (void)g.add_edge(2, 3, 1.0);
  (void)g.add_edge(1, 4, 1.0);
  return g;
}

SearchTree full_tree(const graph::Graph& g, graph::NodeId start) {
  graph::RingExpander e(g, start);
  while (!e.expand().empty()) {
  }
  return SearchTree::from_expander(e);
}

TEST(SearchTree, RootIsStartNode) {
  const graph::Graph g = branchy();
  const SearchTree t = full_tree(g, 0);
  EXPECT_EQ(t.root_network_node(), 0u);
  EXPECT_EQ(t.node(t.root()).father, SearchTree::kNone);
  EXPECT_EQ(t.node(t.root()).ring, 0u);
}

TEST(SearchTree, ContainsAllReachedNodes) {
  const graph::Graph g = branchy();
  const SearchTree t = full_tree(g, 0);
  EXPECT_EQ(t.size(), 5u);
  for (graph::NodeId v = 0; v < 5; ++v) EXPECT_TRUE(t.contains(v)) << v;
  EXPECT_FALSE(t.contains(99));
  const auto nodes = t.network_nodes();
  EXPECT_EQ(std::set<graph::NodeId>(nodes.begin(), nodes.end()).size(), 5u);
}

TEST(SearchTree, FathersFollowBfsParents) {
  const graph::Graph g = branchy();
  const SearchTree t = full_tree(g, 0);
  const auto i3 = t.find(3);
  ASSERT_NE(i3, SearchTree::kNone);
  EXPECT_EQ(t.node(i3).ring, 3u);
  EXPECT_EQ(t.node(t.node(i3).father).network_node, 2u);
}

TEST(SearchTree, PathToRootWalksFatherPointers) {
  const graph::Graph g = branchy();
  const SearchTree t = full_tree(g, 0);
  const graph::Path p = t.path_to_root(g, 3);
  EXPECT_EQ(p.nodes, (std::vector<graph::NodeId>{3, 2, 1, 0}));
  EXPECT_TRUE(g.path_valid(p));
  EXPECT_DOUBLE_EQ(p.cost, 3.0);
}

TEST(SearchTree, PathFromRootIsReversed) {
  const graph::Graph g = branchy();
  const SearchTree t = full_tree(g, 0);
  const graph::Path p = t.path_from_root(g, 4);
  EXPECT_EQ(p.nodes, (std::vector<graph::NodeId>{0, 1, 4}));
  EXPECT_TRUE(g.path_valid(p));
}

TEST(SearchTree, PathToRootOfRootIsTrivial) {
  const graph::Graph g = branchy();
  const SearchTree t = full_tree(g, 0);
  const graph::Path p = t.path_to_root(g, 0);
  EXPECT_EQ(p.nodes, std::vector<graph::NodeId>{0});
  EXPECT_TRUE(p.edges.empty());
}

TEST(SearchTree, UnknownNodeRejected) {
  graph::Graph g(3);
  (void)g.add_edge(0, 1, 1.0);  // node 2 disconnected
  const SearchTree t = full_tree(g, 0);
  EXPECT_THROW((void)t.path_to_root(g, 2), ContractViolation);
}

TEST(SearchTree, BinaryViewTable1Layout) {
  const graph::Graph g = branchy();
  const SearchTree t = full_tree(g, 0);
  const auto bin = t.binary_view();
  ASSERT_EQ(bin.size(), t.size());
  // Root: left child = first node of ring 1, no right sibling.
  EXPECT_EQ(bin[0].father, SearchTree::kNone);
  ASSERT_NE(bin[0].left_child, SearchTree::kNone);
  EXPECT_EQ(t.node(bin[0].left_child).ring, 1u);
  EXPECT_EQ(bin[0].right_child, SearchTree::kNone);
  // Ring-2 nodes {2,4} are right-siblings of each other (contiguous).
  const auto i2 = t.find(2);
  const auto i4 = t.find(4);
  const auto first = std::min(i2, i4);
  const auto second = std::max(i2, i4);
  EXPECT_EQ(bin[first].right_child, second);
  EXPECT_EQ(bin[second].right_child, SearchTree::kNone);
  // Every non-root binary node's father matches the n-ary father.
  for (SearchTree::TreeIndex i = 0; i < bin.size(); ++i) {
    EXPECT_EQ(bin[i].father, t.node(i).father);
    EXPECT_EQ(bin[i].network_node, t.node(i).network_node);
  }
}

TEST(SearchTree, BinaryViewLeftChildIsFirstChild) {
  const graph::Graph g = branchy();
  const SearchTree t = full_tree(g, 0);
  const auto bin = t.binary_view();
  const auto i1 = t.find(1);
  SearchTree::TreeIndex first_child = SearchTree::kNone;
  for (SearchTree::TreeIndex i = 0; i < t.size(); ++i) {
    if (t.node(i).father == i1) {
      first_child = i;
      break;
    }
  }
  ASSERT_NE(first_child, SearchTree::kNone);
  EXPECT_EQ(bin[i1].left_child, first_child);
}

TEST(SearchTree, AssignRebuildsFromAnotherSearchInPlace) {
  const graph::Graph g = branchy();
  SearchTree t = full_tree(g, 0);
  graph::RingExpander e(g, 3, [](graph::NodeId v) { return v != 1; });
  while (!e.expand().empty()) {
  }
  t.assign(e);
  EXPECT_EQ(t.network_nodes(), (std::vector<graph::NodeId>{3, 2}));
  EXPECT_EQ(t.network_nodes(), SearchTree::from_expander(e).network_nodes());
  for (graph::NodeId v : {0u, 1u, 4u}) EXPECT_FALSE(t.contains(v)) << v;
  EXPECT_EQ(t.root_network_node(), 3u);
  EXPECT_EQ(t.path_to_root(g, 2).nodes, (std::vector<graph::NodeId>{2, 3}));
}

TEST(SearchTree, RestrictedExpanderYieldsSubtree) {
  const graph::Graph g = branchy();
  graph::RingExpander e(g, 0, [](graph::NodeId v) { return v != 2; });
  while (!e.expand().empty()) {
  }
  const SearchTree t = SearchTree::from_expander(e);
  EXPECT_TRUE(t.contains(4));
  EXPECT_FALSE(t.contains(2));
  EXPECT_FALSE(t.contains(3));
}

}  // namespace
}  // namespace dagsfc::core
