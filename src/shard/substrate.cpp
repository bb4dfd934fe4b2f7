#include "shard/substrate.hpp"

#include <algorithm>
#include <limits>

#include "graph/yen.hpp"

namespace dagsfc::shard {

ShardedSubstrate::ShardedSubstrate(const net::Network& network,
                                   RegionPartition partition)
    : net_(&network), partition_(std::move(partition)) {
  partition_.validate(network.topology());
  const std::size_t k = partition_.num_regions();
  const graph::Graph& g = network.topology();

  link_owner_.resize(g.num_edges());
  border_link_.resize(g.num_edges());
  region_links_.resize(k);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge& edge = g.edge(e);
    const RegionId ru = partition_.region(edge.u);
    const RegionId rv = partition_.region(edge.v);
    border_link_[e] = ru != rv;
    link_owner_[e] = std::min(ru, rv);
    region_links_[link_owner_[e]].push_back(e);
  }

  instance_owner_.resize(network.num_instances());
  region_instances_.resize(k);
  for (InstanceId id = 0; id < network.num_instances(); ++id) {
    const RegionId r = partition_.region(network.instance(id).node);
    instance_owner_[id] = r;
    region_instances_[r].push_back(id);
  }

  // Region-graph topology: scan border links once, one arc per adjacent
  // region pair. Edge ids in region_graph_ follow first-sighting order of
  // the pair, which is deterministic (global EdgeId order).
  region_graph_ = graph::Graph(k);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!border_link_[e]) continue;
    const graph::Edge& edge = g.edge(e);
    const auto a = static_cast<graph::NodeId>(partition_.region(edge.u));
    const auto b = static_cast<graph::NodeId>(partition_.region(edge.v));
    graph::EdgeId arc;
    if (const auto existing = region_graph_.find_edge(a, b)) {
      arc = *existing;
    } else {
      arc = region_graph_.add_edge(a, b, 0.0);
      arc_border_links_.emplace_back();
    }
    arc_border_links_[arc].push_back(e);
  }

  refresh_summaries();
}

std::span<const EdgeId> ShardedSubstrate::border_links(RegionId a,
                                                       RegionId b) const {
  DAGSFC_CHECK(a < partition_.num_regions() && b < partition_.num_regions());
  const auto arc = region_graph_.find_edge(static_cast<graph::NodeId>(a),
                                           static_cast<graph::NodeId>(b));
  if (!arc) return {};
  return arc_border_links_[*arc];
}

void ShardedSubstrate::refresh_summaries() {
  const std::size_t k = partition_.num_regions();

  // Transit prices: mean intra-region link price per region.
  transit_price_.assign(k, 0.0);
  std::vector<std::size_t> intra_count(k, 0);
  for (RegionId r = 0; r < k; ++r) {
    for (const EdgeId e : region_links_[r]) {
      if (border_link_[e]) continue;
      transit_price_[r] += net_->link_price(e);
      ++intra_count[r];
    }
  }
  for (RegionId r = 0; r < k; ++r) {
    if (intra_count[r] > 0) {
      transit_price_[r] /= static_cast<double>(intra_count[r]);
    }
  }

  // Arc weights: cheapest border crossing plus half the transit of each
  // side. set_weight writes the CSR mirror through, so refreshing never
  // invalidates the contracted graph's packed view.
  for (graph::EdgeId arc = 0; arc < region_graph_.num_edges(); ++arc) {
    const graph::Edge& a = region_graph_.edge(arc);
    double min_border = std::numeric_limits<double>::infinity();
    for (const EdgeId e : arc_border_links_[arc]) {
      min_border = std::min(min_border, net_->link_price(e));
    }
    region_graph_.set_weight(
        arc, min_border + 0.5 * (transit_price_[a.u] + transit_price_[a.v]));
  }
  ++summary_epoch_;
}

std::vector<std::vector<RegionId>> ShardedSubstrate::region_paths(
    NodeId src, NodeId dst, std::size_t k, graph::SearchWorkspace& ws) const {
  DAGSFC_CHECK(k >= 1);
  const RegionId from = partition_.region(src);
  const RegionId to = partition_.region(dst);
  if (from == to) return {{from}};
  const auto paths = graph::k_shortest_paths(
      region_graph_, static_cast<graph::NodeId>(from),
      static_cast<graph::NodeId>(to), k, nullptr, ws);
  std::vector<std::vector<RegionId>> out;
  out.reserve(paths.size());
  for (const auto& p : paths) {
    std::vector<RegionId> regions;
    regions.reserve(p.nodes.size());
    for (const graph::NodeId v : p.nodes) {
      regions.push_back(static_cast<RegionId>(v));
    }
    out.push_back(std::move(regions));
  }
  return out;
}

}  // namespace dagsfc::shard
