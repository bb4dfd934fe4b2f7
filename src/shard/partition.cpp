#include "shard/partition.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace dagsfc::shard {

RegionPartition RegionPartition::from_labels(
    std::span<const std::uint32_t> labels) {
  DAGSFC_CHECK_MSG(!labels.empty(), "cannot partition an empty node set");
  RegionPartition p;
  p.region_of.assign(labels.begin(), labels.end());
  const RegionId max_label = *std::max_element(labels.begin(), labels.end());
  p.members.resize(static_cast<std::size_t>(max_label) + 1);
  for (graph::NodeId v = 0; v < labels.size(); ++v) {
    p.members[labels[v]].push_back(v);
  }
  for (const auto& m : p.members) {
    DAGSFC_CHECK_MSG(!m.empty(), "region labels are not dense");
  }
  return p;
}

void RegionPartition::validate(const graph::Graph& g) const {
  DAGSFC_CHECK_MSG(region_of.size() == g.num_nodes(),
                   "partition covers a different node count");
  DAGSFC_CHECK_MSG(!members.empty(), "partition has no regions");
  std::size_t covered = 0;
  for (RegionId r = 0; r < members.size(); ++r) {
    DAGSFC_CHECK_MSG(!members[r].empty(), "empty region");
    for (const graph::NodeId v : members[r]) {
      DAGSFC_CHECK(v < region_of.size());
      DAGSFC_CHECK_MSG(region_of[v] == r, "members/region_of disagree");
      ++covered;
    }
  }
  DAGSFC_CHECK_MSG(covered == region_of.size(),
                   "members lists do not cover every node exactly once");
}

PartitionScheme partition_scheme_from_string(const std::string& name) {
  if (name == "labels") return PartitionScheme::kLabels;
  if (name == "stripe") return PartitionScheme::kStripe;
  if (name == "bfs") return PartitionScheme::kBfs;
  throw std::invalid_argument("unknown partition scheme: " + name);
}

RegionPartition partition_stripe(const graph::Graph& g, std::size_t regions) {
  const std::size_t n = g.num_nodes();
  DAGSFC_CHECK_MSG(regions >= 1 && regions <= n,
                   "region count must be in [1, num_nodes]");
  RegionPartition p;
  p.region_of.resize(n);
  p.members.resize(regions);
  for (graph::NodeId v = 0; v < n; ++v) {
    const auto r = static_cast<RegionId>(v * regions / n);
    p.region_of[v] = r;
    p.members[r].push_back(v);
  }
  return p;
}

namespace {

/// Hop distances from \p source over the unweighted graph.
std::vector<std::uint32_t> bfs_hops(const graph::Graph& g,
                                    graph::NodeId source) {
  constexpr auto kUnreached = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> dist(g.num_nodes(), kUnreached);
  std::deque<graph::NodeId> queue;
  dist[source] = 0;
  queue.push_back(source);
  const auto csr = g.csr();
  while (!queue.empty()) {
    const graph::NodeId v = queue.front();
    queue.pop_front();
    for (const auto& inc : csr.row(v)) {
      if (dist[inc.neighbor] == kUnreached) {
        dist[inc.neighbor] = dist[v] + 1;
        queue.push_back(inc.neighbor);
      }
    }
  }
  return dist;
}

}  // namespace

RegionPartition partition_bfs(const graph::Graph& g, std::size_t regions) {
  const std::size_t n = g.num_nodes();
  DAGSFC_CHECK_MSG(regions >= 1 && regions <= n,
                   "region count must be in [1, num_nodes]");
  DAGSFC_CHECK_MSG(is_connected(g), "bfs partition requires a connected graph");

  // Farthest-first seed selection: seed 0 is node 0; every next seed
  // maximizes its hop distance to the nearest chosen seed (lowest id wins
  // ties). min_dist[v] tracks that nearest-seed distance incrementally.
  std::vector<graph::NodeId> seeds;
  seeds.reserve(regions);
  seeds.push_back(0);
  std::vector<std::uint32_t> min_dist = bfs_hops(g, 0);
  while (seeds.size() < regions) {
    graph::NodeId best = graph::kInvalidNode;
    std::uint32_t best_dist = 0;
    for (graph::NodeId v = 0; v < n; ++v) {
      if (min_dist[v] > best_dist ||
          (min_dist[v] == best_dist && best == graph::kInvalidNode)) {
        best = v;
        best_dist = min_dist[v];
      }
    }
    seeds.push_back(best);
    const std::vector<std::uint32_t> d = bfs_hops(g, best);
    for (graph::NodeId v = 0; v < n; ++v) {
      min_dist[v] = std::min(min_dist[v], d[v]);
    }
  }

  // Multi-source BFS: nodes adopt the region of whichever seed reaches them
  // first; within one BFS level the queue drains in seed order then id
  // order, so ties go deterministically to the lowest region id.
  RegionPartition p;
  p.region_of.assign(n, kInvalidRegion);
  p.members.resize(regions);
  std::deque<graph::NodeId> queue;
  for (RegionId r = 0; r < seeds.size(); ++r) {
    p.region_of[seeds[r]] = r;
    queue.push_back(seeds[r]);
  }
  const auto csr = g.csr();
  while (!queue.empty()) {
    const graph::NodeId v = queue.front();
    queue.pop_front();
    for (const auto& inc : csr.row(v)) {
      if (p.region_of[inc.neighbor] == kInvalidRegion) {
        p.region_of[inc.neighbor] = p.region_of[v];
        queue.push_back(inc.neighbor);
      }
    }
  }
  for (graph::NodeId v = 0; v < n; ++v) {
    DAGSFC_CHECK_MSG(p.region_of[v] != kInvalidRegion,
                     "bfs partition left a node unassigned");
    p.members[p.region_of[v]].push_back(v);
  }
  return p;
}

RegionPartition make_partition(const graph::Graph& g, std::size_t regions,
                               PartitionScheme scheme,
                               std::span<const std::uint32_t> labels) {
  RegionPartition p;
  switch (scheme) {
    case PartitionScheme::kLabels:
      DAGSFC_CHECK_MSG(!labels.empty(),
                       "kLabels partition requires generator labels");
      p = RegionPartition::from_labels(labels);
      DAGSFC_CHECK_MSG(regions == 0 || p.num_regions() == regions,
                       "label region count disagrees with the request");
      break;
    case PartitionScheme::kStripe:
      p = partition_stripe(g, regions);
      break;
    case PartitionScheme::kBfs:
      p = partition_bfs(g, regions);
      break;
  }
  p.validate(g);
  return p;
}

}  // namespace dagsfc::shard
