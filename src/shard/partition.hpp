#pragma once
/// \file partition.hpp
/// Node→region partitions of a substrate — the shard layer's ground truth.
///
/// A RegionPartition assigns every node of a topology to exactly one region
/// (dense ids 0..k-1, every region non-empty). Partitions come from three
/// places:
///   * kLabels — the region-labeled generators (graph::make_regional_waxman
///     / make_regional_fat_tree) emit labels alongside the topology;
///   * kStripe — contiguous NodeId blocks whose sizes differ by at most one
///     (exactly the pod blocks of a fat-tree, and a cheap deterministic
///     default for any substrate whose generator laid related nodes out
///     contiguously);
///   * kBfs — geodesic regions grown by breadth-first search from
///     farthest-first seeds, for substrates with no exploitable id layout.
///
/// All schemes are deterministic: same graph, same region count → the same
/// partition, bit for bit. Determinism matters because the shard service's
/// closed-loop metrics are asserted bit-identical across worker counts, and
/// the partition decides every request's home shard.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace dagsfc::shard {

using RegionId = std::uint32_t;
inline constexpr RegionId kInvalidRegion = static_cast<RegionId>(-1);

struct RegionPartition {
  std::vector<RegionId> region_of;            ///< per NodeId
  std::vector<std::vector<graph::NodeId>> members;  ///< per region, id order

  [[nodiscard]] std::size_t num_regions() const noexcept {
    return members.size();
  }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return region_of.size();
  }
  [[nodiscard]] RegionId region(graph::NodeId v) const {
    DAGSFC_CHECK(v < region_of.size());
    return region_of[v];
  }

  /// Builds the members lists from per-node labels. Labels must be dense
  /// (every id in [0, max_label] occurs at least once).
  [[nodiscard]] static RegionPartition from_labels(
      std::span<const std::uint32_t> labels);

  /// Structural sanity against \p g: one label per node, dense region ids,
  /// no empty region. Contract-checked (throws util::ContractViolation).
  void validate(const graph::Graph& g) const;
};

enum class PartitionScheme : std::uint8_t { kLabels, kStripe, kBfs };

[[nodiscard]] constexpr const char* to_string(PartitionScheme s) noexcept {
  switch (s) {
    case PartitionScheme::kLabels: return "labels";
    case PartitionScheme::kStripe: return "stripe";
    case PartitionScheme::kBfs: return "bfs";
  }
  return "unknown";
}

/// Parses "labels" / "stripe" / "bfs"; throws std::invalid_argument
/// otherwise (CLI flag plumbing).
[[nodiscard]] PartitionScheme partition_scheme_from_string(
    const std::string& name);

/// Contiguous id blocks: node v goes to region ⌊v·k/n⌋, so block sizes
/// differ by at most one and none is empty. Requires 1 ≤ k ≤ n.
[[nodiscard]] RegionPartition partition_stripe(const graph::Graph& g,
                                               std::size_t regions);

/// Geodesic partition: k seeds chosen farthest-first by hop distance
/// (seed 0 = node 0, each next seed maximizes its hop distance to all
/// chosen seeds, ties to the lowest id), then one multi-source BFS assigns
/// every node to the nearest seed (ties to the lowest region id).
/// Deterministic; regions are connected when the graph is.
[[nodiscard]] RegionPartition partition_bfs(const graph::Graph& g,
                                            std::size_t regions);

/// Dispatch on \p scheme; kLabels requires \p labels (from a regional
/// generator), the others ignore it.
[[nodiscard]] RegionPartition make_partition(
    const graph::Graph& g, std::size_t regions, PartitionScheme scheme,
    std::span<const std::uint32_t> labels = {});

}  // namespace dagsfc::shard
