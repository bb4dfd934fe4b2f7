#pragma once
/// \file substrate.hpp
/// ShardedSubstrate — a priced Network seen through a RegionPartition.
///
/// The substrate derives, once, the shard layer's ownership map: every
/// resource (link or VNF instance) belongs to exactly one region, so each
/// shard's ledger can be the sole writer of its resources and a commit
/// only needs the locks of the regions its solution actually touches.
/// The ownership rule:
///   * an instance belongs to the region of its node;
///   * an intra-region link belongs to that region;
///   * a border link (endpoints in different regions) belongs to the
///     lower-numbered endpoint region — an arbitrary but fixed tie-break
///     that keeps the rule total and deterministic.
///
/// On top of the partition sits the contracted RegionGraph: one node per
/// region, an arc wherever at least one border link exists, and an arc
/// weight summarizing what crossing between the two regions costs:
///
///   w(A,B) = min border-link price(A,B) + ½·(transit(A) + transit(B))
///
/// where transit(R) is the mean intra-region link price of R — a proxy for
/// the cost of reaching the border from inside the region. Arc topology is
/// structural (fixed at construction); arc weights are price summaries and
/// go stale when the substrate is repriced. refresh_summaries() recomputes
/// them (through Graph::set_weight's write-through mirror — no CSR rebuild)
/// and bumps summary_epoch(), so callers can cheaply detect which pricing
/// generation a cached region path belongs to.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/workspace.hpp"
#include "net/network.hpp"
#include "shard/partition.hpp"

namespace dagsfc::shard {

using net::EdgeId;
using net::InstanceId;
using net::NodeId;

class ShardedSubstrate {
 public:
  /// Both referents must outlive the substrate. The partition must cover
  /// exactly the network's node set (validated).
  ShardedSubstrate(const net::Network& network, RegionPartition partition);

  [[nodiscard]] const net::Network& network() const noexcept { return *net_; }
  [[nodiscard]] const RegionPartition& partition() const noexcept {
    return partition_;
  }
  [[nodiscard]] std::size_t num_regions() const noexcept {
    return partition_.num_regions();
  }

  // --- ownership ----------------------------------------------------------

  [[nodiscard]] RegionId region_of_node(NodeId v) const {
    return partition_.region(v);
  }
  [[nodiscard]] RegionId owner_of_link(EdgeId e) const {
    DAGSFC_CHECK(e < link_owner_.size());
    return link_owner_[e];
  }
  [[nodiscard]] RegionId owner_of_instance(InstanceId id) const {
    DAGSFC_CHECK(id < instance_owner_.size());
    return instance_owner_[id];
  }
  [[nodiscard]] bool is_border_link(EdgeId e) const {
    DAGSFC_CHECK(e < border_link_.size());
    return border_link_[e];
  }

  /// All links / instances a region's shard is the sole writer of.
  [[nodiscard]] std::span<const EdgeId> links_owned_by(RegionId r) const {
    DAGSFC_CHECK(r < region_links_.size());
    return region_links_[r];
  }
  [[nodiscard]] std::span<const InstanceId> instances_owned_by(
      RegionId r) const {
    DAGSFC_CHECK(r < region_instances_.size());
    return region_instances_[r];
  }

  /// Every border link between regions \p a and \p b (either orientation);
  /// empty span when the regions are not adjacent.
  [[nodiscard]] std::span<const EdgeId> border_links(RegionId a,
                                                    RegionId b) const;

  // --- contracted region graph --------------------------------------------

  /// One node per region; arcs where border links exist; weights are the
  /// cost summaries described in the file comment, as of the last
  /// refresh_summaries() (construction counts as the first refresh).
  [[nodiscard]] const graph::Graph& region_graph() const noexcept {
    return region_graph_;
  }

  /// transit(R) of \p r as of the last refresh — its mean intra-region
  /// link price; 0 when the region has no intra links.
  [[nodiscard]] double transit_price(RegionId r) const {
    DAGSFC_CHECK(r < transit_price_.size());
    return transit_price_[r];
  }

  /// Recomputes every arc weight and transit price from the network's
  /// current prices and bumps summary_epoch(). Call after repricing the
  /// substrate; topology never changes.
  void refresh_summaries();

  /// Pricing generation of the summaries (1 after construction).
  [[nodiscard]] std::uint64_t summary_epoch() const noexcept {
    return summary_epoch_;
  }

  /// Stage one of hierarchical embedding: up to \p k cheapest loopless
  /// region sequences from the region of \p src to the region of \p dst on
  /// the contracted graph, in ascending summary-cost order (deterministic —
  /// Yen with its fixed tie-breaks). A same-region pair yields the single
  /// one-element sequence. Each sequence is a set of regions an embedding
  /// may use; order within it carries no constraint for stage two. Yen
  /// searches through the caller's \p ws.
  [[nodiscard]] std::vector<std::vector<RegionId>> region_paths(
      NodeId src, NodeId dst, std::size_t k, graph::SearchWorkspace& ws) const;

 private:
  const net::Network* net_;
  RegionPartition partition_;

  std::vector<RegionId> link_owner_;
  std::vector<RegionId> instance_owner_;
  std::vector<bool> border_link_;
  std::vector<std::vector<EdgeId>> region_links_;
  std::vector<std::vector<InstanceId>> region_instances_;

  /// Border links per region-graph arc, indexed by the arc's EdgeId in
  /// region_graph_.
  std::vector<std::vector<EdgeId>> arc_border_links_;

  graph::Graph region_graph_;
  std::vector<double> transit_price_;
  std::uint64_t summary_epoch_ = 0;
};

}  // namespace dagsfc::shard
