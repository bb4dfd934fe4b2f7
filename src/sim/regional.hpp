#pragma once
/// \file regional.hpp
/// Regional scenario generation — the shard layer's substrate factory.
///
/// Wraps graph::make_regional_waxman with the same pricing and VNF
/// deployment recipe as make_scenario (§5.1): VNF prices
/// uniform around base_vnf_price, link prices uniform around
/// base_vnf_price·average_price_ratio — except border links, whose price
/// band is scaled by RegionSpec::inter_price_multiplier. The price gap is
/// what gives the contracted region graph's summaries their signal: an
/// embedding that stays inside one region is visibly cheaper than one that
/// hops regions, so hierarchical stage one has something real to rank.
///
/// The per-node region labels ride along for shard::make_partition's
/// kLabels scheme; the generators' 5k–50k node range is exactly regions ×
/// nodes_per_region.

#include <cstdint>
#include <vector>

#include "graph/generator.hpp"
#include "net/network.hpp"
#include "sim/config.hpp"

namespace dagsfc::sim {

struct RegionalConfig {
  /// Pricing, deployment, capacity, SFC and flow knobs; network_size and
  /// network_connectivity are ignored (the RegionSpec owns the topology).
  ExperimentConfig base;
  graph::RegionSpec regions;

  [[nodiscard]] std::size_t total_nodes() const noexcept {
    return regions.regions * regions.nodes_per_region;
  }
  void validate() const;
};

struct RegionalScenario {
  net::Network network;
  std::vector<std::uint32_t> region_of;  ///< per NodeId — feed kLabels
  std::size_t num_regions = 0;
};

/// Regional Waxman substrate, priced and deployed. Deterministic in \p rng.
[[nodiscard]] RegionalScenario make_regional_scenario(
    Rng& rng, const RegionalConfig& cfg);

}  // namespace dagsfc::sim
