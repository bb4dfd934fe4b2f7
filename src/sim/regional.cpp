#include "sim/regional.hpp"

#include <utility>

#include "util/check.hpp"

namespace dagsfc::sim {

void RegionalConfig::validate() const {
  base.validate();
  DAGSFC_CHECK_MSG(regions.regions >= 1, "need at least one region");
  DAGSFC_CHECK_MSG(regions.nodes_per_region >= 2,
                   "regions need at least two nodes");
  DAGSFC_CHECK_MSG(regions.inter_price_multiplier > 0.0,
                   "border price multiplier must be positive");
}

RegionalScenario make_regional_scenario(Rng& rng, const RegionalConfig& cfg) {
  cfg.validate();
  graph::RegionalGraph regional = graph::make_regional_waxman(rng, cfg.regions);

  // Intra links are priced around mean_link, border links around
  // mean_link·multiplier; VNFs deploy with make_scenario's recipe
  // (per-type bernoulli, force-deploy when a category lands nowhere).
  const ExperimentConfig& base = cfg.base;
  graph::Graph topo = std::move(regional.graph);
  const double mean_link = base.base_vnf_price * base.average_price_ratio;
  const double lf = base.link_price_fluctuation;
  for (graph::EdgeId e = 0; e < topo.num_edges(); ++e) {
    const graph::Edge& edge = topo.edge(e);
    const bool border =
        regional.region_of[edge.u] != regional.region_of[edge.v];
    const double mean = border
                            ? mean_link * cfg.regions.inter_price_multiplier
                            : mean_link;
    topo.set_weight(e, rng.uniform_real(mean * (1.0 - lf),
                                        mean * (1.0 + lf)));
  }

  net::VnfCatalog catalog(base.catalog_size);
  net::Network network(std::move(topo), catalog, base.link_capacity);

  const double f = base.vnf_price_fluctuation;
  auto draw_price = [&] {
    return rng.uniform_real(base.base_vnf_price * (1.0 - f),
                            base.base_vnf_price * (1.0 + f));
  };
  std::vector<net::VnfTypeId> all_types = catalog.regular_ids();
  all_types.push_back(catalog.merger());
  for (net::VnfTypeId t : all_types) {
    for (graph::NodeId v = 0; v < network.num_nodes(); ++v) {
      if (rng.bernoulli(base.vnf_deploy_ratio)) {
        (void)network.deploy(v, t, draw_price(), base.vnf_capacity);
      }
    }
    if (network.nodes_with(t).empty()) {
      const auto v =
          static_cast<graph::NodeId>(rng.index(network.num_nodes()));
      (void)network.deploy(v, t, draw_price(), base.vnf_capacity);
    }
  }

  return RegionalScenario{std::move(network), std::move(regional.region_of),
                          regional.num_regions};
}

}  // namespace dagsfc::sim
