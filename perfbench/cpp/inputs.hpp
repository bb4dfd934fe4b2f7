#pragma once
/// \file inputs.hpp
/// The benchmark's own input generators. Every network, DAG-SFC, flow rate
/// and holding time comes from BenchRng through public constructors only
/// (graph::Graph, net::Network, net::VnfCatalog, sfc::DagSfc), never from
/// the library's scenario or workload generators, so merging or retuning
/// those cannot change what the benchmark measures. Each workload digests
/// its inputs; run.py compares the digest with the recorded one.

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "core/model.hpp"
#include "net/network.hpp"
#include "sfc/dag_sfc.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace core = dagsfc::core;
namespace graph = dagsfc::graph;
namespace net = dagsfc::net;
namespace sfc = dagsfc::sfc;
using dagsfc::Rng;

/// Pricing, deployment and capacity recipe of the paper's §5.1 / Table 2.
struct NetworkSpec {
  std::size_t catalog = 12;           ///< regular VNF categories
  double deploy_ratio = 0.5;          ///< P(type deployed on a node)
  double vnf_price = 100.0;           ///< mean VNF rental price
  double price_fluctuation = 0.05;    ///< half-spread / mean, VNFs and links
  double link_price_ratio = 0.2;      ///< mean link price / mean VNF price
  double border_price_multiplier = 4.0;  ///< regional substrates only
  double vnf_capacity = 100.0;
  double link_capacity = 100.0;
};

/// Connected random graph: a random spanning tree plus uniform chords up to
/// \p degree · n / 2 links.
[[nodiscard]] graph::Graph random_connected_topology(BenchRng& rng,
                                                     std::size_t n,
                                                     double degree);

struct RegionalTopology {
  graph::Graph graph;
  std::vector<std::uint32_t> region_of;  ///< per node, dense region ids
};

/// \p regions Waxman clouds (P(u,v) = alpha·exp(−d / (beta·√2)) on the unit
/// square, plus a spanning tree) on contiguous id blocks, joined in a ring
/// of regions by 1–5 random border links per adjacent pair.
[[nodiscard]] RegionalTopology regional_waxman_topology(
    BenchRng& rng, std::size_t regions, std::size_t nodes_per_region,
    double alpha, double beta);

/// Prices every link (border links, per \p region_of, at the multiplier)
/// and deploys each VNF category, merger included, per the deploy ratio.
[[nodiscard]] net::Network priced_network(
    BenchRng& rng, graph::Graph topology, const NetworkSpec& spec,
    const std::vector<std::uint32_t>* region_of = nullptr);

/// DAG-SFC of \p size distinct categories in layers of width 3, 3, ...,
/// remainder (the paper's "every three VNFs share a layer").
[[nodiscard]] sfc::DagSfc random_sfc(BenchRng& rng, std::size_t catalog,
                                     std::size_t size);

/// Distinct uniform (source, destination) pair.
[[nodiscard]] std::pair<graph::NodeId, graph::NodeId> random_endpoints(
    BenchRng& rng, std::size_t nodes);

/// One request of the serving workloads.
struct FlowRequest {
  sfc::DagSfc sfc;
  core::Flow flow;
  double holding = 0.0;  ///< exponential, on the load loop's virtual clock
};

/// \p count requests: SFCs of \p sfc_size from \p catalog categories,
/// uniform endpoints, rates drawn uniformly from \p rates, holding times
/// exponential with mean \p mean_holding.
[[nodiscard]] std::vector<FlowRequest> request_pool(
    BenchRng& rng, std::size_t nodes, std::size_t catalog,
    std::size_t sfc_size, std::size_t count, double mean_holding,
    const std::vector<double>& rates);

void digest_network(Digest& d, const net::Network& net);
void digest_sfc(Digest& d, const sfc::DagSfc& dag);
void digest_requests(Digest& d, const std::vector<FlowRequest>& pool);

}  // namespace perfbench
