#include "inputs.hpp"

#include <cmath>
#include <numeric>
#include <unordered_set>
#include <utility>

namespace perfbench {

namespace {

std::uint64_t pair_key(graph::NodeId u, graph::NodeId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

template <class T>
void shuffle(BenchRng& rng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.index(i)]);
  }
}

/// Adds a random spanning tree over ids [base, base + n): each node, in
/// shuffled order, links to a uniformly random earlier one.
void add_spanning_tree(BenchRng& rng, graph::Graph& g, graph::NodeId base,
                       std::size_t n, std::unordered_set<std::uint64_t>& seen) {
  std::vector<graph::NodeId> order(n);
  std::iota(order.begin(), order.end(), base);
  shuffle(rng, order);
  for (std::size_t i = 1; i < n; ++i) {
    const graph::NodeId parent = order[rng.index(i)];
    if (seen.insert(pair_key(order[i], parent)).second) {
      (void)g.add_edge(order[i], parent, 1.0);
    }
  }
}

}  // namespace

graph::Graph random_connected_topology(BenchRng& rng, std::size_t n,
                                       double degree) {
  graph::Graph g(n);
  std::unordered_set<std::uint64_t> seen;
  add_spanning_tree(rng, g, 0, n, seen);
  const auto target = static_cast<std::size_t>(
      degree * static_cast<double>(n) / 2.0 + 0.5);
  while (g.num_edges() < target) {
    const auto u = static_cast<graph::NodeId>(rng.index(n));
    const auto v = static_cast<graph::NodeId>(rng.index(n));
    if (u != v && seen.insert(pair_key(u, v)).second) {
      (void)g.add_edge(u, v, 1.0);
    }
  }
  return g;
}

RegionalTopology regional_waxman_topology(BenchRng& rng, std::size_t regions,
                                          std::size_t nodes_per_region,
                                          double alpha, double beta) {
  const std::size_t m = nodes_per_region;
  RegionalTopology out{graph::Graph(regions * m),
                       std::vector<std::uint32_t>(regions * m)};
  std::unordered_set<std::uint64_t> seen;
  const double scale = beta * std::sqrt(2.0);
  std::vector<std::pair<double, double>> pos(m);
  for (std::size_t r = 0; r < regions; ++r) {
    const auto base = static_cast<graph::NodeId>(r * m);
    for (auto& p : pos) p = {rng.uniform(), rng.uniform()};
    for (std::size_t i = 0; i < m; ++i) {
      out.region_of[base + i] = static_cast<std::uint32_t>(r);
      for (std::size_t j = i + 1; j < m; ++j) {
        const double d = std::hypot(pos[i].first - pos[j].first,
                                    pos[i].second - pos[j].second);
        if (rng.bernoulli(alpha * std::exp(-d / scale))) {
          const auto u = static_cast<graph::NodeId>(base + i);
          const auto v = static_cast<graph::NodeId>(base + j);
          seen.insert(pair_key(u, v));
          (void)out.graph.add_edge(u, v, 1.0);
        }
      }
    }
    add_spanning_tree(rng, out.graph, base, m, seen);
  }
  for (std::size_t r = 0; regions > 1 && r < regions; ++r) {
    const std::size_t s = (r + 1) % regions;
    if (regions == 2 && r == 1) break;  // the pair 0-1 once
    const std::size_t links = 1 + rng.index(5);
    for (std::size_t k = 0; k < links; ++k) {
      const auto u = static_cast<graph::NodeId>(r * m + rng.index(m));
      const auto v = static_cast<graph::NodeId>(s * m + rng.index(m));
      if (seen.insert(pair_key(u, v)).second) {
        (void)out.graph.add_edge(u, v, 1.0);
      }
    }
  }
  return out;
}

net::Network priced_network(BenchRng& rng, graph::Graph topology,
                            const NetworkSpec& spec,
                            const std::vector<std::uint32_t>* region_of) {
  const double f = spec.price_fluctuation;
  const double mean_link = spec.vnf_price * spec.link_price_ratio;
  for (graph::EdgeId e = 0; e < topology.num_edges(); ++e) {
    const graph::Edge& edge = topology.edge(e);
    const bool border = region_of != nullptr &&
                        (*region_of)[edge.u] != (*region_of)[edge.v];
    const double mean =
        border ? mean_link * spec.border_price_multiplier : mean_link;
    topology.set_weight(e, rng.uniform(mean * (1.0 - f), mean * (1.0 + f)));
  }
  const net::VnfCatalog catalog(spec.catalog);
  net::Network net(std::move(topology), catalog, spec.link_capacity);
  std::vector<net::VnfTypeId> types = catalog.regular_ids();
  types.push_back(catalog.merger());
  auto price = [&] {
    return rng.uniform(spec.vnf_price * (1.0 - f), spec.vnf_price * (1.0 + f));
  };
  for (const net::VnfTypeId t : types) {
    for (graph::NodeId v = 0; v < net.num_nodes(); ++v) {
      if (rng.bernoulli(spec.deploy_ratio)) {
        (void)net.deploy(v, t, price(), spec.vnf_capacity);
      }
    }
    if (net.nodes_with(t).empty()) {
      const auto v = static_cast<graph::NodeId>(rng.index(net.num_nodes()));
      (void)net.deploy(v, t, price(), spec.vnf_capacity);
    }
  }
  return net;
}

sfc::DagSfc random_sfc(BenchRng& rng, std::size_t catalog, std::size_t size) {
  std::vector<net::VnfTypeId> pool(catalog);
  std::iota(pool.begin(), pool.end(), net::VnfTypeId{1});
  shuffle(rng, pool);
  std::vector<sfc::Layer> layers;
  for (std::size_t next = 0; next < size; next += 3) {
    sfc::Layer layer;
    const std::size_t end = std::min(size, next + 3);
    layer.vnfs.assign(pool.begin() + static_cast<std::ptrdiff_t>(next),
                      pool.begin() + static_cast<std::ptrdiff_t>(end));
    layers.push_back(std::move(layer));
  }
  return sfc::DagSfc(std::move(layers));
}

std::pair<graph::NodeId, graph::NodeId> random_endpoints(BenchRng& rng,
                                                         std::size_t nodes) {
  const auto s = static_cast<graph::NodeId>(rng.index(nodes));
  auto t = static_cast<graph::NodeId>(rng.index(nodes - 1));
  if (t >= s) ++t;
  return {s, t};
}

std::vector<FlowRequest> request_pool(BenchRng& rng, std::size_t nodes,
                                      std::size_t catalog,
                                      std::size_t sfc_size, std::size_t count,
                                      double mean_holding,
                                      const std::vector<double>& rates) {
  std::vector<FlowRequest> pool;
  pool.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    FlowRequest r;
    r.sfc = random_sfc(rng, catalog, sfc_size);
    const auto [s, t] = random_endpoints(rng, nodes);
    r.flow = core::Flow{s, t, rates[rng.index(rates.size())], 1.0};
    r.holding = rng.exponential(mean_holding);
    pool.push_back(std::move(r));
  }
  return pool;
}

void digest_network(Digest& d, const net::Network& net) {
  const graph::Graph& g = net.topology();
  d.add_u64(g.num_nodes());
  d.add_u64(g.num_edges());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    d.add_u64(g.edge(e).u);
    d.add_u64(g.edge(e).v);
    d.add_f64(g.edge(e).weight);
    d.add_f64(net.link_capacity(e));
  }
  d.add_u64(net.num_instances());
  for (net::InstanceId i = 0; i < net.num_instances(); ++i) {
    const net::VnfInstance& inst = net.instance(i);
    d.add_u64(inst.node);
    d.add_u64(inst.type);
    d.add_f64(inst.price);
    d.add_f64(inst.capacity);
  }
}

void digest_sfc(Digest& d, const sfc::DagSfc& dag) {
  d.add_u64(dag.num_layers());
  for (const sfc::Layer& layer : dag.layers()) {
    d.add_u64(layer.vnfs.size());
    for (const net::VnfTypeId t : layer.vnfs) d.add_u64(t);
  }
}

void digest_requests(Digest& d, const std::vector<FlowRequest>& pool) {
  d.add_u64(pool.size());
  for (const FlowRequest& r : pool) {
    digest_sfc(d, r.sfc);
    d.add_u64(r.flow.source);
    d.add_u64(r.flow.destination);
    d.add_f64(r.flow.rate);
    d.add_f64(r.flow.size);
    d.add_f64(r.holding);
  }
}

}  // namespace perfbench
