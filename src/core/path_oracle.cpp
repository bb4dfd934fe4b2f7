#include "core/path_oracle.hpp"

#include "graph/oracle.hpp"

namespace dagsfc::core {

const graph::EdgeMask* PathOracle::usable_mask() {
  const std::uint64_t epoch = ledger_->epoch();
  if (!mask_ready_ || mask_epoch_ != epoch) {
    // One link_can_carry sweep per epoch; every probe afterwards is a bit
    // test. The ledger bumps the epoch on any admission/release that can
    // change a residual capacity, so a stale mask is impossible; PathCache
    // entries themselves stay valid across epochs via the ledger's
    // footprint-scoped invalidation hooks.
    usable_mask_.assign(g_->num_edges(), true);
    mask_full_ = true;
    for (graph::EdgeId e = 0; e < g_->num_edges(); ++e) {
      if (!ledger_->link_can_carry(e, rate_)) {
        usable_mask_.clear(e);
        mask_full_ = false;
      }
    }
    mask_epoch_ = epoch;
    mask_ready_ = true;
  }
  usable_view_ = usable_mask_.view();
  return &usable_view_;
}

const graph::EdgeMask* PathOracle::effective_mask() {
  const graph::EdgeMask* mask = usable_mask();
  return mask_full_ ? nullptr : mask;
}

const graph::DistanceOracle* PathOracle::pruning_oracle() const {
  const graph::DistanceOracle* o = ws_->distance_oracle();
  return (o != nullptr && o->matches(*g_)) ? o : nullptr;
}

std::shared_ptr<graph::LazyTree> PathOracle::search(NodeId source) {
  if (!flat_) {
    ++counters_.dijkstra_calls;
    return std::make_shared<graph::LazyTree>(
        graph::dijkstra(*g_, source, usable_));
  }
  if (auto* cache = ledger_->path_cache()) {
    return cache->search(*g_, source, context(), counters_);
  }
  ++counters_.dijkstra_calls;
  return std::make_shared<graph::LazyTree>(*g_, source);
}

bool PathOracle::settle(graph::LazyTree& t, NodeId target) {
  counters_.nodes_settled += t.settle(*g_, target, effective_mask());
  return t.reached(target);
}

std::shared_ptr<const graph::LazyTree> PathOracle::tree(NodeId source) {
  auto t = search(source);
  counters_.nodes_settled += t->settle_all(*g_, effective_mask());
  return t;
}

std::optional<graph::Path> PathOracle::min_cost_path(NodeId a, NodeId b) {
  if (flat_ && ledger_->path_cache()) {
    const auto t = search(a);
    settle(*t, b);
    return t->path_to(b);
  }
  ++counters_.dijkstra_calls;
  if (!flat_) return graph::min_cost_path(*g_, a, b, usable_);
  DAGSFC_CHECK(g_->has_node(b));
  const graph::EdgeMask* mask = effective_mask();
  if (const graph::DistanceOracle* o = pruning_oracle()) {
    graph::PruneStats stats;
    graph::AltQuery alt = o->query(a, b, /*seed_upper_bound=*/mask == nullptr);
    alt.stats = &stats;
    counters_.nodes_settled +=
        graph::dijkstra_into(*g_, a, *ws_, mask, b, alt);
    counters_.oracle_tested += stats.tested;
    counters_.oracle_pruned += stats.pruned;
  } else {
    counters_.nodes_settled += graph::dijkstra_into(*g_, a, *ws_, mask, b);
  }
  return graph::extract_path(*ws_, b);
}

std::vector<std::optional<graph::Path>> PathOracle::min_cost_paths(
    NodeId a, std::span<const NodeId> targets) {
  std::vector<std::optional<graph::Path>> out;
  out.reserve(targets.size());
  if (!flat_) {
    for (const NodeId b : targets) {
      ++counters_.dijkstra_calls;
      out.push_back(graph::min_cost_path(*g_, a, b, usable_));
    }
    return out;
  }
  if (ledger_->path_cache()) {
    const auto t = search(a);
    for (const NodeId b : targets) {
      settle(*t, b);
      out.push_back(t->path_to(b));
    }
    return out;
  }
  // One multi-target pass; counts as one computation. Each extraction is
  // bitwise the early-exit answer (see dijkstra_into_targets).
  ++counters_.dijkstra_calls;
  counters_.nodes_settled +=
      graph::dijkstra_into_targets(*g_, a, targets, *ws_, effective_mask());
  for (const NodeId b : targets) {
    out.push_back(graph::extract_path(*ws_, b));
  }
  return out;
}

std::vector<graph::Path> PathOracle::k_shortest(NodeId a, NodeId b,
                                                std::size_t k) {
  if (!flat_) {
    if (auto* cache = ledger_->path_cache()) {
      return *cache->k_paths(*g_, a, b, k, context(), usable_, counters_);
    }
    ++counters_.yen_calls;
    return graph::k_shortest_paths(*g_, a, b, k, usable_);
  }
  const graph::EdgeMask* mask = usable_mask();
  if (auto* cache = ledger_->path_cache()) {
    return *cache->k_paths(*g_, a, b, k, context(), mask, *ws_, counters_);
  }
  ++counters_.yen_calls;
  if (const graph::DistanceOracle* o = pruning_oracle()) {
    const graph::EdgeMask* eff = effective_mask();
    graph::PruneStats stats;
    graph::AltQuery alt = o->query(a, b, /*seed_upper_bound=*/eff == nullptr);
    alt.stats = &stats;
    auto paths = graph::k_shortest_paths(*g_, a, b, k, eff, *ws_, alt);
    counters_.oracle_tested += stats.tested;
    counters_.oracle_pruned += stats.pruned;
    return paths;
  }
  return graph::k_shortest_paths(*g_, a, b, k, mask, *ws_);
}

std::vector<graph::Path> PathOracle::k_shortest_filtered(
    NodeId a, NodeId b, std::size_t k, const graph::EdgeFilter& filter) {
  ++counters_.yen_calls;
  if (!flat_) return graph::k_shortest_paths(*g_, a, b, k, filter);
  // Materialize once (one filter call per edge) so the whole Yen run —
  // every spur Dijkstra included — probes bits instead of the closure.
  filtered_mask_.fill_from(*g_, filter);
  const graph::EdgeMask mask = filtered_mask_.view();
  if (const graph::DistanceOracle* o = pruning_oracle()) {
    // Always masked here, so never seed the landmark upper bound.
    graph::PruneStats stats;
    graph::AltQuery alt = o->query(a, b, /*seed_upper_bound=*/false);
    alt.stats = &stats;
    auto paths = graph::k_shortest_paths(*g_, a, b, k, &mask, *ws_, alt);
    counters_.oracle_tested += stats.tested;
    counters_.oracle_pruned += stats.pruned;
    return paths;
  }
  return graph::k_shortest_paths(*g_, a, b, k, &mask, *ws_);
}

std::optional<graph::SteinerTree> PathOracle::steiner(
    const std::vector<NodeId>& terminals) {
  ++counters_.steiner_calls;
  if (!flat_) return graph::steiner_tree(*g_, terminals, usable_);
  return graph::steiner_tree(*g_, terminals, usable_mask(), *ws_);
}

}  // namespace dagsfc::core
