#include "core/path_oracle.hpp"

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

std::shared_ptr<graph::LazyTree> PathOracle::search(NodeId source) {
  return ledger_->path_cache().search(*g_, source, context_, counters_);
}

bool PathOracle::settle(graph::LazyTree& t, NodeId target) {
  counters_.nodes_settled += t.settle(*g_, target, effective_mask());
  return t.reached(target);
}

std::shared_ptr<const graph::LazyTree> PathOracle::tree(NodeId source) {
  return ledger_->path_cache().tree(*g_, source, context_, effective_mask(),
                                    counters_);
}

std::optional<graph::Path> PathOracle::min_cost_path(NodeId a, NodeId b) {
  const auto t = search(a);
  settle(*t, b);
  return t->path_to(b);
}

std::vector<graph::Path> PathOracle::k_shortest(NodeId a, NodeId b,
                                                std::size_t k) {
  return *ledger_->path_cache().k_paths(*g_, a, b, k, context_,
                                        usable_mask(), *ws_, counters_);
}

std::vector<graph::Path> PathOracle::k_shortest_filtered(
    NodeId a, NodeId b, std::size_t k, const graph::EdgeMask& mask) {
  ++counters_.yen_calls;
  return graph::k_shortest_paths(*g_, a, b, k, &mask, *ws_);
}

std::optional<graph::SteinerTree> PathOracle::steiner(
    const std::vector<NodeId>& terminals) {
  ++counters_.steiner_calls;
  return graph::steiner_tree(*g_, terminals, usable_mask(), *ws_);
}

}  // namespace dagsfc::core
