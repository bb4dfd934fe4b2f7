#include "core/model.hpp"

#include "net/ledger.hpp"

namespace dagsfc::core {

void EmbeddingProblem::validate() const {
  DAGSFC_CHECK(network != nullptr && sfc != nullptr);
  DAGSFC_CHECK(network->topology().has_node(flow.source));
  DAGSFC_CHECK(network->topology().has_node(flow.destination));
  DAGSFC_CHECK_MSG(net::CapacityLedger::valid_rate(flow.rate),
                   "flow rate R must be finite and in [1e-9, ~9.2e9]");
  DAGSFC_CHECK_MSG(flow.size > 0.0, "flow size z must be positive");
  sfc->validate(network->catalog());
}

ModelIndex::ModelIndex(const EmbeddingProblem& problem) : problem_(&problem) {
  problem.validate();
  const sfc::DagSfc& dag = problem.dag();
  const net::VnfCatalog& catalog = problem.net().catalog();
  const std::size_t omega = dag.num_layers();

  // Slots: VNFs of each layer in order, then the layer's merger.
  layer_slot_ids_.resize(omega);
  for (std::size_t l = 0; l < omega; ++l) {
    const sfc::Layer& layer = dag.layer(l);
    for (VnfTypeId t : layer.vnfs) {
      layer_slot_ids_[l].push_back(static_cast<SlotId>(slot_types_.size()));
      slot_types_.push_back(t);
      slot_layers_.push_back(static_cast<std::uint32_t>(l));
      slot_is_merger_.push_back(0);
    }
    if (layer.has_merger()) {
      layer_slot_ids_[l].push_back(static_cast<SlotId>(slot_types_.size()));
      slot_types_.push_back(catalog.merger());
      slot_layers_.push_back(static_cast<std::uint32_t>(l));
      slot_is_merger_.push_back(1);
    }
  }

  // Inter-layer groups 0..ω: group g<ω fans out from the previous endpoint
  // to every VNF slot of layer g; group ω is the single hop to t.
  inter_offsets_.push_back(0);
  for (std::size_t g = 0; g <= omega; ++g) {
    const SlotRef from = g == 0 ? SlotRef::source()
                                : SlotRef::of(layer_end_slot(g - 1));
    if (g < omega) {
      const sfc::Layer& layer = dag.layer(g);
      for (std::size_t i = 0; i < layer.width(); ++i) {
        inter_paths_.push_back(MetaPathDesc{
            MetaPathDesc::Group::InterLayer, static_cast<std::uint32_t>(g),
            from, SlotRef::of(vnf_slot(g, i))});
      }
    } else {
      inter_paths_.push_back(MetaPathDesc{MetaPathDesc::Group::InterLayer,
                                          static_cast<std::uint32_t>(g), from,
                                          SlotRef::destination()});
    }
    inter_offsets_.push_back(inter_paths_.size());
  }

  // Inner-layer meta-paths: VNF → merger for parallel layers.
  inner_offsets_.push_back(0);
  for (std::size_t l = 0; l < omega; ++l) {
    if (dag.layer(l).has_merger()) {
      const SlotRef to = SlotRef::of(merger_slot(l));
      for (std::size_t i = 0; i < dag.layer(l).width(); ++i) {
        inner_paths_.push_back(MetaPathDesc{
            MetaPathDesc::Group::InnerLayer, static_cast<std::uint32_t>(l),
            SlotRef::of(vnf_slot(l, i)), to});
      }
    }
    inner_offsets_.push_back(inner_paths_.size());
  }
}

SlotId ModelIndex::vnf_slot(std::size_t l, std::size_t gamma) const {
  DAGSFC_CHECK(l < layer_slot_ids_.size());
  DAGSFC_CHECK(gamma < problem_->dag().layer(l).width());
  return layer_slot_ids_[l][gamma];
}

SlotId ModelIndex::merger_slot(std::size_t l) const {
  DAGSFC_CHECK(l < layer_slot_ids_.size());
  DAGSFC_CHECK_MSG(problem_->dag().layer(l).has_merger(),
                   "layer has no merger");
  return layer_slot_ids_[l].back();
}

SlotId ModelIndex::layer_end_slot(std::size_t l) const {
  DAGSFC_CHECK(l < layer_slot_ids_.size());
  return layer_slot_ids_[l].back();  // merger if parallel, else the only VNF
}

std::span<const SlotId> ModelIndex::layer_slots(std::size_t l) const {
  DAGSFC_CHECK(l < layer_slot_ids_.size());
  return layer_slot_ids_[l];
}

std::pair<std::size_t, std::size_t> ModelIndex::inter_group_range(
    std::size_t g) const {
  DAGSFC_CHECK(g + 1 < inter_offsets_.size());
  return {inter_offsets_[g], inter_offsets_[g + 1]};
}

std::pair<std::size_t, std::size_t> ModelIndex::inner_layer_range(
    std::size_t l) const {
  DAGSFC_CHECK(l + 1 < inner_offsets_.size());
  return {inner_offsets_[l], inner_offsets_[l + 1]};
}

}  // namespace dagsfc::core
