#include "shard/hier.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/backtracking.hpp"
#include "core/layered.hpp"

namespace dagsfc::shard {

InnerAlgorithm inner_algorithm_from_string(const std::string& name) {
  if (name == "bbe") return InnerAlgorithm::kBbe;
  if (name == "mbbe") return InnerAlgorithm::kMbbe;
  if (name == "layered") return InnerAlgorithm::kLayered;
  throw std::invalid_argument("unknown inner algorithm: " + name);
}

std::unique_ptr<core::Embedder> make_inner_embedder(InnerAlgorithm algorithm) {
  switch (algorithm) {
    case InnerAlgorithm::kBbe:
      return std::make_unique<core::BbeEmbedder>();
    case InnerAlgorithm::kMbbe:
      return std::make_unique<core::MbbeEmbedder>();
    case InnerAlgorithm::kLayered:
      return std::make_unique<core::LayeredEmbedder>();
  }
  DAGSFC_CHECK_MSG(false, "unreachable inner algorithm");
  return nullptr;
}

void candidate_region_sets(const ShardedSubstrate& substrate, NodeId src,
                           NodeId dst, std::size_t k,
                           graph::SearchWorkspace& ws,
                           std::vector<std::vector<RegionId>>& out) {
  const RegionId from = substrate.region_of_node(src);
  if (from == substrate.region_of_node(dst)) {
    out.resize(1);
    out[0].assign(1, from);
    return;
  }
  const auto paths = substrate.region_paths(src, dst, k, ws);
  out.resize(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    out[i] = paths[i];
    std::sort(out[i].begin(), out[i].end());
  }
}

void restrict_to_regions(const ShardedSubstrate& substrate,
                         std::span<const RegionId> regions,
                         net::CapacityLedger& ledger) {
  DAGSFC_CHECK(std::is_sorted(regions.begin(), regions.end()));
  std::size_t next = 0;
  for (RegionId r = 0; r < substrate.num_regions(); ++r) {
    if (next < regions.size() && regions[next] == r) {
      ++next;
      continue;  // allowed region keeps its residuals
    }
    for (const EdgeId e : substrate.links_owned_by(r)) {
      ledger.set_link_residual(e, 0.0);
    }
    for (const InstanceId id : substrate.instances_owned_by(r)) {
      ledger.set_instance_residual(id, 0.0);
    }
  }
  DAGSFC_CHECK_MSG(next == regions.size(), "region id out of range");
}

HierarchicalEmbedder::HierarchicalEmbedder(const ShardedSubstrate& substrate,
                                           const HierOptions& opts)
    : substrate_(&substrate),
      opts_(opts),
      inner_(make_inner_embedder(opts.inner)) {
  DAGSFC_CHECK_MSG(opts.region_paths >= 1, "need at least one stage-one path");
}

core::SolveResult HierarchicalEmbedder::do_solve(
    const core::ModelIndex& index, const net::CapacityLedger& ledger, Rng& rng,
    core::TraceSink* trace, graph::SearchWorkspace* workspace) const {
  (void)trace;  // inner solves run untraced; the envelope traces HIER itself
  DAGSFC_CHECK_MSG(&ledger.network() == &substrate_->network(),
                   "ledger views a different Network than the substrate");
  const core::Flow& flow = index.problem().flow;

  // Stage one: candidate region sets, cheapest summary first, searched
  // through the solve's workspace loan (a local one without it).
  graph::SearchWorkspace local_ws;
  std::vector<std::vector<RegionId>> candidates;
  candidate_region_sets(*substrate_, flow.source, flow.destination,
                        opts_.region_paths,
                        workspace != nullptr ? *workspace : local_ws,
                        candidates);

  core::SolveResult best;
  best.failure_reason = candidates.empty()
                            ? "regions of source and destination disconnected "
                              "in the region graph"
                            : "no candidate region set admits the SFC";
  // Stage two: solve inside each candidate's restricted view; keep the
  // cheapest admission. Effort counters aggregate across every inner
  // attempt — HIER's reported work is the work it actually did.
  for (const std::vector<RegionId>& regions : candidates) {
    net::CapacityLedger restricted(ledger);
    restrict_to_regions(*substrate_, regions, restricted);
    core::SolveResult attempt =
        inner_->solve(index, restricted, rng, nullptr, workspace);
    best.expanded_sub_solutions += attempt.expanded_sub_solutions;
    best.candidate_solutions += attempt.candidate_solutions;
    best.path_queries += attempt.path_queries;
    if (!attempt.ok()) continue;
    if (!best.ok() || attempt.cost < best.cost) {
      best.solution = std::move(attempt.solution);
      best.cost = attempt.cost;
      best.failure_reason.clear();
    }
  }

  if (!best.ok() && opts_.flat_fallback) {
    core::SolveResult flat = inner_->solve(index, ledger, rng, nullptr,
                                           workspace);
    flat.expanded_sub_solutions += best.expanded_sub_solutions;
    flat.candidate_solutions += best.candidate_solutions;
    flat.path_queries += best.path_queries;
    return flat;
  }
  return best;
}

}  // namespace dagsfc::shard
