#include "sfc/dag_sfc.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace dagsfc::sfc {

DagSfc::DagSfc(std::vector<Layer> layers) : layers_(std::move(layers)) {}

std::size_t DagSfc::size() const noexcept {
  std::size_t total = 0;
  for (const Layer& l : layers_) total += l.width();
  return total;
}

std::size_t DagSfc::num_mergers() const noexcept {
  std::size_t total = 0;
  for (const Layer& l : layers_) total += l.has_merger() ? 1 : 0;
  return total;
}

std::size_t DagSfc::max_width() const noexcept {
  std::size_t w = 0;
  for (const Layer& l : layers_) w = std::max(w, l.width());
  return w;
}

std::vector<VnfTypeId> DagSfc::distinct_types() const {
  std::set<VnfTypeId> types;
  for (const Layer& l : layers_) types.insert(l.vnfs.begin(), l.vnfs.end());
  return {types.begin(), types.end()};
}

void DagSfc::validate(const VnfCatalog& catalog) const {
  DAGSFC_CHECK_MSG(!layers_.empty(), "DAG-SFC has no layers");
  for (const Layer& l : layers_) {
    DAGSFC_CHECK_MSG(!l.vnfs.empty(), "empty layer");
    // Parallel sets are a few VNFs wide: a scan of the earlier entries finds
    // duplicates without allocating (the serving plane validates every
    // submitted request).
    for (auto it = l.vnfs.begin(); it != l.vnfs.end(); ++it) {
      DAGSFC_CHECK_MSG(catalog.is_regular(*it),
                       "layers may only contain regular VNF categories");
      DAGSFC_CHECK_MSG(std::find(l.vnfs.begin(), it, *it) == it,
                       "duplicate VNF type inside one parallel set");
    }
  }
}

std::string DagSfc::to_string(const VnfCatalog& catalog) const {
  std::ostringstream os;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    if (l) os << " -> ";
    os << '[';
    for (std::size_t i = 0; i < layers_[l].vnfs.size(); ++i) {
      if (i) os << '|';
      os << catalog.name(layers_[l].vnfs[i]);
    }
    if (layers_[l].has_merger()) os << " +m";
    os << ']';
  }
  return os.str();
}

std::string DagSfc::to_dot(const VnfCatalog& catalog,
                           const std::string& name) const {
  std::ostringstream os;
  os << "digraph \"" << name << "\" {\n  rankdir=LR;\n";
  os << "  src [shape=circle,label=\"s\"];\n";
  os << "  dst [shape=circle,label=\"t\"];\n";
  // One DOT node per (layer, slot); mergers get their own.
  auto vnf_id = [](std::size_t l, std::size_t i) {
    return "v" + std::to_string(l) + "_" + std::to_string(i);
  };
  auto merger_id = [](std::size_t l) { return "m" + std::to_string(l); };
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    for (std::size_t i = 0; i < layers_[l].vnfs.size(); ++i) {
      os << "  " << vnf_id(l, i) << " [shape=box,label=\""
         << catalog.name(layers_[l].vnfs[i]) << "\"];\n";
    }
    if (layers_[l].has_merger()) {
      os << "  " << merger_id(l) << " [shape=diamond,label=\"merger\"];\n";
    }
  }
  // Meta-paths. Inter-layer edges are solid; inner-layer dashed.
  std::string prev = "src";
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    for (std::size_t i = 0; i < layers_[l].vnfs.size(); ++i) {
      os << "  " << prev << " -> " << vnf_id(l, i) << ";\n";
    }
    if (layers_[l].has_merger()) {
      for (std::size_t i = 0; i < layers_[l].vnfs.size(); ++i) {
        os << "  " << vnf_id(l, i) << " -> " << merger_id(l)
           << " [style=dashed];\n";
      }
      prev = merger_id(l);
    } else {
      prev = vnf_id(l, 0);
    }
  }
  os << "  " << prev << " -> dst;\n}\n";
  return os.str();
}

}  // namespace dagsfc::sfc
