#include "core/ilp.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "core/path_oracle.hpp"

namespace dagsfc::core {

VarId IlpModel::add_binary(std::string name) {
  names_.push_back(std::move(name));
  return static_cast<VarId>(names_.size() - 1);
}

void IlpModel::add_objective_term(double coef, VarId var) {
  DAGSFC_CHECK(var < names_.size());
  objective_.add(coef, var);
}

void IlpModel::add_constraint(LinConstraint c) {
  for (const auto& [coef, var] : c.lhs.terms) {
    (void)coef;
    DAGSFC_CHECK(var < names_.size());
  }
  constraints_.push_back(std::move(c));
}

namespace {
double eval(const LinExpr& e, const std::vector<double>& x) {
  double total = 0.0;
  for (const auto& [coef, var] : e.terms) total += coef * x[var];
  return total;
}
}  // namespace

double IlpModel::objective_value(const std::vector<double>& x) const {
  DAGSFC_CHECK_MSG(x.size() == names_.size(), "assignment size mismatch");
  return eval(objective_, x);
}

std::vector<std::string> IlpModel::violations(const std::vector<double>& x,
                                              double eps) const {
  DAGSFC_CHECK_MSG(x.size() == names_.size(), "assignment size mismatch");
  std::vector<std::string> out;
  for (const LinConstraint& c : constraints_) {
    const double lhs = eval(c.lhs, x);
    const bool ok = c.rel == Relation::LessEq      ? lhs <= c.rhs + eps
                    : c.rel == Relation::GreaterEq ? lhs >= c.rhs - eps
                                                   : std::abs(lhs - c.rhs) <= eps;
    if (!ok) {
      std::ostringstream os;
      os << c.name << ": lhs=" << lhs << " rhs=" << c.rhs;
      out.push_back(os.str());
    }
  }
  return out;
}

std::string IlpModel::to_lp() const {
  std::ostringstream os;
  os << std::setprecision(12);
  os << "Minimize\n obj:";
  for (std::size_t i = 0; i < objective_.terms.size(); ++i) {
    const auto& [coef, var] = objective_.terms[i];
    os << (coef >= 0 && i > 0 ? " + " : " ") << coef << ' ' << names_[var];
  }
  os << "\nSubject To\n";
  for (const LinConstraint& c : constraints_) {
    os << ' ' << c.name << ':';
    for (std::size_t i = 0; i < c.lhs.terms.size(); ++i) {
      const auto& [coef, var] = c.lhs.terms[i];
      os << (coef >= 0 && i > 0 ? " + " : " ") << coef << ' ' << names_[var];
    }
    switch (c.rel) {
      case Relation::LessEq:
        os << " <= ";
        break;
      case Relation::GreaterEq:
        os << " >= ";
        break;
      case Relation::Eq:
        os << " = ";
        break;
    }
    os << c.rhs << '\n';
  }
  os << "Binary\n";
  for (const std::string& n : names_) os << ' ' << n;
  os << "\nEnd\n";
  return os.str();
}

// ---------------------------------------------------------------------------

IlpBuilder::IlpBuilder(const ModelIndex& index,
                       const net::CapacityLedger& ledger,
                       const IlpOptions& opts)
    : index_(&index), ledger_(&ledger), opts_(opts) {
  DAGSFC_CHECK(opts.paths_per_pair >= 1);
}

std::vector<NodeId> IlpBuilder::hosts_of(SlotId s) const {
  const net::Network& net = index_->problem().net();
  const double rate = index_->problem().flow.rate;
  std::vector<NodeId> out;
  for (NodeId v : net.nodes_with(index_->slot_type(s))) {
    if (ledger_->node_offers(v, index_->slot_type(s), rate)) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeId> IlpBuilder::endpoint_candidates(const SlotRef& ref) const {
  switch (ref.kind) {
    case SlotRef::Kind::Source:
      return {index_->problem().flow.source};
    case SlotRef::Kind::Destination:
      return {index_->problem().flow.destination};
    case SlotRef::Kind::Slot:
      return hosts_of(ref.slot);
  }
  return {};
}

IlpModel IlpBuilder::build() {
  placement_vars_.clear();
  selections_.clear();
  multicast_vars_.clear();

  const EmbeddingProblem& prob = index_->problem();
  const net::Network& net = prob.net();
  const graph::Graph& g = net.topology();
  const double z = prob.flow.size;
  const double rate = prob.flow.rate;

  IlpModel model;

  // Placement variables + objective VNF rental term (formula (7) expanded).
  for (SlotId s = 0; s < index_->num_slots(); ++s) {
    for (NodeId v : hosts_of(s)) {
      const VarId var =
          model.add_binary("x_s" + std::to_string(s) + "_n" +
                           std::to_string(v));
      placement_vars_[{s, v}] = var;
      const double price =
          net.instance(*net.find_instance(v, index_->slot_type(s))).price;
      model.add_objective_term(price * z, var);
    }
    // Constraint (4): each slot placed exactly once.
    LinConstraint c;
    c.name = "assign_s" + std::to_string(s);
    c.rel = Relation::Eq;
    c.rhs = 1.0;
    for (NodeId v : hosts_of(s)) c.lhs.add(1.0, placement_vars_[{s, v}]);
    model.add_constraint(std::move(c));
  }

  // Candidate paths run over the links that can carry the flow.
  PathOracle oracle(g, *ledger_, rate);

  // Selection variables per meta-path (linearized (5)/(6)).
  auto build_selections = [&](const std::vector<MetaPathDesc>& metas,
                              bool inner) {
    for (std::size_t m = 0; m < metas.size(); ++m) {
      const MetaPathDesc& d = metas[m];
      const std::string tag = (inner ? "y_m" : "x_m") + std::to_string(m);
      LinConstraint pick;
      pick.name = (inner ? "inner_m" : "inter_m") + std::to_string(m);
      pick.rel = Relation::Eq;
      pick.rhs = 1.0;
      for (NodeId a : endpoint_candidates(d.from)) {
        for (NodeId b : endpoint_candidates(d.to)) {
          std::vector<graph::Path> paths;
          if (a == b) {
            graph::Path trivial;
            trivial.nodes.push_back(a);
            paths.push_back(std::move(trivial));
          } else {
            paths = oracle.k_shortest(a, b, opts_.paths_per_pair);
          }
          for (std::size_t rho = 0; rho < paths.size(); ++rho) {
            const VarId var = model.add_binary(
                tag + "_a" + std::to_string(a) + "_b" + std::to_string(b) +
                "_p" + std::to_string(rho));
            pick.lhs.add(1.0, var);
            // Selection implies both endpoint placements.
            if (d.from.kind == SlotRef::Kind::Slot) {
              LinConstraint c;
              c.name = tag + "_from_a" + std::to_string(a) + "_p" +
                       std::to_string(rho);
              c.rel = Relation::LessEq;
              c.rhs = 0.0;
              c.lhs.add(1.0, var).add(-1.0,
                                      placement_vars_.at({d.from.slot, a}));
              model.add_constraint(std::move(c));
            }
            if (d.to.kind == SlotRef::Kind::Slot) {
              LinConstraint c;
              c.name = tag + "_to_b" + std::to_string(b) + "_p" +
                       std::to_string(rho);
              c.rel = Relation::LessEq;
              c.rhs = 0.0;
              c.lhs.add(1.0, var).add(-1.0,
                                      placement_vars_.at({d.to.slot, b}));
              model.add_constraint(std::move(c));
            }
            selections_.push_back(Selection{var, m, inner, a, b,
                                            std::move(paths[rho])});
          }
        }
      }
      DAGSFC_CHECK_MSG(!pick.lhs.terms.empty(),
                       "a meta-path has no candidate real-path");
      model.add_constraint(std::move(pick));
    }
  };
  build_selections(index_->inter_paths(), /*inner=*/false);
  build_selections(index_->inner_paths(), /*inner=*/true);

  // Multicast link binaries per inter-layer group (formula (9)'s min{·,1}):
  // u[g,e] ≥ every inter selection in group g whose real-path crosses e.
  for (std::size_t grp = 0; grp < index_->num_inter_groups(); ++grp) {
    const auto [first, last] = index_->inter_group_range(grp);
    for (const Selection& sel : selections_) {
      if (sel.inner || sel.meta_index < first || sel.meta_index >= last) {
        continue;
      }
      for (graph::EdgeId e : sel.path.edges) {
        auto it = multicast_vars_.find({grp, e});
        if (it == multicast_vars_.end()) {
          const VarId u = model.add_binary("u_g" + std::to_string(grp) +
                                           "_e" + std::to_string(e));
          it = multicast_vars_.emplace(std::pair{grp, e}, u).first;
          model.add_objective_term(net.link_price(e) * z, u);
        }
        LinConstraint c;
        c.name = "mcast_g" + std::to_string(grp) + "_e" + std::to_string(e) +
                 "_v" + std::to_string(sel.var);
        c.rel = Relation::GreaterEq;
        c.rhs = 0.0;
        c.lhs.add(1.0, it->second).add(-1.0, sel.var);
        model.add_constraint(std::move(c));
      }
    }
  }

  // Inner-layer selections pay per path (formula (10)).
  for (const Selection& sel : selections_) {
    if (!sel.inner) continue;
    double path_price = 0.0;
    for (graph::EdgeId e : sel.path.edges) path_price += net.link_price(e);
    if (path_price > 0.0) {
      model.add_objective_term(path_price * z, sel.var);
    }
  }

  // Constraint (2): per instance, uses·R ≤ residual capability.
  for (net::InstanceId id = 0; id < net.num_instances(); ++id) {
    const net::VnfInstance& inst = net.instance(id);
    LinConstraint c;
    c.name = "vnfcap_i" + std::to_string(id);
    c.rel = Relation::LessEq;
    c.rhs = ledger_->instance_residual(id);
    for (SlotId s = 0; s < index_->num_slots(); ++s) {
      if (index_->slot_type(s) != inst.type) continue;
      const auto it = placement_vars_.find({s, inst.node});
      if (it != placement_vars_.end()) c.lhs.add(rate, it->second);
    }
    if (!c.lhs.terms.empty()) model.add_constraint(std::move(c));
  }

  // Constraint (3): per link, (multicast uses + inner uses)·R ≤ residual.
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    LinConstraint c;
    c.name = "linkcap_e" + std::to_string(e);
    c.rel = Relation::LessEq;
    c.rhs = ledger_->link_residual(e);
    for (std::size_t grp = 0; grp < index_->num_inter_groups(); ++grp) {
      const auto it = multicast_vars_.find({grp, e});
      if (it != multicast_vars_.end()) c.lhs.add(rate, it->second);
    }
    for (const Selection& sel : selections_) {
      if (!sel.inner) continue;
      const auto uses = static_cast<double>(
          std::count(sel.path.edges.begin(), sel.path.edges.end(), e));
      if (uses > 0) c.lhs.add(rate * uses, sel.var);
    }
    if (!c.lhs.terms.empty()) model.add_constraint(std::move(c));
  }

  num_vars_ = model.num_variables();
  return model;
}

std::optional<std::vector<double>> IlpBuilder::assignment_from(
    const EmbeddingSolution& sol) const {
  DAGSFC_CHECK_MSG(num_vars_ > 0, "call build() first");
  std::vector<double> x(num_vars_, 0.0);

  for (SlotId s = 0; s < index_->num_slots(); ++s) {
    const auto it = placement_vars_.find({s, sol.placement[s]});
    if (it == placement_vars_.end()) return std::nullopt;
    x[it->second] = 1.0;
  }

  const Evaluator ev(*index_);
  auto select = [&](const std::vector<MetaPathDesc>& metas,
                    const std::vector<graph::Path>& paths,
                    bool inner) -> bool {
    for (std::size_t m = 0; m < metas.size(); ++m) {
      const NodeId a = ev.resolve(metas[m].from, sol);
      const NodeId b = ev.resolve(metas[m].to, sol);
      bool found = false;
      for (const Selection& sel : selections_) {
        if (sel.inner != inner || sel.meta_index != m) continue;
        if (sel.from != a || sel.to != b) continue;
        if (sel.path.nodes != paths[m].nodes) continue;
        x[sel.var] = 1.0;
        found = true;
        break;
      }
      if (!found) return false;
    }
    return true;
  };
  if (!select(index_->inter_paths(), sol.inter_paths, false)) {
    return std::nullopt;
  }
  if (!select(index_->inner_paths(), sol.inner_paths, true)) {
    return std::nullopt;
  }

  // Multicast binaries: u[g,e] = 1 iff any chosen inter selection of group g
  // crosses e.
  for (const Selection& sel : selections_) {
    if (sel.inner || x[sel.var] != 1.0) continue;
    std::size_t grp = 0;
    while (!(sel.meta_index >= index_->inter_group_range(grp).first &&
             sel.meta_index < index_->inter_group_range(grp).second)) {
      ++grp;
    }
    for (graph::EdgeId e : sel.path.edges) {
      x[multicast_vars_.at({grp, e})] = 1.0;
    }
  }
  return x;
}

}  // namespace dagsfc::core
