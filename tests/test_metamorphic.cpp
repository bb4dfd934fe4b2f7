/// Metamorphic tests of the cost model (objective (1) with the multicast
/// discount of formula (9)). Each property transforms an instance in a way
/// whose effect on the objective is known analytically, solves both sides,
/// and checks the relation — with every traced solve additionally required
/// to reconstruct its own reported cost bitwise from the per-term Cost
/// events:
///   (a) duplicating a parallel VNF (a clone type deployed identically)
///       never decreases inter-layer multicast sharing;
///   (b) scaling all prices by k = 2 scales the total cost by exactly k
///       (powers of two commute with IEEE rounding, so bitwise);
///   (c) permuting the VNFs inside a parallel set leaves the MBBE cost
///       unchanged.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/backtracking.hpp"
#include "core/baselines.hpp"
#include "core/delay.hpp"
#include "core/exact.hpp"
#include "core/layered.hpp"
#include "core/solution.hpp"
#include "core/trace.hpp"
#include "graph/generator.hpp"
#include "net/network.hpp"
#include "sim/config.hpp"
#include "sim/scenario.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace dagsfc {
namespace {

using core::EmbeddingTrace;
using core::SolveResult;

/// Near-equality tolerance for cross-solve cost comparisons: summation
/// order may differ between the two solves, so allow a few ulps.
double tol(double reference) { return 1e-9 * (1.0 + std::abs(reference)); }

/// Traced solve against nominal capacities; always checks the bitwise
/// trace-reconstruction invariant.
SolveResult solve_checked(const core::Embedder& algo,
                          const core::ModelIndex& index, std::uint64_t seed,
                          EmbeddingTrace* trace_out = nullptr) {
  Rng rng(seed);
  EmbeddingTrace trace;
  const SolveResult r = algo.solve_fresh(index, rng, &trace);
  if (r.ok()) {
    EXPECT_EQ(trace.reconstructed_cost(), r.cost)
        << algo.name() << ": trace cost terms must reproduce the objective";
  }
  if (trace_out != nullptr) *trace_out = std::move(trace);
  return r;
}

// ---------------------------------------------------------------------------
// (b) price scaling
// ---------------------------------------------------------------------------

void scale_all_prices(net::Network& net, double k) {
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    net.set_link_price(e, k * net.link_price(e));
  }
  for (net::InstanceId id = 0; id < net.num_instances(); ++id) {
    net.set_instance_price(id, k * net.instance(id).price);
  }
}

/// Doubling every price must scale the objective bitwise: every term is
/// uses · price · z, multiplication by 2 is exact, and scaling by a power
/// of two commutes with every intermediate rounding of the sum. It also
/// preserves every cost comparison, so all algorithms (given the same RNG
/// stream) make identical decisions.
void expect_scale_invariance(const core::ModelIndex& base,
                             const core::ModelIndex& scaled,
                             std::uint64_t solve_seed) {
  const test::EmbedderSet set;
  for (const core::Embedder* algo : set.all()) {
    const SolveResult b = solve_checked(*algo, base, solve_seed);
    const SolveResult s = solve_checked(*algo, scaled, solve_seed);
    ASSERT_EQ(b.ok(), s.ok()) << algo->name();
    if (!b.ok()) continue;
    EXPECT_EQ(s.cost, 2.0 * b.cost)
        << algo->name() << ": doubled prices must double the cost bitwise";
    EXPECT_EQ(b.solution->placement, s.solution->placement) << algo->name();
  }
}

TEST(PriceScaling, CanonicalInstanceScalesBitwise) {
  const auto base = test::canonical_fixture();
  const auto scaled = test::canonical_fixture();
  scale_all_prices(scaled->network, 2.0);
  expect_scale_invariance(*base->index, *scaled->index, 0x5ca1e);
}

sim::ExperimentConfig small_config(std::uint64_t seed) {
  sim::ExperimentConfig cfg;
  cfg.network_size = 14;
  cfg.network_connectivity = 3.0;
  cfg.catalog_size = 6;
  cfg.sfc_size = 3;
  cfg.max_layer_width = 3;
  cfg.trials = 1;
  cfg.seed = seed;
  return cfg;
}

/// Regenerates the identical random scenario twice (the generator is a
/// deterministic function of the RNG stream) and scales the second copy.
TEST(PriceScaling, RandomInstancesScaleBitwise) {
  for (std::uint64_t seed : {0x11auLL, 0x22buLL, 0x33cuLL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const sim::ExperimentConfig cfg = small_config(seed);
    Rng rng_a(seed);
    sim::Scenario a = make_scenario(rng_a, cfg);
    const sfc::DagSfc dag_a = make_sfc(rng_a, a.network.catalog(), cfg);
    Rng rng_b(seed);
    sim::Scenario b = make_scenario(rng_b, cfg);
    const sfc::DagSfc dag_b = make_sfc(rng_b, b.network.catalog(), cfg);
    scale_all_prices(b.network, 2.0);

    core::EmbeddingProblem pa;
    pa.network = &a.network;
    pa.sfc = &dag_a;
    pa.flow = core::Flow{a.source, a.destination, cfg.flow_rate, cfg.flow_size};
    const core::ModelIndex ia(pa);
    core::EmbeddingProblem pb;
    pb.network = &b.network;
    pb.sfc = &dag_b;
    pb.flow = core::Flow{b.source, b.destination, cfg.flow_rate, cfg.flow_size};
    const core::ModelIndex ib(pb);

    expect_scale_invariance(ia, ib, seed ^ 0xfeed);
  }
}

// ---------------------------------------------------------------------------
// (c) permutation within a parallel set
// ---------------------------------------------------------------------------

/// The canonical 6-node instance with the parallel layer's VNF order chosen
/// by the caller.
std::unique_ptr<test::Fixture> canonical_with_order(
    std::vector<net::VnfTypeId> parallel) {
  test::NetBuilder b(6, 3);
  b.link(0, 1, 1.0).link(1, 2, 1.0).link(2, 3, 1.0).link(3, 4, 1.0);
  b.link(1, 5, 1.0).link(5, 3, 1.0);
  b.put(1, 1, 10.0);
  b.put(2, 2, 12.0).put(5, 2, 8.0);
  b.put(2, 3, 9.0).put(3, 3, 7.0);
  b.put(3, b.merger(), 5.0).put(5, b.merger(), 6.0);
  sfc::DagSfc dag({sfc::Layer{{1}}, sfc::Layer{std::move(parallel)}});
  return test::make_fixture(b.build(), std::move(dag),
                            core::Flow{0, 4, 1.0, 1.0});
}

TEST(ParallelPermutation, CanonicalMbbeCostUnchanged) {
  const auto fwd = canonical_with_order({2, 3});
  const auto rev = canonical_with_order({3, 2});
  const core::MbbeEmbedder mbbe;
  const core::ExactEmbedder exact;
  const SolveResult mf = solve_checked(mbbe, *fwd->index, 1);
  const SolveResult mr = solve_checked(mbbe, *rev->index, 1);
  ASSERT_TRUE(mf.ok());
  ASSERT_TRUE(mr.ok());
  EXPECT_NEAR(mf.cost, mr.cost, tol(mf.cost));
  // The exact optimum is order-invariant too, and bounds the heuristic.
  const SolveResult ef = solve_checked(exact, *fwd->index, 1);
  const SolveResult er = solve_checked(exact, *rev->index, 1);
  ASSERT_TRUE(ef.ok());
  ASSERT_TRUE(er.ok());
  EXPECT_NEAR(ef.cost, er.cost, tol(ef.cost));
  EXPECT_GE(mf.cost, ef.cost - tol(ef.cost));
}

TEST(ParallelPermutation, RandomInstancesMbbeCostUnchanged) {
  std::size_t exercised = 0;
  for (std::uint64_t seed : {0x9a1uLL, 0x9b2uLL, 0x9c3uLL, 0x9d4uLL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const sim::ExperimentConfig cfg = small_config(seed);
    Rng rng(seed);
    const sim::Scenario sc = make_scenario(rng, cfg);
    const sfc::DagSfc dag = make_sfc(rng, sc.network.catalog(), cfg);

    // Reverse the first parallel layer; skip chains without one.
    std::vector<sfc::Layer> layers = dag.layers();
    auto parallel = std::find_if(layers.begin(), layers.end(),
                                 [](const sfc::Layer& l) {
                                   return l.width() > 1;
                                 });
    if (parallel == layers.end()) continue;
    std::reverse(parallel->vnfs.begin(), parallel->vnfs.end());
    const sfc::DagSfc permuted(std::move(layers));

    core::EmbeddingProblem pf;
    pf.network = &sc.network;
    pf.sfc = &dag;
    pf.flow =
        core::Flow{sc.source, sc.destination, cfg.flow_rate, cfg.flow_size};
    const core::ModelIndex fwd(pf);
    core::EmbeddingProblem pp = pf;
    pp.sfc = &permuted;
    const core::ModelIndex rev(pp);

    const core::MbbeEmbedder mbbe;
    const SolveResult rf = solve_checked(mbbe, fwd, seed);
    const SolveResult rr = solve_checked(mbbe, rev, seed);
    ASSERT_EQ(rf.ok(), rr.ok());
    if (!rf.ok()) continue;
    EXPECT_NEAR(rf.cost, rr.cost, tol(rf.cost));
    ++exercised;
  }
  EXPECT_GT(exercised, 0u) << "no seed produced a solvable parallel layer";
}

// ---------------------------------------------------------------------------
// (a) duplicating a parallel VNF never decreases multicast sharing
// ---------------------------------------------------------------------------

/// An instance pair sharing one network: the base DAG [1] -> [2 | 3] and a
/// widened DAG [1] -> [2 | 3 | 4], where type 4 is a byte-identical clone
/// of type 3 (deployed on the same nodes, same prices and capacities).
struct DupCase {
  net::Network network;
  sfc::DagSfc base_dag;
  sfc::DagSfc dup_dag;
  core::EmbeddingProblem base_problem;
  core::EmbeddingProblem dup_problem;
  std::unique_ptr<core::ModelIndex> base_index;
  std::unique_ptr<core::ModelIndex> dup_index;

  DupCase(net::Network n, core::Flow flow)
      : network(std::move(n)),
        base_dag({sfc::Layer{{1}}, sfc::Layer{{2, 3}}}),
        dup_dag({sfc::Layer{{1}}, sfc::Layer{{2, 3, 4}}}) {
    base_problem.network = &network;
    base_problem.sfc = &base_dag;
    base_problem.flow = flow;
    dup_problem = base_problem;
    dup_problem.sfc = &dup_dag;
    base_index = std::make_unique<core::ModelIndex>(base_problem);
    dup_index = std::make_unique<core::ModelIndex>(dup_problem);
  }
};

constexpr net::VnfTypeId kOrig = 3;
constexpr net::VnfTypeId kClone = 4;

/// Clones every type-3 deployment as type 4 — the "duplicate VNF".
void clone_deployments(net::Network& net) {
  const std::vector<graph::NodeId> hosts = net.nodes_with(kOrig);
  for (const graph::NodeId v : hosts) {
    const auto id = net.find_instance(v, kOrig);
    ASSERT_TRUE(id.has_value());
    (void)net.deploy(v, kClone, net.instance(*id).price,
                     net.instance(*id).capacity);
  }
}

std::unique_ptr<DupCase> random_dup_case(std::uint64_t seed) {
  Rng rng(seed);
  graph::RandomGraphOptions gopts;
  gopts.num_nodes = 16;
  gopts.average_degree = 3.0;
  net::Network net(graph::random_connected_graph(rng, gopts),
                   net::VnfCatalog(4));
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    net.set_link_price(e, rng.uniform_real(1.0, 3.0));
  }
  for (graph::NodeId v = 0; v < net.num_nodes(); ++v) {
    for (net::VnfTypeId t = 1; t <= 3; ++t) {
      if (rng.uniform_real(0.0, 1.0) < 0.6) {
        (void)net.deploy(v, t, rng.uniform_real(5.0, 15.0), 100.0);
      }
    }
    if (rng.uniform_real(0.0, 1.0) < 0.4) {
      (void)net.deploy(v, net.catalog().merger(), rng.uniform_real(3.0, 8.0),
                       100.0);
    }
  }
  for (net::VnfTypeId t = 1; t <= 3; ++t) {
    if (net.nodes_with(t).empty()) {
      (void)net.deploy(rng.index(net.num_nodes()), t,
                       rng.uniform_real(5.0, 15.0), 100.0);
    }
  }
  if (net.nodes_with(net.catalog().merger()).empty()) {
    (void)net.deploy(rng.index(net.num_nodes()), net.catalog().merger(),
                     rng.uniform_real(3.0, 8.0), 100.0);
  }
  clone_deployments(net);
  const auto src = static_cast<graph::NodeId>(rng.index(net.num_nodes()));
  auto dst = static_cast<graph::NodeId>(rng.index(net.num_nodes()));
  while (dst == src) dst = static_cast<graph::NodeId>(rng.index(net.num_nodes()));
  return std::make_unique<DupCase>(std::move(net),
                                   core::Flow{src, dst, 1.0, 1.0});
}

/// Maps each slot of the widened index to the base slot it mirrors: same
/// layer + same type, with the clone type standing in for the original.
std::vector<core::SlotId> map_slots(const core::ModelIndex& dup,
                                    const core::ModelIndex& base) {
  std::vector<core::SlotId> out(dup.num_slots(), core::kInvalidSlot);
  for (core::SlotId s = 0; s < dup.num_slots(); ++s) {
    const std::uint32_t l = dup.slot_layer(s);
    if (dup.is_merger_slot(s)) {
      out[s] = base.merger_slot(l);
      continue;
    }
    net::VnfTypeId want = dup.slot_type(s);
    if (want == kClone) want = kOrig;
    for (const core::SlotId b : base.layer_slots(l)) {
      if (!base.is_merger_slot(b) && base.slot_type(b) == want) {
        out[s] = b;
        break;
      }
    }
    EXPECT_NE(out[s], core::kInvalidSlot);
  }
  return out;
}

const graph::Path& lookup_path(const std::vector<core::MetaPathDesc>& descs,
                               const std::vector<graph::Path>& paths,
                               std::uint32_t layer, core::SlotRef from,
                               core::SlotRef to) {
  for (std::size_t i = 0; i < descs.size(); ++i) {
    if (descs[i].layer == layer && descs[i].from == from &&
        descs[i].to == to) {
      return paths[i];
    }
  }
  ADD_FAILURE() << "no base meta-path matches layer " << layer;
  static const graph::Path kEmpty;
  return kEmpty;
}

/// Extends a base solution to the widened index: the clone slot reuses the
/// original's node, and every clone meta-path copies the original's
/// real-path.
core::EmbeddingSolution extend_solution(
    const core::EmbeddingSolution& base_sol, const core::ModelIndex& base,
    const core::ModelIndex& dup, const std::vector<core::SlotId>& dup_to_base) {
  const auto map_ref = [&](core::SlotRef r) {
    if (r.kind == core::SlotRef::Kind::Slot) {
      return core::SlotRef::of(dup_to_base[r.slot]);
    }
    return r;
  };
  core::EmbeddingSolution out;
  out.placement.resize(dup.num_slots());
  for (core::SlotId s = 0; s < dup.num_slots(); ++s) {
    out.placement[s] = base_sol.placement[dup_to_base[s]];
  }
  for (const core::MetaPathDesc& d : dup.inter_paths()) {
    out.inter_paths.push_back(lookup_path(base.inter_paths(),
                                          base_sol.inter_paths, d.layer,
                                          map_ref(d.from), map_ref(d.to)));
  }
  for (const core::MetaPathDesc& d : dup.inner_paths()) {
    out.inner_paths.push_back(lookup_path(base.inner_paths(),
                                          base_sol.inner_paths, d.layer,
                                          map_ref(d.from), map_ref(d.to)));
  }
  return out;
}

/// Total link charges saved by the formula (9) multicast discount.
std::uint64_t sharing_of(const std::vector<core::Evaluator::CostTerm>& terms) {
  std::uint64_t saved = 0;
  for (const auto& t : terms) {
    if (!t.vnf) saved += t.raw_uses - t.uses;
  }
  return saved;
}

void check_duplication_case(const DupCase& c, std::uint64_t solve_seed) {
  const core::MbbeEmbedder mbbe;
  EmbeddingTrace base_trace;
  const SolveResult base =
      solve_checked(mbbe, *c.base_index, solve_seed, &base_trace);
  if (!base.ok()) return;  // callers count exercised instances

  const std::vector<core::SlotId> d2b = map_slots(*c.dup_index, *c.base_index);
  const core::EmbeddingSolution dup_sol =
      extend_solution(*base.solution, *c.base_index, *c.dup_index, d2b);
  const core::Evaluator base_eval(*c.base_index);
  const core::Evaluator dup_eval(*c.dup_index);
  ASSERT_TRUE(dup_eval.validate(dup_sol).empty());

  const auto base_terms = base_eval.cost_terms(*base.solution);
  const auto dup_terms = dup_eval.cost_terms(dup_sol);
  const std::uint64_t base_sharing = sharing_of(base_terms);
  const std::uint64_t dup_sharing = sharing_of(dup_terms);

  // The traced solve's Cost events agree with the evaluator's sharing.
  EXPECT_EQ(base_trace.multicast_sharing(), base_sharing);
  EXPECT_EQ(base_trace.counts().multicast_shared_uses, base_sharing);

  // Locate the clone slot and the real-paths its meta-paths copied.
  core::SlotId clone_slot = core::kInvalidSlot;
  for (core::SlotId s = 0; s < c.dup_index->num_slots(); ++s) {
    if (!c.dup_index->is_merger_slot(s) &&
        c.dup_index->slot_type(s) == kClone) {
      clone_slot = s;
    }
  }
  ASSERT_NE(clone_slot, core::kInvalidSlot);
  const graph::Path* clone_inter = nullptr;
  const graph::Path* clone_inner = nullptr;
  const auto& inter_descs = c.dup_index->inter_paths();
  for (std::size_t i = 0; i < inter_descs.size(); ++i) {
    if (inter_descs[i].to == core::SlotRef::of(clone_slot)) {
      clone_inter = &dup_sol.inter_paths[i];
    }
  }
  const auto& inner_descs = c.dup_index->inner_paths();
  for (std::size_t i = 0; i < inner_descs.size(); ++i) {
    if (inner_descs[i].from == core::SlotRef::of(clone_slot)) {
      clone_inner = &dup_sol.inner_paths[i];
    }
  }
  ASSERT_NE(clone_inter, nullptr);
  ASSERT_NE(clone_inner, nullptr);

  // The copied inter-layer path rides entirely on links its original
  // already pays for, so each of its edges is one more saved charge; the
  // inner-layer copy charges independently (formula (10)) and saves
  // nothing. Hence sharing grows by exactly the inter copy's length — and
  // in particular never decreases.
  EXPECT_EQ(dup_sharing, base_sharing + clone_inter->length());
  EXPECT_GE(dup_sharing, base_sharing);

  // Cost grows by exactly the clone rental plus its inner-layer links.
  const net::Network& net = c.network;
  const double z = c.base_problem.flow.size;
  const graph::NodeId clone_node = dup_sol.placement[clone_slot];
  const auto clone_id = net.find_instance(clone_node, kClone);
  ASSERT_TRUE(clone_id.has_value());
  double delta = net.instance(*clone_id).price * z;
  for (const graph::EdgeId e : clone_inner->edges) {
    delta += net.link_price(e) * z;
  }
  const double base_cost = base_eval.cost(*base.solution);
  const double dup_cost = dup_eval.cost(dup_sol);
  EXPECT_EQ(base_cost, base.cost);
  EXPECT_NEAR(dup_cost, base_cost + delta, tol(dup_cost));

  // Solving the widened instance directly also reconstructs bitwise
  // (checked inside solve_checked).
  (void)solve_checked(mbbe, *c.dup_index, solve_seed);
}

TEST(VnfDuplication, CanonicalSharingNeverDecreases) {
  test::NetBuilder b(6, 4);
  b.link(0, 1, 1.0).link(1, 2, 1.0).link(2, 3, 1.0).link(3, 4, 1.0);
  b.link(1, 5, 1.0).link(5, 3, 1.0);
  b.put(1, 1, 10.0);
  b.put(2, 2, 12.0).put(5, 2, 8.0);
  b.put(2, 3, 9.0).put(3, 3, 7.0);
  b.put(2, 4, 9.0).put(3, 4, 7.0);  // clone of type 3
  b.put(3, b.merger(), 5.0).put(5, b.merger(), 6.0);
  auto c = std::make_unique<DupCase>(b.build(), core::Flow{0, 4, 1.0, 1.0});
  check_duplication_case(*c, 0xd0d0);
}

TEST(VnfDuplication, RandomSharingNeverDecreases) {
  std::size_t exercised = 0;
  for (std::uint64_t seed : {0x41uLL, 0x42uLL, 0x43uLL, 0x44uLL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto c = random_dup_case(seed);
    const core::MbbeEmbedder mbbe;
    Rng probe(seed);
    if (!mbbe.solve_fresh(*c->base_index, probe).ok()) continue;
    check_duplication_case(*c, seed ^ 0xd0d0);
    ++exercised;
  }
  EXPECT_GT(exercised, 0u) << "no random seed produced a solvable base case";
}

// ---------------------------------------------------------------------------
// (d) delay budgets on the layered solver
// ---------------------------------------------------------------------------

/// Tightening a delay budget can only shrink the feasible set, so the
/// optimal cost is monotonically non-increasing in the budget: for budgets
/// b1 >= b2, cost(b1) <= cost(b2), and a solve that succeeds under b2 must
/// succeed under b1.
TEST(DelayBudget, TighteningNeverDecreasesCost) {
  const auto budgets = {64.0, 16.0, 8.0, 6.0, 5.0, 4.5};

  for (std::uint64_t seed : {0x91uLL, 0x92uLL, 0x93uLL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const sim::ExperimentConfig cfg = small_config(seed);
    Rng gen(cfg.seed);
    const sim::Scenario scenario = sim::make_scenario(gen, cfg);
    const sfc::DagSfc dag = sim::make_sfc(gen, scenario.network.catalog(), cfg);
    core::EmbeddingProblem problem;
    problem.network = &scenario.network;
    problem.sfc = &dag;
    problem.flow = core::Flow{scenario.source, scenario.destination, 1.0, 1.0};
    const core::ModelIndex index(problem);

    double prev_cost = 0.0;
    bool prev_ok = false;
    bool any_ok = false;
    for (const double budget : budgets) {
      SCOPED_TRACE("budget " + std::to_string(budget));
      core::LayeredOptions opts;
      opts.delay_budget_ms = budget;
      const core::LayeredEmbedder layered{opts};
      const auto r = solve_checked(layered, index, seed);
      // Budgets iterate loosest-first: whenever two budgets both embed, the
      // tighter one may not be cheaper.
      if (prev_ok && r.ok()) {
        EXPECT_GE(r.cost + tol(r.cost), prev_cost)
            << "tightening the budget decreased the cost";
      }
      if (r.ok()) {
        const core::Evaluator evaluator(index);
        EXPECT_LE(core::end_to_end_delay(evaluator, *r.solution, {}),
                  budget + 1e-9);
        prev_cost = r.cost;
        prev_ok = true;
        any_ok = true;
      }
    }
    (void)any_ok;
    // Once a budget fails, every tighter one must fail too (checked by
    // construction: budgets are descending, so assert failure is absorbing).
    bool seen_failure = false;
    for (const double budget : budgets) {
      core::LayeredOptions opts;
      opts.delay_budget_ms = budget;
      const core::LayeredEmbedder layered{opts};
      const bool ok = solve_checked(layered, index, seed).ok();
      if (seen_failure) {
        EXPECT_FALSE(ok) << "budget " << budget
                         << " succeeded after a looser one failed";
      }
      if (!ok) seen_failure = true;
    }
  }
}

/// "No budget" and "budget = ∞" are the same thing, and the implementation
/// promises they take the same code path — so the results must be fully
/// bitwise-identical, solutions included.
TEST(DelayBudget, InfiniteBudgetIsBitwiseNoBudget) {
  const auto check = [](const core::ModelIndex& index, std::uint64_t seed) {
    const core::LayeredEmbedder none;  // delay_budget_ms unset
    core::LayeredOptions inf_opts;
    inf_opts.delay_budget_ms = std::numeric_limits<double>::infinity();
    const core::LayeredEmbedder infinite{inf_opts};

    const auto a = solve_checked(none, index, seed);
    const auto b = solve_checked(infinite, index, seed);
    ASSERT_EQ(a.ok(), b.ok());
    EXPECT_EQ(a.failure_reason, b.failure_reason);
    EXPECT_EQ(a.expanded_sub_solutions, b.expanded_sub_solutions);
    if (!a.ok()) return;
    EXPECT_EQ(a.cost, b.cost);  // bitwise
    EXPECT_EQ(a.solution->placement, b.solution->placement);
    ASSERT_EQ(a.solution->inter_paths.size(), b.solution->inter_paths.size());
    for (std::size_t i = 0; i < a.solution->inter_paths.size(); ++i) {
      EXPECT_EQ(a.solution->inter_paths[i].nodes,
                b.solution->inter_paths[i].nodes);
      EXPECT_EQ(a.solution->inter_paths[i].cost,
                b.solution->inter_paths[i].cost);
    }
  };

  const auto fx = test::canonical_fixture();
  check(*fx->index, 0x1f1);

  for (std::uint64_t seed : {0xa1uLL, 0xa2uLL, 0xa3uLL}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const sim::ExperimentConfig cfg = small_config(seed);
    Rng gen(cfg.seed);
    const sim::Scenario scenario = sim::make_scenario(gen, cfg);
    const sfc::DagSfc dag = sim::make_sfc(gen, scenario.network.catalog(), cfg);
    core::EmbeddingProblem problem;
    problem.network = &scenario.network;
    problem.sfc = &dag;
    problem.flow = core::Flow{scenario.source, scenario.destination, 1.0, 1.0};
    const core::ModelIndex index(problem);
    check(index, seed);
  }
}

}  // namespace
}  // namespace dagsfc
