#pragma once
/// Shared fixtures for the test suite: hand-crafted tiny networks with known
/// optimal embeddings, a lifetime-stable problem bundle, and the helpers of
/// the differential batteries — bitwise path and SolveResult comparison,
/// the six-embedder set, random weighted graphs, and the golden-row format
/// that pins a solve's output (cost bits, search counters and a digest of
/// every path) in tests/corpus/*_golden.txt.

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/backtracking.hpp"
#include "core/baselines.hpp"
#include "core/exact.hpp"
#include "core/layered.hpp"
#include "core/model.hpp"
#include "core/validator.hpp"
#include "graph/edge_mask.hpp"
#include "graph/generator.hpp"
#include "graph/reference.hpp"
#include "graph/workspace.hpp"
#include "net/io.hpp"
#include "net/ledger.hpp"
#include "net/network.hpp"
#include "sfc/dag_sfc.hpp"
#include "sfc/io.hpp"
#include "util/rng.hpp"

namespace dagsfc::test {

/// Incremental builder for small explicit networks.
class NetBuilder {
 public:
  NetBuilder(std::size_t nodes, std::size_t catalog_regular)
      : g_(nodes), catalog_(catalog_regular) {}

  NetBuilder& link(graph::NodeId u, graph::NodeId v, double price,
                   double capacity = 100.0) {
    const graph::EdgeId e = g_.add_edge(u, v, price);
    caps_.push_back({e, capacity});
    return *this;
  }

  /// Deploys VNF type \p t (1..n regular; use merger() for the merger).
  NetBuilder& put(graph::NodeId v, net::VnfTypeId t, double price,
                  double capacity = 100.0) {
    deploys_.push_back({v, t, price, capacity});
    return *this;
  }

  [[nodiscard]] net::VnfTypeId merger() const { return catalog_.merger(); }

  [[nodiscard]] net::Network build() {
    net::Network n(std::move(g_), catalog_);
    for (const auto& [e, c] : caps_) n.set_link_capacity(e, c);
    for (const auto& d : deploys_) {
      (void)n.deploy(d.node, d.type, d.price, d.capacity);
    }
    return n;
  }

 private:
  struct Deploy {
    graph::NodeId node;
    net::VnfTypeId type;
    double price;
    double capacity;
  };
  graph::Graph g_;
  net::VnfCatalog catalog_;
  std::vector<std::pair<graph::EdgeId, double>> caps_;
  std::vector<Deploy> deploys_;
};

/// Bundles a network, a DAG-SFC and the derived problem/index with stable
/// addresses (heap-allocated, non-movable members referenced by pointers).
struct Fixture {
  net::Network network;
  sfc::DagSfc dag;
  core::EmbeddingProblem problem;
  std::unique_ptr<core::ModelIndex> index;

  Fixture(net::Network n, sfc::DagSfc d, core::Flow flow)
      : network(std::move(n)), dag(std::move(d)) {
    problem.network = &network;
    problem.sfc = &dag;
    problem.flow = flow;
    index = std::make_unique<core::ModelIndex>(problem);
  }
};

[[nodiscard]] inline std::unique_ptr<Fixture> make_fixture(net::Network n,
                                                           sfc::DagSfc d,
                                                           core::Flow flow) {
  return std::make_unique<Fixture>(std::move(n), std::move(d), flow);
}

/// The canonical tiny instance used across algorithm tests: a 6-node path
/// with a shortcut, uniform link price 1, one parallel layer.
///
///     0 --- 1 --- 2 --- 3 --- 4
///            \----- 5 -----/
///
/// f1 on node 1 (price 10), f2 on nodes 2 (price 12) and 5 (price 8),
/// f3 on nodes 2 (price 9) and 3 (price 7), merger on nodes 3 (5) and 5 (6).
/// SFC: [f1] -> [f2 | f3].  Flow 0 -> 4.
[[nodiscard]] inline std::unique_ptr<Fixture> canonical_fixture() {
  NetBuilder b(6, 3);
  b.link(0, 1, 1.0).link(1, 2, 1.0).link(2, 3, 1.0).link(3, 4, 1.0);
  b.link(1, 5, 1.0).link(5, 3, 1.0);
  b.put(1, 1, 10.0);
  b.put(2, 2, 12.0).put(5, 2, 8.0);
  b.put(2, 3, 9.0).put(3, 3, 7.0);
  b.put(3, b.merger(), 5.0).put(5, b.merger(), 6.0);
  sfc::DagSfc dag({sfc::Layer{{1}}, sfc::Layer{{2, 3}}});
  return make_fixture(b.build(), std::move(dag),
                      core::Flow{0, 4, 1.0, 1.0});
}

/// The whole file at \p path; throws when it cannot be opened.
[[nodiscard]] inline std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing corpus file " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// A serialized tests/corpus/ instance (`<name>.net.txt` + `<name>.sfc.txt`,
/// whose flow line sets the flow) with a stable problem and index.
struct CorpusInstance {
  net::Network network;
  sfc::SfcFile file;
  core::EmbeddingProblem problem;
  std::unique_ptr<core::ModelIndex> index;

  CorpusInstance(const std::string& dir, const std::string& name)
      : network(net::network_from_text(slurp(dir + "/" + name + ".net.txt"))),
        file(sfc::sfc_from_text(slurp(dir + "/" + name + ".sfc.txt"))) {
    if (!file.flow.has_value()) {
      throw std::runtime_error("corpus instance lacks a flow line");
    }
    problem.network = &network;
    problem.sfc = &file.dag;
    problem.flow = core::Flow{file.flow->source, file.flow->destination,
                              file.flow->rate, file.flow->size};
    index = std::make_unique<core::ModelIndex>(problem);
  }
};

// --- bitwise comparison ----------------------------------------------------

inline void expect_same_path(const graph::Path& a, const graph::Path& b) {
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.cost, b.cost);  // bit-identical, not approximate
}

inline void expect_same_opt_path(const std::optional<graph::Path>& a,
                                 const std::optional<graph::Path>& b) {
  ASSERT_EQ(a.has_value(), b.has_value());
  if (a) expect_same_path(*a, *b);
}

/// Two solves agree bit for bit: same outcome, same cost, same placements,
/// same real-paths, same search effort.
inline void expect_identical(const core::SolveResult& a,
                             const core::SolveResult& b) {
  ASSERT_EQ(a.ok(), b.ok()) << a.failure_reason << " vs " << b.failure_reason;
  EXPECT_EQ(a.failure_reason, b.failure_reason);
  EXPECT_EQ(a.expanded_sub_solutions, b.expanded_sub_solutions);
  EXPECT_EQ(a.candidate_solutions, b.candidate_solutions);
  if (!a.ok()) return;
  EXPECT_EQ(a.cost, b.cost);  // bit-identical, not approximate
  ASSERT_TRUE(b.solution.has_value());
  EXPECT_EQ(a.solution->placement, b.solution->placement);
  ASSERT_EQ(a.solution->inter_paths.size(), b.solution->inter_paths.size());
  for (std::size_t i = 0; i < a.solution->inter_paths.size(); ++i) {
    expect_same_path(a.solution->inter_paths[i], b.solution->inter_paths[i]);
  }
  ASSERT_EQ(a.solution->inner_paths.size(), b.solution->inner_paths.size());
  for (std::size_t i = 0; i < a.solution->inner_paths.size(); ++i) {
    expect_same_path(a.solution->inner_paths[i], b.solution->inner_paths[i]);
  }
}

/// The six solvers the differential batteries run, with budgets large
/// enough that the exact ones solve the small battery instances.
struct EmbedderSet {
  core::RanvEmbedder ranv;
  core::MinvEmbedder minv;
  core::BbeEmbedder bbe;
  core::MbbeEmbedder mbbe;
  core::ExactEmbedder exact{core::ExactOptions{50'000'000}};
  core::LayeredEmbedder layered{core::LayeredOptions{
      .delay_budget_ms = std::nullopt,
      .delay_model = {},
      .max_work = 50'000'000,
      .max_labels = 2'000'000}};

  [[nodiscard]] std::vector<const core::Embedder*> all() const {
    return {&ranv, &minv, &bbe, &mbbe, &exact, &layered};
  }
};

// --- random graphs ---------------------------------------------------------

/// Connected random graph over \p n nodes with weights uniform in [1, 10).
[[nodiscard]] inline graph::Graph random_weighted_graph(std::size_t n,
                                                        double degree,
                                                        std::uint64_t seed) {
  Rng rng(seed);
  graph::RandomGraphOptions opts;
  opts.num_nodes = n;
  opts.average_degree = degree;
  graph::Graph g = random_connected_graph(rng, opts);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    g.set_weight(e, rng.uniform_real(1.0, 10.0));
  }
  return g;
}

/// A random ~80%-permissive allow-set, expressed both ways: as an EdgeMask
/// for the production kernels and as the seed kernels' EdgeFilter over the
/// same bits.
struct AllowSet {
  std::vector<char> allow;
  graph::EdgeMaskBuffer mask;
  graph::EdgeMask view;

  AllowSet(const graph::Graph& g, Rng& rng) {
    allow.resize(g.num_edges());
    mask.assign(g.num_edges(), false);
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      allow[e] = rng.uniform_real(0.0, 1.0) < 0.8 ? 1 : 0;
      if (allow[e]) mask.set(e);
    }
    view = mask.view();
  }
  [[nodiscard]] graph::reference::EdgeFilter filter() const {
    return [this](graph::EdgeId e) { return allow[e] != 0; };
  }
};

/// The last search in \p ws as the seed kernels' owning tree over \p n
/// nodes (unreached slots filled as the seed fills them), so a one-shot
/// search compares with graph::reference field by field.
[[nodiscard]] inline graph::reference::ShortestPathTree tree_of(
    const graph::SearchWorkspace& ws, std::size_t n) {
  graph::reference::ShortestPathTree t;
  t.source = ws.source();
  t.dist.resize(n);
  t.parent.resize(n);
  t.parent_edge.resize(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    t.dist[v] = ws.dist(v);
    t.parent[v] = ws.parent(v);
    t.parent_edge[v] = ws.parent_edge(v);
  }
  return t;
}

// --- golden rows -----------------------------------------------------------
//
// A golden row pins one solve: `name ok=<0|1> cost=<bits> expanded=<n>
// candidates=<n> solution=<digest|-> events=<digest|->`. The solution
// digest is FNV-1a over the winning placement and every path's nodes,
// edges and cost bits; the events field is the caller's (a trace digest,
// or "-").

class Fnv {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
  void add(const std::string& s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) add(static_cast<std::uint64_t>(c));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

inline void add_path(Fnv& h, const graph::Path& p) {
  h.add(static_cast<std::uint64_t>(p.nodes.size()));
  for (const graph::NodeId v : p.nodes) h.add(static_cast<std::uint64_t>(v));
  h.add(static_cast<std::uint64_t>(p.edges.size()));
  for (const graph::EdgeId e : p.edges) h.add(static_cast<std::uint64_t>(e));
  h.add(p.cost);
}

[[nodiscard]] inline std::uint64_t solution_digest(
    const core::EmbeddingSolution& sol) {
  Fnv h;
  h.add(static_cast<std::uint64_t>(sol.placement.size()));
  for (const graph::NodeId v : sol.placement) {
    h.add(static_cast<std::uint64_t>(v));
  }
  h.add(static_cast<std::uint64_t>(sol.inter_paths.size()));
  for (const graph::Path& p : sol.inter_paths) add_path(h, p);
  h.add(static_cast<std::uint64_t>(sol.inner_paths.size()));
  for (const graph::Path& p : sol.inner_paths) add_path(h, p);
  return h.value();
}

[[nodiscard]] inline std::string hex(std::uint64_t x) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

/// \p r rendered as the golden row named \p name.
[[nodiscard]] inline std::string golden_row(const std::string& name,
                                            const core::SolveResult& r,
                                            const std::string& events = "-") {
  std::ostringstream row;
  row << name << " ok=" << (r.ok() ? 1 : 0)
      << " cost=" << hex(std::bit_cast<std::uint64_t>(r.cost))
      << " expanded=" << r.expanded_sub_solutions
      << " candidates=" << r.candidate_solutions << " solution="
      << (r.ok() ? hex(solution_digest(*r.solution)) : std::string("-"))
      << " events=" << events;
  return row.str();
}

/// name → row of a golden file; `#` lines and blank lines are skipped.
[[nodiscard]] inline std::map<std::string, std::string> load_golden(
    const std::string& path) {
  std::map<std::string, std::string> rows;
  std::istringstream in(slurp(path));
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    rows.emplace(line.substr(0, line.find(' ')), line);
  }
  return rows;
}

/// tests/corpus/embedder_golden.txt: every EmbedderSet solver on the
/// serialized corpus (`corpus_<instance>_<ALGO>`, seed 1) and on the
/// 200-instance batteries of test_search_flat (`searchflat_<i>_<ALGO>`) and
/// test_path_cache (`pathcache_<i>_<ALGO>`), recorded through the seed
/// search kernels (graph::reference) with the path cache off.
[[nodiscard]] inline const std::map<std::string, std::string>&
embedder_golden() {
  static const auto rows =
      load_golden(std::string(DAGSFC_CORPUS_DIR) + "/embedder_golden.txt");
  return rows;
}

/// Solves \p index with every embedder of EmbedderSet on a fresh ledger
/// (seeded \p seed) and holds each result to its embedder_golden() row
/// `<prefix>_<ALGO>` bit for bit, and to the independent admissibility
/// oracle with its bitwise cost recomputation. Adds each solve's
/// path-query counters to \p tally when given.
inline void expect_golden_solves(const core::ModelIndex& index,
                                 std::uint64_t seed, const std::string& prefix,
                                 graph::PathQueryCounters* tally = nullptr) {
  const auto& golden = embedder_golden();
  const EmbedderSet set;
  const core::SolutionValidator validator(index);
  for (const core::Embedder* algo : set.all()) {
    SCOPED_TRACE(algo->name());
    const std::string name = prefix + "_" + algo->name();
    net::CapacityLedger ledger(index.problem().net());
    Rng rng(seed);
    const core::SolveResult r = algo->solve(index, ledger, rng);
    if (tally != nullptr) *tally += r.path_queries;
    const auto it = golden.find(name);
    ASSERT_NE(it, golden.end()) << "no recorded row " << name;
    EXPECT_EQ(golden_row(name, r), it->second);
    const net::CapacityLedger fresh(index.problem().net());
    const auto audit = validator.check(r, fresh);
    EXPECT_TRUE(audit.ok()) << audit.to_string();
  }
}

}  // namespace dagsfc::test
