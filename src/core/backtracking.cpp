#include "core/backtracking.hpp"

#include <algorithm>
#include <optional>

#include "core/path_oracle.hpp"
#include "graph/dijkstra.hpp"
#include "util/metrics.hpp"

namespace dagsfc::core {

namespace {

constexpr std::uint32_t kNoParent = static_cast<std::uint32_t>(-1);

/// One instantiated real-path in the solve's Arena: hops + 1 node ids from
/// node_begin, hops edge ids from edge_begin, and the cost exactly as the
/// producing query (tree walk, shortest-path tree or Yen) summed it.
struct PathSpan {
  std::uint32_t node_begin = 0;
  std::uint32_t edge_begin = 0;
  std::uint32_t hops = 0;
  double cost = 0.0;
};

/// A run of consecutive Arena path ids: the candidate real-paths of one
/// meta-path after capacity screening (count 0 = none survives).
struct PathRun {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

/// One node of the sub-solution tree (§4.4.2): the embedding of a single
/// DAG-SFC layer, linked to the previous layer's sub-solution it extends.
/// Its placement (aligned with layer_slots(l)) and its path picks (one
/// Arena path id per inter-layer meta-path, then one per inner-layer
/// meta-path) live in the solve's Arena, so a child costs no allocation.
struct SubSolution {
  std::uint32_t parent = kNoParent;  ///< index into the previous layer's pool
  NodeId end_node = graph::kInvalidNode;
  double cumulative_cost = 0.0;   ///< exact cost of layers embedded so far
  double cumulative_delay = 0.0;  ///< critical-path delay so far (ms)
  std::uint32_t placement = 0;    ///< offset into Arena::placements
  std::uint32_t picks = 0;        ///< offset into Arena::picks
};

/// One step of a parent's expansion in a layer pass: a forward or backward
/// search with its traced outcome, or a candidate child with what its layer
/// adds. The steps depend only on the parent's end node, so parents that
/// share one replay the first one's steps (DESIGN.md §14, "Shared
/// expansions").
struct ExpansionStep {
  enum class Kind : std::uint8_t { ForwardSearch, BackwardSearch, Child };

  Kind kind = Kind::Child;
  bool covered = false;  ///< search: it found every VNF type it looked for
  bool capped = false;   ///< forward search: X_max bounded it
  NodeId node = graph::kInvalidNode;  ///< search start, or child end node
  std::uint32_t searched = 0;         ///< search: nodes searched
  std::uint32_t placement = 0;        ///< child: offset into Arena::placements
  std::uint32_t picks = 0;            ///< child: offset into Arena::picks
  double cost = 0.0;   ///< child: layer cost, vnf + link
  double delay = 0.0;  ///< child: layer critical-path delay (ms)

  static ExpansionStep search(Kind kind, NodeId from, std::size_t searched,
                              bool covered) {
    ExpansionStep s;
    s.kind = kind;
    s.node = from;
    s.searched = static_cast<std::uint32_t>(searched);
    s.covered = covered;
    return s;
  }
};

/// Per end node, for the current layer pass: how many parents end there,
/// and the steps [first, last) its first parent recorded when they are more
/// than one (first = kNoParent until then).
struct SharedExpansion {
  std::uint32_t parents = 0;
  std::uint32_t first = kNoParent;
  std::uint32_t last = 0;
};

/// Append-only per-solve storage behind every sub-solution. Paths are
/// shared: each meta-path instance is stored once and referenced by id
/// from every child that picks it. graph::Path is built only when a
/// complete candidate is assembled.
struct Arena {
  std::vector<NodeId> nodes;
  std::vector<graph::EdgeId> edges;
  std::vector<PathSpan> paths;
  std::vector<NodeId> placements;
  std::vector<std::uint32_t> picks;

  [[nodiscard]] std::span<const NodeId> nodes_of(const PathSpan& p) const {
    return {nodes.data() + p.node_begin, p.hops + std::size_t{1}};
  }
  [[nodiscard]] std::span<const graph::EdgeId> edges_of(
      const PathSpan& p) const {
    return {edges.data() + p.edge_begin, p.hops};
  }

  /// Marks where the next path's node and edge ids start.
  [[nodiscard]] PathSpan open() const {
    DAGSFC_CHECK(nodes.size() < kNoParent && edges.size() < kNoParent);
    PathSpan p;
    p.node_begin = static_cast<std::uint32_t>(nodes.size());
    p.edge_begin = static_cast<std::uint32_t>(edges.size());
    return p;
  }
  /// Reverses the ids appended since open() in place.
  void reverse_tail(const PathSpan& p) {
    std::reverse(nodes.begin() + p.node_begin, nodes.end());
    std::reverse(edges.begin() + p.edge_begin, edges.end());
  }
  /// Records the ids appended since open() as one path of cost \p cost.
  void close(PathSpan p, double cost) {
    p.hops = static_cast<std::uint32_t>(edges.size() - p.edge_begin);
    p.cost = cost;
    paths.push_back(p);
  }

  void push(const graph::Path& p) {
    const PathSpan s = open();
    nodes.insert(nodes.end(), p.nodes.begin(), p.nodes.end());
    edges.insert(edges.end(), p.edges.begin(), p.edges.end());
    close(s, p.cost);
  }
  /// Single-node path for a meta-path whose endpoints coincide.
  void push_trivial(NodeId v) {
    const PathSpan s = open();
    nodes.push_back(v);
    close(s, 0.0);
  }

  [[nodiscard]] graph::Path path(std::uint32_t id) const {
    const PathSpan& s = paths[id];
    const auto n = nodes_of(s);
    const auto e = edges_of(s);
    graph::Path p;
    p.nodes.assign(n.begin(), n.end());
    p.edges.assign(e.begin(), e.end());
    p.cost = s.cost;
    return p;
  }
};

/// Candidate path runs memoized per target node under a stamp: next()
/// starts a new scope (a parent's inter-layer meta-paths, a merger's
/// inner-layer ones) in O(1).
class PathMemo {
 public:
  explicit PathMemo(std::size_t n) : stamp_of_(n, 0), runs_(n) {}

  void next() noexcept { ++stamp_; }
  [[nodiscard]] const PathRun* find(NodeId v) const {
    return stamp_of_[v] == stamp_ ? &runs_[v] : nullptr;
  }
  PathRun put(NodeId v, PathRun run) {
    stamp_of_[v] = stamp_;
    runs_[v] = run;
    return run;
  }

 private:
  std::vector<std::uint32_t> stamp_of_;
  std::vector<PathRun> runs_;
  std::uint32_t stamp_ = 1;
};

/// Tracks which of a layer's required VNF types are already offered by the
/// searched node set (forward/backward coverage condition L_l ⊆ F^{·,l}).
class Coverage {
 public:
  Coverage(const net::CapacityLedger& ledger, double rate)
      : ledger_(&ledger), rate_(rate) {}

  void reset(std::span<const VnfTypeId> types) {
    types_ = types;
    covered_.assign(types.size(), 0);
    num_covered_ = 0;
  }

  void observe(NodeId v) {
    for (std::size_t i = 0; i < types_.size(); ++i) {
      if (!covered_[i] && ledger_->node_offers(v, types_[i], rate_)) {
        covered_[i] = 1;
        ++num_covered_;
      }
    }
  }

  [[nodiscard]] bool complete() const noexcept {
    return num_covered_ == types_.size();
  }

 private:
  const net::CapacityLedger* ledger_;
  double rate_;
  std::span<const VnfTypeId> types_;
  std::vector<char> covered_;
  std::size_t num_covered_ = 0;
};

/// Runs an expanding-ring search from \p start until \p coverage is
/// complete, the (optional) node budget is exhausted, or the filtered
/// component runs out, and rebuilds \p tree from it. Returns whether
/// coverage was achieved.
bool ring_search(const graph::Graph& g, NodeId start, Coverage& coverage,
                 std::size_t node_budget, graph::NodeFilter filter,
                 graph::SearchWorkspace& ws, SearchTree& tree) {
  DAGSFC_PHASE_SCOPE("backtracking/ring_search");
  graph::RingExpander expander(g, start, std::move(filter), &ws);
  coverage.observe(start);
  while (!coverage.complete()) {
    if (node_budget > 0 && expander.visited().size() >= node_budget) break;
    const auto& ring = expander.expand();
    if (ring.empty()) break;
    for (NodeId v : ring) {
      coverage.observe(v);
      if (coverage.complete()) break;
    }
  }
  tree.assign(expander);
  return coverage.complete();
}

/// Steps a lexicographic odometer (last digit fastest) over digits below
/// \p sizes; false once it wraps past the last combination.
bool next_combination(std::span<std::uint32_t> cursor,
                      std::span<const std::uint32_t> sizes) {
  for (std::size_t i = cursor.size(); i-- > 0;) {
    if (++cursor[i] < sizes[i]) return true;
    cursor[i] = 0;
  }
  return false;
}

struct LayerContext {
  const ModelIndex& index;
  const net::CapacityLedger& ledger;
  const net::Network& net;
  const graph::Graph& g;
  double rate;
  double z;
};

/// Instantiates meta-paths into the Arena: the real-path set P^a_b of
/// §4.4.1 restricted per mode, capacity-screened, and memoized per target —
/// inter-layer paths once per (parent, node), inner-layer paths once per
/// (merger, node), final hops once per end node — instead of once per VNF
/// allocation.
class MetaPaths {
 public:
  MetaPaths(const BacktrackingOptions& opts, const LayerContext& ctx,
            PathOracle& oracle, Arena& arena, const SearchTree& fst,
            const SearchTree& bst)
      : opts_(opts),
        ctx_(ctx),
        oracle_(oracle),
        arena_(arena),
        inter_(*this, fst, /*to_root=*/false),
        inner_(*this, bst, /*to_root=*/true),
        final_memo_(ctx.g.num_nodes()) {}

  /// New parent: inter-layer meta-paths now leave \p start, the root of
  /// the forward-search tree.
  void begin_parent(NodeId start) { begin(inter_, start); }
  /// New merger: inner-layer meta-paths now enter \p m, the root of the
  /// backward-search tree.
  void begin_merger(NodeId m) { begin(inner_, m); }

  /// Candidate real-paths start → \p v (the inter-layer P^{start}_v).
  PathRun inter(NodeId v) { return candidates(inter_, v); }
  /// Candidate real-paths \p v → merger (the inner-layer P^v_m).
  PathRun inner(NodeId v) { return candidates(inner_, v); }

  /// The min-cost path \p v → \p destination that completes a candidate
  /// ending at v (count 0 when unreachable).
  PathRun final_hop(NodeId v, NodeId destination) {
    if (const PathRun* run = final_memo_.find(v)) return *run;
    const auto first = static_cast<std::uint32_t>(arena_.paths.size());
    if (v == destination) {
      arena_.push_trivial(v);
    } else if (auto p = oracle_.min_cost_path(v, destination)) {
      arena_.push(*p);
    }
    return final_memo_.put(
        v, PathRun{first,
                   static_cast<std::uint32_t>(arena_.paths.size() - first)});
  }

 private:
  /// The fixed end of one kind of meta-path: the parent's start node with
  /// its FST (inter-layer paths leave it) or the merger with its BST
  /// (inner-layer paths enter it, so they run to the tree root).
  struct Anchor {
    Anchor(MetaPaths& owner, const SearchTree& search_tree, bool toward_root)
        : tree(&search_tree),
          to_root(toward_root),
          memo(owner.ctx_.g.num_nodes()) {}

    const SearchTree* tree;
    bool to_root;
    // Tree mode with alternatives: the links Yen may use. Alternative
    // real-paths stay inside the search tree's node set — the paper's
    // second/third-step candidates re-traverse the trees, not the whole
    // graph — and on links that can carry the flow.
    graph::EdgeMaskBuffer usable;
    PathMemo memo;
    NodeId node = graph::kInvalidNode;
    // MBBE mode: the min-cost search from the anchor, held for the whole
    // parent/merger and settled one candidate host at a time.
    std::shared_ptr<graph::LazyTree> sp;
  };

  void begin(Anchor& a, NodeId node) {
    a.node = node;
    a.memo.next();
    if (opts_.min_cost_path_instantiation) {
      a.sp = oracle_.search(node);
    } else if (opts_.paths_per_meta_path > 1) {
      fill_tree_mask(*a.tree, a.usable);
    }
  }

  PathRun candidates(Anchor& a, NodeId v) {
    if (const PathRun* run = a.memo.find(v)) return *run;
    const std::size_t first = arena_.paths.size();
    const std::size_t k = opts_.paths_per_meta_path;
    const NodeId from = a.to_root ? v : a.node;
    const NodeId to = a.to_root ? a.node : v;
    if (v == a.node) {
      arena_.push_trivial(v);
    } else if (opts_.min_cost_path_instantiation) {
      if (k <= 1) {
        if (oracle_.settle(*a.sp, v)) push_tree_path(*a.sp, v, a.to_root);
      } else {
        for (const graph::Path& p : oracle_.k_shortest(from, to, k)) {
          arena_.push(p);
        }
      }
    } else {
      push_tree_walk(*a.tree, v, a.to_root);
      if (k > 1) {
        add_alternatives(
            oracle_.k_shortest_filtered(from, to, k, a.usable.view()), first);
      }
    }
    return a.memo.put(v, screen(first));
  }

  /// Sets in \p mask exactly the links with both ends in \p tree that can
  /// carry the flow.
  void fill_tree_mask(const SearchTree& tree, graph::EdgeMaskBuffer& mask) {
    mask.assign(ctx_.g.num_edges(), false);
    for (graph::EdgeId e = 0; e < ctx_.g.num_edges(); ++e) {
      const graph::Edge& ed = ctx_.g.edge(e);
      if (ctx_.ledger.link_can_carry(e, ctx_.rate) && tree.contains(ed.u) &&
          tree.contains(ed.v)) {
        mask.set(e);
      }
    }
  }

  /// Father-pointer walk v → root of \p tree, reversed in place for a
  /// root → v path. The cost stays the to-root sum either way.
  void push_tree_walk(const SearchTree& tree, NodeId v, bool to_root) {
    const PathSpan s = arena_.open();
    const double cost =
        tree.append_path_to_root(ctx_.g, v, arena_.nodes, arena_.edges);
    if (!to_root) arena_.reverse_tail(s);
    arena_.close(s, cost);
  }

  /// Shortest-path-tree path root → \p v (as path_to builds it), reversed
  /// in place for v → root. Requires v settled and reached.
  void push_tree_path(const graph::LazyTree& t, NodeId v, bool to_root) {
    const PathSpan s = arena_.open();
    t.append_path_to(v, arena_.nodes, arena_.edges);
    if (to_root) arena_.reverse_tail(s);
    arena_.close(s, t.dist[v]);
  }

  /// Appends Yen alternatives that differ from the tree path at \p first,
  /// keeping at most paths_per_meta_path candidates in all.
  void add_alternatives(const std::vector<graph::Path>& alts,
                        std::size_t first) {
    for (const graph::Path& alt : alts) {
      if (arena_.paths.size() - first >= opts_.paths_per_meta_path) break;
      if (!std::ranges::equal(alt.nodes,
                              arena_.nodes_of(arena_.paths[first]))) {
        arena_.push(alt);
      }
    }
  }

  /// Capacity screen: every link of a candidate must individually carry
  /// the flow rate (the multi-use check happens on assembly). Survivors
  /// keep their order.
  PathRun screen(std::size_t first) {
    const auto dropped = std::remove_if(
        arena_.paths.begin() + static_cast<std::ptrdiff_t>(first),
        arena_.paths.end(), [this](const PathSpan& p) {
          for (graph::EdgeId e : arena_.edges_of(p)) {
            if (!ctx_.ledger.link_can_carry(e, ctx_.rate)) return true;
          }
          return false;
        });
    arena_.paths.erase(dropped, arena_.paths.end());
    return PathRun{static_cast<std::uint32_t>(first),
                   static_cast<std::uint32_t>(arena_.paths.size() - first)};
  }

  const BacktrackingOptions& opts_;
  const LayerContext& ctx_;
  PathOracle& oracle_;
  Arena& arena_;
  Anchor inter_;
  Anchor inner_;
  PathMemo final_memo_;
};

// Exact cost contribution of one layer sub-solution: vnf_cost + link_cost,
// rented VNFs plus link cost with the intra-group multicast discount of
// formula (9). Cost is separable per layer (the discount never crosses
// layers), so cumulative sums are exact.

/// VNF rental terms, summed in slot order.
double vnf_cost(const LayerContext& ctx, std::span<const NodeId> placement,
                std::span<const SlotId> slots) {
  double vnf = 0.0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const auto inst =
        ctx.net.find_instance(placement[i], ctx.index.slot_type(slots[i]));
    DAGSFC_ASSERT(inst.has_value());
    vnf += ctx.net.instance(*inst).price * ctx.z;
  }
  return vnf;
}

/// Link terms: the deduplicated inter-layer edges in ascending id order
/// (the group shares each link once), then the inner-layer edges in path
/// order. \p scratch is reused across calls.
double link_cost(const LayerContext& ctx, const Arena& arena,
                 std::span<const std::uint32_t> inter,
                 std::span<const std::uint32_t> inner,
                 std::vector<graph::EdgeId>& scratch) {
  scratch.clear();
  for (const std::uint32_t id : inter) {
    const auto edges = arena.edges_of(arena.paths[id]);
    scratch.insert(scratch.end(), edges.begin(), edges.end());
  }
  std::sort(scratch.begin(), scratch.end());
  scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
  double link = 0.0;
  for (graph::EdgeId e : scratch) link += ctx.net.link_price(e) * ctx.z;
  for (const std::uint32_t id : inner) {
    for (graph::EdgeId e : arena.edges_of(arena.paths[id])) {
      link += ctx.net.link_price(e) * ctx.z;
    }
  }
  return link;
}

/// Critical-path delay contribution of one layer sub-solution: slowest
/// branch (inter hops + VNF processing + inner hops) plus the merge step.
/// Matches core/delay.hpp's end_to_end_delay accumulation exactly.
double layer_delay(const LayerContext& ctx, const Arena& arena,
                   std::span<const std::uint32_t> inter,
                   std::span<const std::uint32_t> inner,
                   std::span<const SlotId> slots, const DelayModel& model) {
  const bool parallel = !inner.empty();
  double worst = 0.0;
  for (std::size_t i = 0; i < inter.size(); ++i) {
    double d = static_cast<double>(arena.paths[inter[i]].hops) *
               model.per_hop_ms;
    d += model.processing_ms(ctx.index.slot_type(slots[i]));
    if (parallel) {
      d += static_cast<double>(arena.paths[inner[i]].hops) * model.per_hop_ms;
    }
    worst = std::max(worst, d);
  }
  return worst + (parallel ? model.merger_ms : 0.0);
}

}  // namespace

SolveResult BacktrackingEngine::run(const ModelIndex& index,
                                    const net::CapacityLedger& ledger,
                                    TraceSink* trace,
                                    graph::SearchWorkspace* workspace) const {
  const Tracer tr(trace);
  const EmbeddingProblem& prob = index.problem();
  const net::Network& net = prob.net();
  const graph::Graph& g = net.topology();
  const sfc::DagSfc& dag = prob.dag();
  const net::VnfCatalog& catalog = net.catalog();
  const double rate = prob.flow.rate;
  const LayerContext ctx{index, ledger, net, g, rate, prob.flow.size};
  const std::size_t omega = dag.num_layers();

  SolveResult result;

  // All shortest-path questions go through the oracle, which consults the
  // ledger's epoch-keyed cache and tallies the observability counters. The
  // ring searches borrow its workspace too, so one buffer set serves the
  // whole solve.
  PathOracle oracle(g, ledger, rate, workspace);
  graph::SearchWorkspace& ws = oracle.workspace();

  // Per-solve state, reused across every parent and merger: the two search
  // trees, the arena every sub-solution points into, and scratch buffers.
  SearchTree fst;
  SearchTree bst;
  Arena arena;
  MetaPaths meta(opts_, ctx, oracle, arena, fst, bst);
  Coverage coverage(ledger, rate);
  std::vector<VnfTypeId> required;
  std::vector<SubSolution> children;  // all candidates of one parent
  std::vector<NodeId> merger_nodes;
  std::vector<NodeId> choice_nodes;   // per-VNF candidate hosts, back to back
  std::vector<std::uint32_t> choice_first;
  std::vector<std::uint32_t> choice_count;
  std::vector<std::uint32_t> assign_cursor;
  std::vector<NodeId> placement;
  std::vector<PathRun> runs;           // one allocation's path options
  std::vector<std::uint32_t> combo_sizes;
  std::vector<std::uint32_t> combo_cursor;
  std::vector<std::uint32_t> picks;   // inter ids, then inner ids
  std::vector<graph::EdgeId> edge_scratch;
  std::vector<SharedExpansion> shared(g.num_nodes());  // per end node
  std::vector<ExpansionStep> steps;  // recorded in the current layer pass

  /// A candidate child of the expansion under way: stores the current
  /// placement and picks in the arena, with the cost and delay its layer
  /// adds.
  const auto child_step = [&](NodeId end, double cost, double delay) {
    DAGSFC_CHECK(arena.picks.size() < kNoParent);
    ExpansionStep s;
    s.node = end;
    s.cost = cost;
    s.delay = delay;
    s.placement = static_cast<std::uint32_t>(arena.placements.size());
    s.picks = static_cast<std::uint32_t>(arena.picks.size());
    arena.placements.insert(arena.placements.end(), placement.begin(),
                            placement.end());
    arena.picks.insert(arena.picks.end(), picks.begin(), picks.end());
    return s;
  };

  /// Applies one expansion step to the parent \p ss at index \p parent of
  /// layer \p l's pool: a search is traced; a child within the delay budget
  /// joins \p children at the parent's cost plus its layer's. With \p rec,
  /// the parent is the first at a shared end node, and the step is recorded
  /// there for the others before it is applied.
  const auto apply = [&](const ExpansionStep& s, std::size_t l,
                         std::uint32_t parent, const SubSolution& ss,
                         SharedExpansion* rec) {
    if (rec != nullptr) {
      steps.push_back(s);
      DAGSFC_CHECK(steps.size() < kNoParent);
      rec->last = static_cast<std::uint32_t>(steps.size());
    }
    if (s.kind != ExpansionStep::Kind::Child) {
      if (!tr) return;
      SolveEvent e;
      const bool forward = s.kind == ExpansionStep::Kind::ForwardSearch;
      e.kind = forward ? TraceEventKind::ForwardSearch
                       : TraceEventKind::BackwardSearch;
      e.i0 = static_cast<std::int64_t>(l);
      e.i1 = static_cast<std::int64_t>(s.node);
      e.i2 = static_cast<std::int64_t>(s.searched);
      e.v0 = s.covered ? 1.0 : 0.0;
      if (forward) e.v1 = s.capped ? 1.0 : 0.0;
      tr(e);
      return;
    }
    const double cost = ss.cumulative_cost + s.cost;
    const double delay = ss.cumulative_delay + s.delay;
    if (opts_.delay_budget_ms && delay > *opts_.delay_budget_ms) return;
    SubSolution child;
    child.parent = parent;
    child.end_node = s.node;
    child.cumulative_cost = cost;
    child.cumulative_delay = delay;
    child.placement = s.placement;
    child.picks = s.picks;
    if (tr) {
      SolveEvent e;
      e.kind = TraceEventKind::CandidateChild;
      e.i0 = static_cast<std::int64_t>(l);
      e.i1 = static_cast<std::int64_t>(s.node);
      e.i2 = static_cast<std::int64_t>(parent);
      e.v0 = cost;
      tr(e);
    }
    children.push_back(child);
    ++result.expanded_sub_solutions;
  };

  // Layer 0 of the sub-solution tree: the source, at no cost (§4.4.2).
  std::vector<std::vector<SubSolution>> pools(omega + 1);
  {
    SubSolution root;
    root.end_node = prob.flow.source;
    pools[0].push_back(root);
  }

  for (std::size_t l = 0; l < omega; ++l) {
    DAGSFC_PHASE_SCOPE("backtracking/layer");
    const sfc::Layer& layer = dag.layer(l);
    const auto slots = index.layer_slots(l);
    std::vector<SubSolution>& out = pools[l + 1];
    const std::size_t width = layer.vnfs.size();

    required.assign(layer.vnfs.begin(), layer.vnfs.end());
    if (layer.has_merger()) required.push_back(catalog.merger());

    if (tr) {
      SolveEvent e;
      e.kind = TraceEventKind::LayerEnter;
      e.i0 = static_cast<std::int64_t>(l);
      e.i1 = static_cast<std::int64_t>(pools[l].size());
      tr(e);
    }

    // MBBE strategy (3): the sub-solution tree is an X_d-tree — only the
    // cheapest X_d children of each parent are inserted.
    auto prune_and_merge = [this, &tr, l](std::vector<SubSolution>& kids,
                                         std::vector<SubSolution>& dest) {
      const std::size_t generated = kids.size();
      if (opts_.x_d > 0 && kids.size() > opts_.x_d) {
        std::partial_sort(kids.begin(), kids.begin() + opts_.x_d, kids.end(),
                          [](const SubSolution& a, const SubSolution& b) {
                            return a.cumulative_cost < b.cumulative_cost;
                          });
        kids.resize(opts_.x_d);
      }
      if (tr && generated > 0) {
        SolveEvent e;
        e.kind = TraceEventKind::ChildrenPruned;
        e.i0 = static_cast<std::int64_t>(l);
        e.i1 = static_cast<std::int64_t>(generated);
        e.i2 = static_cast<std::int64_t>(kids.size());
        tr(e);
      }
      dest.insert(dest.end(), kids.begin(), kids.end());
    };

    // Pass 0 honors the X_max cap (MBBE strategy (1)); when a layer yields
    // nothing under the cap — e.g. very sparse deployments where the
    // required hosts sit beyond X_max nodes — pass 1 retries uncapped, so
    // the cap accelerates the common case without costing completeness
    // (the paper observes that "MBBE always results in a solution").
    for (int pass = 0; pass < 2; ++pass) {
    const std::size_t x_max_pass = pass == 0 ? opts_.x_max : 0;
    if (tr && pass == 1) {
      SolveEvent e;
      e.kind = TraceEventKind::UncappedRetry;
      e.i0 = static_cast<std::int64_t>(l);
      tr(e);
    }

    // Parents at a shared end node share its expansion: the first one
    // records the steps, the others replay them. An end node with a
    // single parent is expanded in place, unrecorded.
    for (const SubSolution& ss : pools[l]) shared[ss.end_node] = {};
    for (const SubSolution& ss : pools[l]) ++shared[ss.end_node].parents;
    steps.clear();

    for (std::size_t p = 0; p < pools[l].size(); ++p) {
      const auto parent = static_cast<std::uint32_t>(p);
      const SubSolution& ss = pools[l][p];
      const NodeId start = ss.end_node;
      SharedExpansion& at = shared[start];
      children.clear();
      if (at.first != kNoParent) {
        for (std::uint32_t i = at.first; i < at.last; ++i) {
          apply(steps[i], l, parent, ss, nullptr);
        }
        prune_and_merge(children, out);
        continue;
      }
      SharedExpansion* rec = nullptr;
      if (at.parents > 1) {
        rec = &at;
        at.first = at.last = static_cast<std::uint32_t>(steps.size());
      }
      // Every search outcome and candidate child of the expansion below.
      const auto note = [&](const ExpansionStep& s) {
        apply(s, l, parent, ss, rec);
      };

      // ---- Step 1: forward search --------------------------------------
      coverage.reset(required);
      const bool fwd_ok =
          ring_search(g, start, coverage, x_max_pass, {}, ws, fst);
      oracle.note_bfs();
      ExpansionStep forward = ExpansionStep::search(
          ExpansionStep::Kind::ForwardSearch, start, fst.size(), fwd_ok);
      forward.capped = x_max_pass > 0;
      note(forward);
      if (!fwd_ok) continue;

      meta.begin_parent(start);

      if (!layer.has_merger()) {
        // Single-VNF layer: each hosting node in the forward set is a
        // candidate sub-solution (one per alternative real-path); no
        // merger, no inner-layer meta-paths.
        const VnfTypeId t = layer.vnfs[0];
        for (NodeId v : fst.network_nodes()) {
          if (!ledger.node_offers(v, t, rate)) continue;
          const PathRun run = meta.inter(v);
          placement.assign(1, v);
          const double vnf = vnf_cost(ctx, placement, slots);
          for (std::uint32_t j = 0; j < run.count; ++j) {
            picks.assign(1, run.first + j);
            note(child_step(
                v, vnf + link_cost(ctx, arena, picks, {}, edge_scratch),
                layer_delay(ctx, arena, picks, {}, slots, opts_.delay_model)));
          }
        }
        prune_and_merge(children, out);
        continue;
      }

      // ---- Steps 2–3: backward search per merger + candidate generation
      merger_nodes.clear();
      for (NodeId v : fst.network_nodes()) {
        if (ledger.node_offers(v, catalog.merger(), rate)) {
          merger_nodes.push_back(v);
        }
      }
      std::sort(merger_nodes.begin(), merger_nodes.end());

      for (NodeId m : merger_nodes) {
        coverage.reset(layer.vnfs);
        const bool bwd_ok = ring_search(
            g, m, coverage, 0, [&fst](NodeId v) { return fst.contains(v); },
            ws, bst);
        oracle.note_bfs();
        note(ExpansionStep::search(ExpansionStep::Kind::BackwardSearch, m,
                                   bst.size(), bwd_ok));
        if (!bwd_ok) continue;
        meta.begin_merger(m);

        // First-step candidates (§4.4.1 i): allocations of the layer's
        // parallel VNFs to backward-set nodes, enumerated lexicographically
        // over each VNF's sorted hosts.
        choice_nodes.clear();
        choice_first.assign(width, 0);
        choice_count.assign(width, 0);
        bool any_allocation = true;
        for (std::size_t i = 0; i < width; ++i) {
          choice_first[i] = static_cast<std::uint32_t>(choice_nodes.size());
          for (NodeId v : bst.network_nodes()) {
            if (ledger.node_offers(v, layer.vnfs[i], rate)) {
              choice_nodes.push_back(v);
            }
          }
          std::sort(choice_nodes.begin() + choice_first[i],
                    choice_nodes.end());
          choice_count[i] = static_cast<std::uint32_t>(choice_nodes.size() -
                                                       choice_first[i]);
          any_allocation = any_allocation && choice_count[i] > 0;
        }

        assign_cursor.assign(width, 0);
        std::size_t enumerated = 0;
        for (bool more = any_allocation;
             more && enumerated < opts_.max_assignments_per_pair;
             more = next_combination(assign_cursor, choice_count),
                  ++enumerated) {
          placement.clear();
          for (std::size_t i = 0; i < width; ++i) {
            placement.push_back(
                choice_nodes[choice_first[i] + assign_cursor[i]]);
          }

          // Candidate real-paths per meta-path of this allocation: the
          // second/third-step candidates of §4.4.1, capped by
          // max_path_combos.
          // Digit 2i picks slot i's inter path, digit 2i + 1 its inner one.
          runs.clear();
          combo_sizes.clear();
          bool ok = true;
          for (std::size_t i = 0; i < width && ok; ++i) {
            runs.push_back(meta.inter(placement[i]));
            runs.push_back(meta.inner(placement[i]));
            combo_sizes.push_back(runs[2 * i].count);
            combo_sizes.push_back(runs[2 * i + 1].count);
            ok = combo_sizes[2 * i] > 0 && combo_sizes[2 * i + 1] > 0;
          }
          if (!ok) continue;  // step iv: drop infeasible candidates

          placement.push_back(m);  // merger slot is last
          const double vnf = vnf_cost(ctx, placement, slots);
          combo_cursor.assign(2 * width, 0);
          picks.resize(2 * width);
          std::size_t combos = 0;
          for (bool more_paths = true;
               more_paths && combos < opts_.max_path_combos;
               more_paths = next_combination(combo_cursor, combo_sizes),
                    ++combos) {
            for (std::size_t i = 0; i < width; ++i) {
              const std::size_t d = 2 * i;
              picks[i] = runs[d].first + combo_cursor[d];
              picks[width + i] = runs[d + 1].first + combo_cursor[d + 1];
            }
            const std::span<const std::uint32_t> inter_picks(picks.data(),
                                                             width);
            const std::span<const std::uint32_t> inner_picks(
                picks.data() + width, width);
            note(child_step(
                m,
                vnf + link_cost(ctx, arena, inter_picks, inner_picks,
                                edge_scratch),
                layer_delay(ctx, arena, inter_picks, inner_picks, slots,
                            opts_.delay_model)));
          }
        }
      }

      prune_and_merge(children, out);
    }

    if (!out.empty() || opts_.x_max == 0) break;
    }  // retry pass

    if (out.empty()) {
      result.failure_reason =
          "no feasible sub-solution at layer " + std::to_string(l + 1);
      result.path_queries = oracle.counters();
      return result;
    }
    // Memory-overflow guard the paper lacks: keep the cheapest sub-solutions
    // when the pool exceeds the cap.
    if (opts_.max_pool > 0 && out.size() > opts_.max_pool) {
      if (tr) {
        SolveEvent e;
        e.kind = TraceEventKind::PoolPruned;
        e.i0 = static_cast<std::int64_t>(l);
        e.i1 = static_cast<std::int64_t>(out.size());
        e.i2 = static_cast<std::int64_t>(opts_.max_pool);
        tr(e);
      }
      std::nth_element(out.begin(), out.begin() + opts_.max_pool, out.end(),
                       [](const SubSolution& a, const SubSolution& b) {
                         return a.cumulative_cost < b.cumulative_cost;
                       });
      out.resize(opts_.max_pool);
    }
    if (tr) {
      SolveEvent e;
      e.kind = TraceEventKind::LayerDone;
      e.i0 = static_cast<std::int64_t>(l);
      e.i1 = static_cast<std::int64_t>(out.size());
      tr(e);
    }
  }

  // ---- Completion: ω-th end node → destination by min-cost path, pick the
  // cheapest complete feasible candidate (Algorithm 1 lines 9–11).
  DAGSFC_PHASE_SCOPE("backtracking/complete");
  Evaluator evaluator(index);
  double best_cost = graph::kInfCost;
  std::optional<EmbeddingSolution> best;

  for (const SubSolution& leaf : pools[omega]) {
    const PathRun hop = meta.final_hop(leaf.end_node, prob.flow.destination);
    if (hop.count == 0) continue;
    ++result.candidate_solutions;
    const PathSpan& final_hop = arena.paths[hop.first];

    if (opts_.delay_budget_ms) {
      const double total_delay =
          leaf.cumulative_delay +
          static_cast<double>(final_hop.hops) * opts_.delay_model.per_hop_ms;
      if (total_delay > *opts_.delay_budget_ms) continue;
    }

    // Quick lower-bound cut before full assembly.
    if (leaf.cumulative_cost + final_hop.cost * prob.flow.size >= best_cost) {
      continue;
    }

    // Assemble the complete solution by walking the parent chain.
    EmbeddingSolution sol;
    sol.placement.assign(index.num_slots(), graph::kInvalidNode);
    sol.inter_paths.resize(index.inter_paths().size());
    sol.inner_paths.resize(index.inner_paths().size());

    const SubSolution* cur = &leaf;
    for (std::size_t l = omega; l-- > 0;) {
      const auto slots = index.layer_slots(l);
      for (std::size_t i = 0; i < slots.size(); ++i) {
        sol.placement[slots[i]] = arena.placements[cur->placement + i];
      }
      const auto [ifirst, ilast] = index.inter_group_range(l);
      for (std::size_t i = ifirst; i < ilast; ++i) {
        sol.inter_paths[i] = arena.path(arena.picks[cur->picks + i - ifirst]);
      }
      const std::size_t inter_count = ilast - ifirst;
      const auto [nfirst, nlast] = index.inner_layer_range(l);
      for (std::size_t i = nfirst; i < nlast; ++i) {
        sol.inner_paths[i] =
            arena.path(arena.picks[cur->picks + inter_count + i - nfirst]);
      }
      cur = &pools[l][cur->parent];
    }
    const auto [dfirst, dlast] = index.inter_group_range(omega);
    DAGSFC_ASSERT(dlast - dfirst == 1);
    sol.inter_paths[dfirst] = arena.path(hop.first);

    DAGSFC_ASSERT(evaluator.validate(sol).empty());
    const ResourceUsage u = evaluator.usage(sol);
    if (!evaluator.feasible(u, ledger)) continue;
    const double c = evaluator.cost(u);
    if (tr) {
      SolveEvent e;
      e.kind = TraceEventKind::FinalCandidate;
      e.i0 = static_cast<std::int64_t>(leaf.end_node);
      e.v0 = c;
      e.v1 = c < best_cost ? 1.0 : 0.0;
      tr(e);
    }
    if (c < best_cost) {
      best_cost = c;
      best = std::move(sol);
    }
  }

  result.path_queries = oracle.counters();
  if (!best) {
    result.failure_reason = "no feasible complete solution";
    return result;
  }
  result.solution = std::move(best);
  result.cost = best_cost;
  return result;
}

SolveResult BbeEmbedder::do_solve(const ModelIndex& index,
                                  const net::CapacityLedger& ledger,
                                  Rng& /*rng*/, TraceSink* trace,
                                  graph::SearchWorkspace* workspace) const {
  return engine_.run(index, ledger, trace, workspace);
}

namespace {
BacktrackingOptions mbbe_engine_options(const MbbeOptions& opts) {
  BacktrackingOptions o;
  o.min_cost_path_instantiation = true;
  o.x_max = opts.x_max;
  o.x_d = opts.x_d;
  o.delay_budget_ms = opts.delay_budget_ms;
  o.delay_model = opts.delay_model;
  return o;
}
}  // namespace

MbbeEmbedder::MbbeEmbedder(const MbbeOptions& opts)
    : engine_(mbbe_engine_options(opts)) {
  DAGSFC_CHECK_MSG(opts.x_max >= 1, "X_max must be at least 1");
  DAGSFC_CHECK_MSG(opts.x_d >= 1, "X_d must be at least 1");
}

SolveResult MbbeEmbedder::do_solve(const ModelIndex& index,
                                   const net::CapacityLedger& ledger,
                                   Rng& /*rng*/, TraceSink* trace,
                                   graph::SearchWorkspace* workspace) const {
  return engine_.run(index, ledger, trace, workspace);
}

}  // namespace dagsfc::core
