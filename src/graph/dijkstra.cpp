#include "graph/dijkstra.hpp"

namespace dagsfc::graph {

namespace {

/// Appends the parent chain source → \p target, read through \p link(v)
/// (a ParentLink), to the caller's buffers: one walk to count hops, then
/// exact-size fills backwards — no push_back growth, no reverse.
template <typename LinkOf>
void append_chain(NodeId source, NodeId target, const LinkOf& link,
                  std::vector<NodeId>& nodes, std::vector<EdgeId>& edges) {
  std::size_t hops = 0;
  for (NodeId v = target; v != source; v = link(v).parent) ++hops;
  const std::size_t n0 = nodes.size();
  const std::size_t e0 = edges.size();
  nodes.resize(n0 + hops + 1);
  edges.resize(e0 + hops);
  NodeId v = target;
  for (std::size_t i = hops; i > 0; --i) {
    const ParentLink l = link(v);
    nodes[n0 + i] = v;
    edges[e0 + i - 1] = l.edge;
    v = l.parent;
  }
  nodes[n0] = source;
}

/// The flat relaxation loop. Every search runs it: one-shot searches over a
/// SearchWorkspace and the path cache's resumable LazyTrees. Templated on
/// the label store, on the edge-admission test (so the unmasked
/// instantiation carries no per-edge branch on a mask pointer) and on the
/// stop test. The scan streams the CSR incidence and weight arrays in
/// lockstep — the only random access left per arc is the neighbor's dist
/// slot.
///
/// Before settling the next final node — the heap's top once stale entries
/// are dropped — the loop asks stop(top). On true it returns with that node
/// still on the heap and its row unscanned, so calling it again on the same
/// labels and heap resumes exactly where it stopped: the pops of all calls
/// together are the pops of one uninterrupted run. Returns the number of
/// nodes settled (rows scanned).
///
/// Bit-identity with reference::run_dijkstra: the loop structure (pop →
/// stale check → stop check → relax on strict improvement) is the same, CSR
/// rows replay the adjacency lists in insertion order, and SearchHeap pops
/// in the same (dist, node) lexicographic order as the seed's
/// std::priority_queue. Since a node is only re-pushed with a strictly
/// smaller dist, all live heap entries are distinct, so *any* correct
/// min-heap pops the identical sequence — neither the heap's layout nor its
/// integer key encoding can change a parent, a distance, or a tie-break.
template <typename Labels, typename Allow, typename Stop>
std::size_t settle_loop(const Graph& g, Labels& labels, SearchHeap& heap,
                        const Allow& allow, const Stop& stop) {
  const CsrView csr = g.csr();
  const std::uint32_t* const off = csr.offsets.data();
  const Incidence* const inc = csr.incidence.data();
  const double* const wt = csr.weights.data();
  std::size_t settled = 0;
  while (!heap.empty()) {
    const SearchHeap::Item top = heap.top();
    if (top.key > labels.dist_unchecked(top.node)) {  // stale entry
      heap.pop();
      continue;
    }
    if (stop(top)) break;
    heap.pop();
    ++settled;
    const double d = top.key;
    const NodeId v = top.node;
    const std::uint32_t row_end = off[v + 1];
    for (std::uint32_t s = off[v]; s != row_end; ++s) {
      const Incidence in = inc[s];
      if (!allow(in.edge)) continue;
      const double nd = d + wt[s];
      if (nd < labels.dist_if_live(in.neighbor)) {
        labels.relax(in.neighbor, nd, v, in.edge);
        heap.push(nd, in.neighbor);
      }
    }
  }
  return settled;
}

/// settle_loop over \p mask's edges (null ⇒ all). The entry points have
/// checked that the mask covers the graph.
template <typename Labels, typename Stop>
std::size_t settle_masked(const Graph& g, Labels& labels, SearchHeap& heap,
                          const EdgeMask* mask, const Stop& stop) {
  if (mask == nullptr) {
    return settle_loop(
        g, labels, heap, [](EdgeId) { return true; }, stop);
  }
  const EdgeMask m = *mask;
  return settle_loop(
      g, labels, heap, [m](EdgeId e) { return m.allows(e); }, stop);
}

}  // namespace

std::size_t dijkstra_into(const Graph& g, NodeId source, SearchWorkspace& ws,
                          const EdgeMask* mask, NodeId stop_at) {
  DAGSFC_CHECK(g.has_node(source));
  check_covers(mask, g);
  ws.prepare(g);
  ws.start(source);
  return settle_masked(g, ws, ws.heap(), mask,
                       [stop_at](SearchHeap::Item top) {
                         return top.node == stop_at;
                       });
}

std::optional<Path> extract_path(const SearchWorkspace& ws, NodeId target) {
  if (!ws.reached(target)) return std::nullopt;
  Path p;
  p.cost = ws.dist_unchecked(target);
  append_chain(
      ws.source(), target,
      [&ws](NodeId v) { return ParentLink{ws.parent(v), ws.parent_edge(v)}; },
      p.nodes, p.edges);
  return p;
}

std::optional<Path> min_cost_path(const Graph& g, NodeId source, NodeId target,
                                  SearchWorkspace& ws, const EdgeMask* mask) {
  DAGSFC_CHECK(g.has_node(target));
  dijkstra_into(g, source, ws, mask, target);
  return extract_path(ws, target);
}

// --- resumable tier --------------------------------------------------------

namespace {

/// A LazyTree's label arrays in settle_loop's label-store shape. The arrays
/// belong to one search, so there are no generation stamps: an unreached
/// node simply reads kInfCost.
struct TreeLabels {
  double* dist;
  ParentLink* links;

  [[nodiscard]] double dist_unchecked(NodeId v) const { return dist[v]; }
  [[nodiscard]] double dist_if_live(NodeId v) const { return dist[v]; }
  void relax(NodeId v, double d, NodeId par, EdgeId via) {
    dist[v] = d;
    links[v] = ParentLink{par, via};
  }
};

}  // namespace

LazyTree::LazyTree(const Graph& g, NodeId src)
    : source(src),
      dist(g.num_nodes(), kInfCost),
      links_(g.num_nodes(), ParentLink{kInvalidNode, kInvalidEdge}) {
  DAGSFC_CHECK(g.has_node(src));
  // Room for one live entry per node. Stale entries can outgrow it (the
  // worst case is one push per successful relaxation, 2|E| + 1), but no
  // search on the Table 2 substrates did, and an entry lives as long as its
  // cache slot: reserving the worst case would multiply its size.
  heap_.reserve(g.num_nodes() + 1);
  dist[src] = 0.0;
  heap_.push(0.0, src);
}

bool LazyTree::is_final(NodeId v) const {
  // Pops come in non-decreasing key order and a relaxation adds a
  // non-negative weight to a popped key, so no later write can go below
  // the smallest key on the heap: once that reaches dist[v], v's label
  // (relaxations improve strictly) is final.
  return complete() || heap_.top().key >= dist[v];
}

template <typename Stop>
std::size_t LazyTree::resume(const Graph& g, const EdgeMask* mask,
                             const Stop& stop) {
  DAGSFC_CHECK_MSG(!invalidated_, "cannot resume an invalidated search");
  DAGSFC_CHECK(g.num_nodes() == dist.size());
  TreeLabels labels{dist.data(), links_.data()};
  const std::size_t settled = settle_masked(g, labels, heap_, mask, stop);
  if (complete()) heap_.release();
  return settled;
}

std::size_t LazyTree::settle(const Graph& g, NodeId target,
                             const EdgeMask* mask) {
  DAGSFC_CHECK(target < dist.size());
  check_covers(mask, g);
  if (is_final(target)) return 0;
  return resume(g, mask, [this, target](SearchHeap::Item top) {
    return top.key >= dist[target];  // is_final(target)
  });
}

std::size_t LazyTree::settle_all(const Graph& g, const EdgeMask* mask) {
  check_covers(mask, g);
  if (complete()) return 0;
  return resume(g, mask, [](SearchHeap::Item) { return false; });
}

std::optional<Path> LazyTree::path_to(NodeId target) const {
  DAGSFC_ASSERT(is_final(target));
  if (!reached(target)) return std::nullopt;
  Path p;
  p.cost = dist[target];
  append_path_to(target, p.nodes, p.edges);
  return p;
}

void LazyTree::append_path_to(NodeId target, std::vector<NodeId>& nodes,
                              std::vector<EdgeId>& edges) const {
  DAGSFC_CHECK(reached(target));
  DAGSFC_ASSERT(is_final(target));
  append_chain(
      source, target, [this](NodeId v) { return links_[v]; }, nodes, edges);
}

}  // namespace dagsfc::graph
