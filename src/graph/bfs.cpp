#include "graph/bfs.hpp"

namespace dagsfc::graph {

RingExpander::RingExpander(const Graph& g, NodeId start, NodeFilter filter,
                           SearchWorkspace* ws)
    : g_(g), filter_(std::move(filter)), ws_(ws != nullptr ? ws : &own_ws_) {
  DAGSFC_CHECK(g.has_node(start));
  ws_->bfs_prepare(g);
  ws_->bfs_mark(start, kInvalidNode);
  ws_->bfs_visited().push_back(start);
  ws_->bfs_ring().push_back(start);
}

const std::vector<NodeId>& RingExpander::expand() {
  const CsrView csr = g_.csr();
  std::vector<NodeId>& ring = ws_->bfs_ring();
  std::vector<NodeId>& scratch = ws_->bfs_scratch();
  std::vector<NodeId>& visited = ws_->bfs_visited();
  scratch.clear();
  for (NodeId v : ring) {
    for (const Incidence& inc : csr.row(v)) {
      const NodeId w = inc.neighbor;
      if (ws_->bfs_seen(w)) continue;
      if (filter_ && !filter_(w)) continue;
      ws_->bfs_mark(w, v);
      scratch.push_back(w);
      visited.push_back(w);
    }
  }
  ring.swap(scratch);
  ++iterations_;
  return ring;
}

}  // namespace dagsfc::graph
