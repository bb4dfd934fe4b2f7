#pragma once
/// \file solver_detail.hpp
/// Small helpers shared by the optimality-grade solvers (LAYERED, and the
/// EXACT test oracle in reference/core/): trivial single-node paths, path
/// extraction inside a fixed Steiner-tree edge set, and the odometer-style
/// assignment enumerator. They were file-local to exact.cpp until the
/// layered embedder needed the identical reconstruction arithmetic — both
/// solvers must produce the same real-paths from the same decisions for
/// their costs to agree bitwise.

#include <algorithm>
#include <map>
#include <queue>
#include <vector>

#include "graph/graph.hpp"

namespace dagsfc::core::detail {

inline graph::Path trivial_path(graph::NodeId v) {
  graph::Path p;
  p.nodes.push_back(v);
  return p;
}

/// Path a→b inside a fixed edge set (the Steiner tree), by BFS. The tree is
/// connected over its terminals, so the path exists whenever both endpoints
/// touch the tree (or a == b).
inline graph::Path path_in_tree(const graph::Graph& g,
                                const std::vector<graph::EdgeId>& tree,
                                graph::NodeId a, graph::NodeId b) {
  if (a == b) return trivial_path(a);
  std::map<graph::NodeId,
           std::vector<std::pair<graph::NodeId, graph::EdgeId>>>
      adj;
  for (graph::EdgeId e : tree) {
    const auto& ed = g.edge(e);
    adj[ed.u].emplace_back(ed.v, e);
    adj[ed.v].emplace_back(ed.u, e);
  }
  std::map<graph::NodeId, std::pair<graph::NodeId, graph::EdgeId>> parent;
  std::queue<graph::NodeId> q;
  q.push(a);
  parent[a] = {a, graph::kInvalidEdge};
  while (!q.empty()) {
    const graph::NodeId v = q.front();
    q.pop();
    if (v == b) break;
    for (const auto& [w, e] : adj[v]) {
      if (!parent.count(w)) {
        parent[w] = {v, e};
        q.push(w);
      }
    }
  }
  DAGSFC_CHECK_MSG(parent.count(b), "endpoints not connected by the tree");
  graph::Path p;
  graph::NodeId v = b;
  while (v != a) {
    p.nodes.push_back(v);
    p.edges.push_back(parent[v].second);
    v = parent[v].first;
  }
  p.nodes.push_back(a);
  std::reverse(p.nodes.begin(), p.nodes.end());
  std::reverse(p.edges.begin(), p.edges.end());
  p.cost = g.path_cost(p);
  return p;
}

/// Odometer over per-slot host choices: visits the full cross product in
/// lexicographic order (last slot fastest), or nothing when a slot has no
/// candidates.
class Enumerator {
 public:
  explicit Enumerator(std::vector<std::vector<graph::NodeId>> choices)
      : choices_(std::move(choices)), cursor_(choices_.size(), 0) {
    for (const auto& c : choices_) {
      if (c.empty()) done_ = true;
    }
  }
  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] std::vector<graph::NodeId> current() const {
    std::vector<graph::NodeId> out(choices_.size());
    for (std::size_t i = 0; i < choices_.size(); ++i) {
      out[i] = choices_[i][cursor_[i]];
    }
    return out;
  }
  void advance() {
    for (std::size_t i = choices_.size(); i-- > 0;) {
      if (++cursor_[i] < choices_[i].size()) return;
      cursor_[i] = 0;
    }
    done_ = true;
  }

 private:
  std::vector<std::vector<graph::NodeId>> choices_;
  std::vector<std::size_t> cursor_;
  bool done_ = false;
};

}  // namespace dagsfc::core::detail
