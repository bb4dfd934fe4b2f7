#include "graph/path_cache.hpp"

#include <algorithm>

#include "graph/yen.hpp"

namespace dagsfc::graph {

void PathCache::index_add(ContextIndex& index, std::uint64_t context) {
  const auto it = std::lower_bound(
      index.begin(), index.end(), context,
      [](const auto& p, std::uint64_t c) { return p.first < c; });
  if (it != index.end() && it->first == context) {
    ++it->second;
  } else {
    index.insert(it, {context, 1});
  }
}

void PathCache::index_remove(ContextIndex& index, std::uint64_t context,
                             std::size_t n) {
  const auto it = std::lower_bound(
      index.begin(), index.end(), context,
      [](const auto& p, std::uint64_t c) { return p.first < c; });
  if (it == index.end() || it->first != context) return;
  it->second = it->second > n ? it->second - n : 0;
  if (it->second == 0) index.erase(it);
}

std::vector<std::uint64_t> PathCache::flipped_contexts(std::int64_t before,
                                                       std::int64_t after) {
  const auto [low, high] = std::minmax(before, after);
  std::vector<std::uint64_t> out;
  for (const ContextIndex* index : {&tree_contexts_, &yen_contexts_}) {
    for (const auto& [context, count] : *index) {
      const auto threshold = static_cast<std::int64_t>(context);
      if (high >= threshold && threshold > low) out.push_back(context);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  inval_.flips += out.size();
  return out;
}

template <typename Store>
void PathCache::make_room(Store& store, ContextIndex& index,
                          PathQueryCounters& c) {
  if (store.size() < max_entries_) return;
  c.evictions += store.size();
  store.clear();
  index.clear();
}

std::shared_ptr<LazyTree> PathCache::search(const Graph& g, NodeId source,
                                            std::uint64_t context,
                                            PathQueryCounters& c) {
  const TreeKey key{context, source};
  if (auto it = trees_.find(key); it != trees_.end()) {
    ++c.cache_hits;
    return it->second;
  }
  ++c.cache_misses;
  ++c.dijkstra_calls;
  auto entry = std::make_shared<LazyTree>(g, source);
  make_room(trees_, tree_contexts_, c);
  trees_.emplace(key, entry);
  index_add(tree_contexts_, context);
  return entry;
}

std::shared_ptr<const LazyTree> PathCache::tree(const Graph& g, NodeId source,
                                                std::uint64_t context,
                                                const EdgeMask* mask,
                                                PathQueryCounters& c) {
  auto entry = search(g, source, context, c);
  c.nodes_settled += entry->settle_all(g, mask);
  return entry;
}

std::shared_ptr<const std::vector<Path>> PathCache::k_paths(
    const Graph& g, NodeId source, NodeId target, std::size_t k,
    std::uint64_t context, const EdgeMask* mask, SearchWorkspace& ws,
    PathQueryCounters& c) {
  const YenKey key{context, source, target, k};
  if (auto it = yens_.find(key); it != yens_.end()) {
    ++c.cache_hits;
    return it->second;
  }
  ++c.cache_misses;
  ++c.yen_calls;
  auto entry = std::make_shared<const std::vector<Path>>(
      k_shortest_paths(g, source, target, k, mask, ws));
  make_room(yens_, yen_contexts_, c);
  yens_.emplace(key, entry);
  index_add(yen_contexts_, context);
  return entry;
}

void PathCache::evict_tree_context(std::uint64_t context) {
  auto it = trees_.lower_bound(TreeKey{context, 0});
  std::size_t n = 0;
  while (it != trees_.end() && it->first.context == context) {
    it->second->invalidate();
    it = trees_.erase(it);
    ++n;
  }
  inval_.trees_evicted += n;
  index_remove(tree_contexts_, context, n);
}

void PathCache::evict_yen_context(std::uint64_t context) {
  auto it = yens_.lower_bound(YenKey{context, 0, 0, 0});
  std::size_t n = 0;
  while (it != yens_.end() && it->first.context == context) {
    it = yens_.erase(it);
    ++n;
  }
  inval_.yens_evicted += n;
  index_remove(yen_contexts_, context, n);
}

void PathCache::on_link_debit(EdgeId e, NodeId u, NodeId v,
                              std::int64_t before, std::int64_t after) {
  ++inval_.link_debits;
  // In the common case no cached rate flips and nothing is walked.
  for (const std::uint64_t context : flipped_contexts(before, after)) {
    // Trees: only entries whose parent-edge footprint (final or tentative)
    // contains e can change (exact — see the file comment); walk just this
    // context's range.
    auto it = trees_.lower_bound(TreeKey{context, 0});
    while (it != trees_.end() && it->first.context == context) {
      if (in_footprint(*it->second, e, u, v)) {
        it->second->invalidate();
        it = trees_.erase(it);
        ++inval_.trees_evicted;
        index_remove(tree_contexts_, context, 1);
      } else {
        ++it;
      }
    }
    // Yen lists at a flipped rate go wholesale (spur-masking).
    evict_yen_context(context);
  }
}

void PathCache::on_link_credit(EdgeId /*e*/, std::int64_t before,
                               std::int64_t after) {
  ++inval_.link_credits;
  for (const std::uint64_t context : flipped_contexts(before, after)) {
    evict_tree_context(context);
    evict_yen_context(context);
  }
}

}  // namespace dagsfc::graph
