#pragma once
/// \file edge_mask.hpp
/// Flat bitset over edge ids — the one way a search is told which edges it
/// may traverse (links that can carry a flow, links inside a search tree,
/// a Yen spur's surviving links).
///
/// A kernel answers "may this search traverse edge e?" with one inlined
/// word load and bit test, and a mask buffer is reusable across searches:
/// Yen's spur loops rebuild one buffer per spur (word-copy of the base
/// mask, then clear the banned bits). Callers fill their masks once per
/// question: the PathOracle's usable-links mask once per ledger epoch, the
/// backtracking engine's tree mask once per search-tree root. Every search
/// entry point checks the mask's size once (check_covers()), so the per-arc
/// probe needs no bounds check.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace dagsfc::graph {

/// Non-owning view over a mask buffer; bit e set ⇔ edge e is traversable.
/// Cheap to copy (pointer + size). No bounds checks in allows() — the
/// kernels only probe ids below the edge count check_covers() verified.
class EdgeMask {
 public:
  EdgeMask() = default;
  EdgeMask(const std::uint64_t* words, std::size_t num_edges)
      : words_(words), num_edges_(num_edges) {}

  [[nodiscard]] bool allows(EdgeId e) const {
    return (words_[e >> 6] >> (e & 63)) & 1u;
  }
  [[nodiscard]] std::size_t num_edges() const noexcept { return num_edges_; }
  [[nodiscard]] const std::uint64_t* words() const noexcept { return words_; }

 private:
  const std::uint64_t* words_ = nullptr;
  std::size_t num_edges_ = 0;
};

/// The size check every search entry point makes once: \p mask (null ⇒
/// every edge usable) holds a bit for each of \p g's edge ids. Throws
/// ContractViolation when it is shorter.
inline void check_covers(const EdgeMask* mask, const Graph& g) {
  DAGSFC_CHECK_MSG(mask == nullptr || mask->num_edges() >= g.num_edges(),
                   "edge mask shorter than the graph's edge count");
}

/// Owning, reusable mask storage. assign()/copy_from() only allocate when
/// the edge count grows beyond the current capacity, so warm reuse across
/// searches is allocation-free.
class EdgeMaskBuffer {
 public:
  /// Sizes the buffer for \p num_edges bits, all set to \p value.
  void assign(std::size_t num_edges, bool value) {
    num_edges_ = num_edges;
    words_.assign(word_count(num_edges), value ? ~std::uint64_t{0} : 0);
    trim_tail();
  }

  void copy_from(const EdgeMaskBuffer& other) {
    num_edges_ = other.num_edges_;
    words_.assign(other.words_.begin(), other.words_.end());
  }

  /// Word-copy of a view (e.g. Yen re-seeding a spur mask from its base).
  void copy_from(const EdgeMask& other) {
    num_edges_ = other.num_edges();
    words_.assign(other.words(), other.words() + word_count(num_edges_));
  }

  void set(EdgeId e) {
    DAGSFC_ASSERT(e < num_edges_);
    words_[e >> 6] |= std::uint64_t{1} << (e & 63);
  }
  void clear(EdgeId e) {
    DAGSFC_ASSERT(e < num_edges_);
    words_[e >> 6] &= ~(std::uint64_t{1} << (e & 63));
  }
  [[nodiscard]] bool allows(EdgeId e) const {
    DAGSFC_ASSERT(e < num_edges_);
    return (words_[e >> 6] >> (e & 63)) & 1u;
  }

  [[nodiscard]] std::size_t num_edges() const noexcept { return num_edges_; }
  [[nodiscard]] EdgeMask view() const {
    return EdgeMask{words_.data(), num_edges_};
  }

 private:
  static std::size_t word_count(std::size_t bits) { return (bits + 63) / 64; }

  /// Keeps bits past num_edges_ zero so whole-word operations stay exact.
  void trim_tail() {
    const std::size_t tail = num_edges_ & 63;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (std::uint64_t{1} << tail) - 1;
    }
  }

  std::vector<std::uint64_t> words_;
  std::size_t num_edges_ = 0;
};

}  // namespace dagsfc::graph
