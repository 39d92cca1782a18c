#include "aig/cuts.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace rcgp::aig {

namespace {

/// True if the sorted leaf set `a` is a subset of `b`.
bool subset_of(const std::vector<std::uint32_t>& a,
               const std::vector<std::uint32_t>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

/// Merge two sorted leaf sets; returns false if the union exceeds `limit`.
bool merge_leaves(const std::vector<std::uint32_t>& a,
                  const std::vector<std::uint32_t>& b, unsigned limit,
                  std::vector<std::uint32_t>& out) {
  out.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    std::uint32_t next;
    if (j >= b.size() || (i < a.size() && a[i] <= b[j])) {
      next = a[i];
      if (j < b.size() && b[j] == next) {
        ++j;
      }
      ++i;
    } else {
      next = b[j];
      ++j;
    }
    if (out.size() == limit) {
      return false;
    }
    out.push_back(next);
  }
  return true;
}

/// Adds the cut with `leaves` unless an existing cut dominates it, after
/// removing the cuts it dominates. A Cut is built only when one is kept.
void add_cut_filtered(std::vector<Cut>& cuts,
                      const std::vector<std::uint32_t>& leaves,
                      unsigned max_cuts) {
  for (const auto& c : cuts) {
    if (subset_of(c.leaves, leaves)) {
      return;
    }
  }
  cuts.erase(std::remove_if(
                 cuts.begin(), cuts.end(),
                 [&](const Cut& c) { return subset_of(leaves, c.leaves); }),
             cuts.end());
  if (cuts.size() < max_cuts) {
    cuts.push_back(Cut{leaves});
  }
}

} // namespace

bool Cut::dominates(const Cut& other) const {
  // `this` dominates `other` if this->leaves ⊆ other.leaves.
  return subset_of(leaves, other.leaves);
}

std::vector<std::vector<Cut>> enumerate_cuts(const Aig& aig,
                                             const CutParams& params) {
  std::vector<std::vector<Cut>> cuts(aig.num_nodes());
  cuts[0].push_back(Cut{{0}});
  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    cuts[aig.pi_at(i)].push_back(Cut{{aig.pi_at(i)}});
  }
  std::vector<std::uint32_t> merged;
  for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
    if (!aig.is_and(n) || aig.is_replaced(n)) {
      continue;
    }
    const std::uint32_t a = aig.fanin0(n).node();
    const std::uint32_t b = aig.fanin1(n).node();
    auto& mine = cuts[n];
    for (const auto& ca : cuts[a]) {
      for (const auto& cb : cuts[b]) {
        if (!merge_leaves(ca.leaves, cb.leaves, params.max_leaves, merged)) {
          continue;
        }
        add_cut_filtered(mine, merged, params.max_cuts_per_node);
      }
    }
    // Trivial cut last, always present.
    mine.push_back(Cut{{n}});
  }
  return cuts;
}

std::uint64_t* CutFunctions::assign(std::uint32_t n) {
  slot_[n] = used_;
  const std::size_t end = (std::size_t{used_} + 1) * width_;
  if (words_.size() < end) {
    words_.resize(std::max(end, 2 * words_.size()));
  }
  return words_.data() + std::size_t{used_++} * width_;
}

const std::uint64_t* CutFunctions::compute(
    const Aig& aig, std::uint32_t root, std::span<const std::uint32_t> leaves,
    std::size_t max_cone) {
  const auto k = static_cast<unsigned>(leaves.size());
  width_ = cut_table_words(k);
  used_ = 0;
  if (stamp_.size() < aig.num_nodes()) {
    stamp_.resize(aig.num_nodes(), 0);
    slot_.resize(aig.num_nodes(), 0);
  }
  if (++epoch_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }

  for (unsigned i = 0; i < k; ++i) {
    stamp_[leaves[i]] = epoch_;
    std::uint64_t* w = assign(leaves[i]);
    for (std::size_t j = 0; j < width_; ++j) {
      w[j] = i < 6 ? tt::kProjection[i]
                   : ((j >> (i - 6)) & 1) ? ~std::uint64_t{0} : 0;
    }
  }
  // The constant node may appear in degenerate cones; give it its
  // semantics if not already a leaf.
  if (stamp_[0] != epoch_) {
    stamp_[0] = epoch_;
    std::fill_n(assign(0), width_, 0);
  }

  // Depth-first post-order: a node is counted (and checked) when first
  // reached, and evaluated when the walk comes back to it.
  std::size_t cone = 0;
  stack_.assign(1, root);
  while (!stack_.empty()) {
    const std::uint32_t n = stack_.back();
    if (stamp_[n] != epoch_) {
      if (!aig.is_and(n) || ++cone > max_cone) {
        return nullptr;
      }
      stamp_[n] = epoch_;
      slot_[n] = kPending;
      for (const Signal f : {aig.fanin0(n), aig.fanin1(n)}) {
        if (stamp_[f.node()] != epoch_) {
          stack_.push_back(f.node());
        }
      }
      continue;
    }
    stack_.pop_back();
    if (slot_[n] != kPending) {
      continue; // a leaf, the constant, or evaluated on another path
    }
    const Signal a = aig.fanin0(n);
    const Signal b = aig.fanin1(n);
    std::uint64_t* w = assign(n);
    const std::uint64_t* wa = words_.data() + slot_[a.node()] * width_;
    const std::uint64_t* wb = words_.data() + slot_[b.node()] * width_;
    const std::uint64_t ca = a.complemented() ? ~std::uint64_t{0} : 0;
    const std::uint64_t cb = b.complemented() ? ~std::uint64_t{0} : 0;
    for (std::size_t j = 0; j < width_; ++j) {
      w[j] = (wa[j] ^ ca) & (wb[j] ^ cb);
    }
  }
  return words_.data() + slot_[root] * width_;
}

tt::TruthTable cut_table(const std::uint64_t* words, unsigned leaves) {
  tt::TruthTable t(leaves);
  for (std::size_t j = 0; j < t.num_words(); ++j) {
    t.set_word(j, words[j]);
  }
  return t;
}

tt::TruthTable cut_function(const Aig& aig, std::uint32_t root,
                            const Cut& cut) {
  CutFunctions functions;
  const std::uint64_t* words =
      functions.compute(aig, root, cut.leaves, SIZE_MAX);
  if (!words) {
    throw std::invalid_argument("cut_function: cone escapes the cut");
  }
  return cut_table(words, static_cast<unsigned>(cut.leaves.size()));
}

Cut reconvergent_cut(const Aig& aig, std::uint32_t root, unsigned max_leaves) {
  // Start with the fanins of root, repeatedly expand the leaf whose
  // expansion adds the fewest new leaves (cost = #fanins not already
  // leaves, minus one for the leaf removed).
  std::vector<std::uint32_t> leaves;
  auto add_leaf = [&](std::uint32_t n) {
    if (std::find(leaves.begin(), leaves.end(), n) == leaves.end()) {
      leaves.push_back(n);
    }
  };
  if (!aig.is_and(root)) {
    return Cut{{root}};
  }
  add_leaf(aig.fanin0(root).node());
  add_leaf(aig.fanin1(root).node());

  for (;;) {
    int best_cost = 1000;
    int best_index = -1;
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      const std::uint32_t n = leaves[i];
      if (!aig.is_and(n)) {
        continue;
      }
      const std::uint32_t a = aig.fanin0(n).node();
      const std::uint32_t b = aig.fanin1(n).node();
      int cost = -1; // removing n
      if (std::find(leaves.begin(), leaves.end(), a) == leaves.end()) {
        ++cost;
      }
      if (a != b &&
          std::find(leaves.begin(), leaves.end(), b) == leaves.end()) {
        ++cost;
      }
      if (cost < best_cost) {
        best_cost = cost;
        best_index = static_cast<int>(i);
      }
    }
    if (best_index < 0) {
      break; // all leaves are PIs/constants
    }
    if (leaves.size() + static_cast<std::size_t>(std::max(0, best_cost)) >
        max_leaves) {
      break;
    }
    const std::uint32_t n = leaves[static_cast<std::size_t>(best_index)];
    leaves.erase(leaves.begin() + best_index);
    add_leaf(aig.fanin0(n).node());
    add_leaf(aig.fanin1(n).node());
  }
  std::sort(leaves.begin(), leaves.end());
  return Cut{std::move(leaves)};
}

} // namespace rcgp::aig
