#pragma once

// Test references for the cut-function kernel: aig::cut_function and
// aig::try_cut_function as they ran before they moved onto machine words,
// kept verbatim — a hash map of heap TruthTables filled by a post-order
// walk, after a std::find validation walk. test_aig compares the library
// with them on random AIGs, so a change in which cuts are rejected or in
// the function of an accepted cut fails a test instead of silently
// changing the front end's rewrites.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "aig/aig.hpp"
#include "aig/cuts.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::aig::reference {

inline tt::TruthTable cut_function(const Aig& aig, std::uint32_t root,
                                   const Cut& cut) {
  const auto k = static_cast<unsigned>(cut.leaves.size());
  std::unordered_map<std::uint32_t, tt::TruthTable> memo;
  for (unsigned i = 0; i < k; ++i) {
    memo[cut.leaves[i]] = tt::TruthTable::projection(k, i);
  }
  // The constant node may appear as a leaf only in degenerate cones; give
  // it its semantics if not already a leaf.
  if (!memo.count(0)) {
    memo[0] = tt::TruthTable::constant(k, false);
  }

  // Iterative post-order evaluation.
  std::vector<std::uint32_t> stack{root};
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    if (memo.count(n)) {
      stack.pop_back();
      continue;
    }
    if (!aig.is_and(n)) {
      throw std::invalid_argument("cut_function: cone escapes the cut");
    }
    const std::uint32_t a = aig.fanin0(n).node();
    const std::uint32_t b = aig.fanin1(n).node();
    bool ready = true;
    if (!memo.count(a)) {
      stack.push_back(a);
      ready = false;
    }
    if (!memo.count(b)) {
      stack.push_back(b);
      ready = false;
    }
    if (!ready) {
      continue;
    }
    stack.pop_back();
    const Signal sa = aig.fanin0(n);
    const Signal sb = aig.fanin1(n);
    const tt::TruthTable ta =
        sa.complemented() ? ~memo[sa.node()] : memo[sa.node()];
    const tt::TruthTable tb =
        sb.complemented() ? ~memo[sb.node()] : memo[sb.node()];
    memo[n] = ta & tb;
  }
  return memo[root];
}

inline std::optional<tt::TruthTable> try_cut_function(const Aig& aig,
                                                      std::uint32_t root,
                                                      const Cut& cut) {
  // Validate the cone does not escape before computing.
  std::vector<std::uint32_t> stack{root};
  std::vector<std::uint32_t> seen;
  auto is_leaf = [&](std::uint32_t n) {
    return std::binary_search(cut.leaves.begin(), cut.leaves.end(), n);
  };
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (is_leaf(n) || n == 0 ||
        std::find(seen.begin(), seen.end(), n) != seen.end()) {
      continue;
    }
    if (!aig.is_and(n)) {
      return std::nullopt; // hit a PI that is not a leaf
    }
    seen.push_back(n);
    if (seen.size() > 256) {
      return std::nullopt; // degenerate / stale cut
    }
    stack.push_back(aig.fanin0(n).node());
    stack.push_back(aig.fanin1(n).node());
  }
  return reference::cut_function(aig, root, cut);
}

} // namespace rcgp::aig::reference
