#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::aig {

/// A k-feasible cut: sorted leaf node ids. The cut's cone is the set of
/// nodes between the root and the leaves.
struct Cut {
  std::vector<std::uint32_t> leaves; // sorted, unique node ids

  bool operator==(const Cut&) const = default;
  /// True if `other`'s leaves are a subset of ours (we are dominated).
  bool dominates(const Cut& other) const;
};

struct CutParams {
  unsigned max_leaves = 4;
  unsigned max_cuts_per_node = 12; // priority cuts
};

/// Bottom-up k-cut enumeration over the resolved live graph. Result is
/// indexed by node id; PIs/constants get their trivial cut only. The
/// trivial cut {n} is always the last entry of each node's list.
std::vector<std::vector<Cut>> enumerate_cuts(const Aig& aig,
                                             const CutParams& params);

/// Cut functions on machine words for passes that evaluate many cuts. One
/// walk from the root both validates the cone and computes it: leaf i gets
/// projection word(s) i, the constant node (when not a leaf) all zeros,
/// and each cone node the AND of its fanins' words. A table of k leaves
/// takes one word up to 6 leaves (the function repeated across it, so
/// leaves ≥ k read as don't-cares) and 2^(k-6) words above. Cone nodes
/// are found through a per-node stamp table, so a call allocates nothing
/// once the scratch has grown to the pass's largest cone. The scratch
/// belongs to its owner (one per pass or thread); nothing survives
/// between owners.
class CutFunctions {
public:
  /// Words of `root`'s function over `leaves` (sorted, unique; leaf i is
  /// variable i). nullptr when the cone reaches a node that is neither a
  /// leaf, the constant nor an AND node (it escapes the cut), or when it
  /// holds more than `max_cone` AND nodes. The words stay valid until the
  /// next call.
  const std::uint64_t* compute(const Aig& aig, std::uint32_t root,
                               std::span<const std::uint32_t> leaves,
                               std::size_t max_cone);

private:
  static constexpr std::uint32_t kPending = ~std::uint32_t{0};

  /// Gives `n` the next table slot and returns its words.
  std::uint64_t* assign(std::uint32_t n);

  std::vector<std::uint32_t> stamp_; // == epoch_: touched by this call
  std::vector<std::uint32_t> slot_;  // table index, or kPending on the path
  std::vector<std::uint64_t> words_; // slot s at [s * width_, (s+1) * width_)
  std::vector<std::uint32_t> stack_;
  std::uint32_t epoch_ = 0;
  std::uint32_t used_ = 0;
  std::size_t width_ = 1;
};

/// Words per table of a cut with `num_leaves` leaves.
constexpr std::size_t cut_table_words(std::size_t num_leaves) {
  return num_leaves <= 6 ? 1 : std::size_t{1} << (num_leaves - 6);
}

/// Truth table of `root`'s function over the leaves of `cut` (leaf i maps
/// to variable i). Throws std::invalid_argument when the cone escapes the
/// cut.
tt::TruthTable cut_function(const Aig& aig, std::uint32_t root,
                            const Cut& cut);

/// The TruthTable of `leaves` variables held in CutFunctions' words.
tt::TruthTable cut_table(const std::uint64_t* words, unsigned leaves);

/// Reconvergence-driven cut: greedily expands from `root` keeping at most
/// `max_leaves` leaves; used by refactoring.
Cut reconvergent_cut(const Aig& aig, std::uint32_t root, unsigned max_leaves);

} // namespace rcgp::aig
