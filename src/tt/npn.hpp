#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

#include "tt/truth_table.hpp"

namespace rcgp::tt {

/// Largest arity the NPN routines handle: a table of up to 6 variables
/// fits one 64-bit word, and every routine below works on that word.
/// npn_canonize at 6 variables tries 720 permutations x 64 input phases x
/// 2 output phases = 92160 candidates (~0.25 ms on a 2.2 GHz Xeon core).
/// Cache keys are on the serve hit path: every store lookup and insert
/// canonicalizes its <= 4-input spec (cache::canonicalize, 384 input
/// transforms, a few µs).
inline constexpr unsigned kMaxNpnVars = 6;

/// Record of an NPN transformation: canon = transform(original).
///
/// `perm[i]` gives the original variable placed at canonical position i;
/// bit i of `input_phase` says the variable feeding canonical position i is
/// complemented; `output_phase` complements the function output. Entries of
/// `perm` at positions >= the table arity are ignored.
struct NpnTransform {
  std::array<unsigned, kMaxNpnVars> perm{0, 1, 2, 3, 4, 5};
  unsigned input_phase = 0;
  bool output_phase = false;
};

/// Result of exact NPN canonization.
struct NpnCanonization {
  TruthTable canon;
  NpnTransform transform;
};

/// Exhaustive NPN canonization (minimum table under <) for up to
/// kMaxNpnVars variables. Candidates are tried in the order
/// for_each_permutation x input phase ascending x output phase 0 then 1,
/// and the first strict minimum wins, so tied transforms (symmetric
/// inputs) resolve the same way every time. Throws std::invalid_argument
/// for larger arities.
NpnCanonization npn_canonize(const TruthTable& t);

/// Applies `transform` to `t` (same operation canonization performed).
/// Throws std::invalid_argument when `t` has more than kMaxNpnVars
/// variables or perm[0..arity) is not a permutation of [0, arity).
TruthTable npn_apply(const TruthTable& t, const NpnTransform& transform);

/// Undoes a canonization: given a table in canonical space, returns the
/// table in original space, i.e. npn_unapply(npn_apply(t, x), x) == t.
TruthTable npn_unapply(const TruthTable& t, const NpnTransform& transform);

// ---------- the word engine ----------
//
// A table of n <= kMaxNpnVars variables is the low 2^n bits of one word
// (TruthTable's own layout; the bits above stay zero). The kernels below
// are what npn_apply, npn_unapply, npn_canonize and the cache's joint
// canonicalization are built from; none of them allocates.

/// The low 2^n bits: the part of the word a table of n variables uses.
constexpr std::uint64_t npn_mask(unsigned n) {
  return n >= 6 ? ~std::uint64_t{0} : (std::uint64_t{1} << (1u << n)) - 1;
}

/// Fills out[p] for every input phase p < 2^n with `w` under that phase
/// (input i complemented for each set bit i), one variable flip per
/// variant. `out` holds >= 2^n words.
void phase_variants(std::uint64_t w, unsigned n, std::span<std::uint64_t> out);

/// An input permutation of an n-variable table compiled to at most n - 1
/// in-word variable swaps. apply(w) moves original variable perm[i] to
/// position i, the permutation npn_apply performs; undo(w) is its inverse.
class WordPermutation {
public:
  /// Throws std::invalid_argument unless perm[0..n) is a permutation of
  /// [0, n) (n <= kMaxNpnVars).
  WordPermutation(const std::array<unsigned, kMaxNpnVars>& perm, unsigned n);

  std::uint64_t apply(std::uint64_t w) const {
    for (unsigned s = 0; s < num_swaps_; ++s) {
      w = swap(w, s);
    }
    return w;
  }

  std::uint64_t undo(std::uint64_t w) const {
    for (unsigned s = num_swaps_; s-- > 0;) {
      w = swap(w, s);
    }
    return w;
  }

private:
  /// Swap s exchanges variables i < k: the bits of assignments with x_i = 1,
  /// x_k = 0 (mask_[s]) trade places with those shift_[s] = 2^k - 2^i above.
  std::uint64_t swap(std::uint64_t w, unsigned s) const {
    const std::uint64_t mask = mask_[s];
    const unsigned shift = shift_[s];
    return (w & ~(mask | (mask << shift))) | ((w & mask) << shift) |
           ((w >> shift) & mask);
  }

  std::array<std::uint64_t, kMaxNpnVars> mask_{};
  std::array<unsigned, kMaxNpnVars> shift_{};
  unsigned num_swaps_ = 0;
};

/// Visits the n! permutations of the first n variables in the one search
/// order every NPN routine shares: std::next_permutation order, starting
/// from the identity (entries at positions >= n stay the identity).
/// Calls visit(perm, move) with move = WordPermutation(perm, n).
template <typename Visit>
void for_each_permutation(unsigned n, Visit&& visit) {
  std::array<unsigned, kMaxNpnVars> perm{0, 1, 2, 3, 4, 5};
  do {
    visit(perm, WordPermutation(perm, n));
  } while (std::next_permutation(perm.begin(), perm.begin() + n));
}

} // namespace rcgp::tt
