#pragma once

// Test references for the NPN engine: the per-bit re-indexing loops that
// tt::npn_apply, tt::npn_unapply and tt::npn_canonize ran before they
// moved onto single-word kernels, kept verbatim. test_tt and test_cache
// compare the library with them transform for transform, so a change in
// search order, tie-breaking or transform semantics fails a test instead
// of silently re-keying the synthesis cache.

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>

#include "tt/npn.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::tt::reference {

inline TruthTable npn_apply(const TruthTable& t, const NpnTransform& tr) {
  const unsigned n = t.num_vars();
  // Build the permuted/phased table directly by re-indexing assignments.
  TruthTable r(n);
  for (std::uint64_t idx = 0; idx < r.num_bits(); ++idx) {
    // idx is an assignment in canonical space; map it back to original.
    std::uint64_t src = 0;
    for (unsigned i = 0; i < n; ++i) {
      const bool bit_i = ((idx >> i) & 1) != 0;
      const bool phased = bit_i ^ (((tr.input_phase >> i) & 1) != 0);
      if (phased) {
        src |= std::uint64_t{1} << tr.perm[i];
      }
    }
    const bool v = t.bit(src) ^ tr.output_phase;
    if (v) {
      r.set_bit(idx, true);
    }
  }
  return r;
}

inline TruthTable npn_unapply(const TruthTable& t, const NpnTransform& tr) {
  const unsigned n = t.num_vars();
  TruthTable r(n);
  for (std::uint64_t idx = 0; idx < r.num_bits(); ++idx) {
    std::uint64_t src = 0;
    for (unsigned i = 0; i < n; ++i) {
      const bool bit_i = ((idx >> i) & 1) != 0;
      const bool phased = bit_i ^ (((tr.input_phase >> i) & 1) != 0);
      if (phased) {
        src |= std::uint64_t{1} << tr.perm[i];
      }
    }
    if (t.bit(idx) ^ tr.output_phase) {
      r.set_bit(src, true);
    }
  }
  return r;
}

inline NpnCanonization npn_canonize(const TruthTable& t) {
  const unsigned n = t.num_vars();
  if (n > kMaxNpnVars) {
    throw std::invalid_argument("npn_canonize: supports up to 6 variables");
  }
  NpnCanonization best{t, {}};
  bool first = true;
  // Enumerate the n! permutations of the table's own variables; positions
  // beyond n keep their identity entries so the transform stays a valid
  // permutation of [0, kMaxNpnVars).
  std::array<unsigned, kMaxNpnVars> perm{0, 1, 2, 3, 4, 5};
  do {
    for (unsigned phase = 0; phase < (1u << n); ++phase) {
      for (unsigned out = 0; out < 2; ++out) {
        NpnTransform tr;
        tr.perm = perm;
        tr.input_phase = phase;
        tr.output_phase = out != 0;
        TruthTable cand = reference::npn_apply(t, tr);
        if (first || cand < best.canon) {
          best.canon = std::move(cand);
          best.transform = tr;
          first = false;
        }
      }
    }
  } while (std::next_permutation(perm.begin(), perm.begin() + n));
  return best;
}

} // namespace rcgp::tt::reference
