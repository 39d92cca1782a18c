#include "tt/npn.hpp"

#include <stdexcept>
#include <string>

namespace rcgp::tt {

namespace {

unsigned checked_arity(const TruthTable& t, const char* who) {
  if (t.num_vars() > kMaxNpnVars) {
    throw std::invalid_argument(std::string(who) +
                                ": supports up to 6 variables");
  }
  return t.num_vars();
}

/// Complements every input i < n whose bit is set in `phase`.
std::uint64_t flip_inputs(std::uint64_t w, unsigned n, unsigned phase) {
  for (unsigned i = 0; i < n; ++i) {
    if ((phase >> i) & 1) {
      w = flip_var_word(w, i);
    }
  }
  return w;
}

TruthTable table_of(unsigned n, std::uint64_t w) {
  TruthTable t(n);
  t.set_word(0, w);
  return t;
}

} // namespace

WordPermutation::WordPermutation(const std::array<unsigned, kMaxNpnVars>& perm,
                                 unsigned n) {
  // Selection: position i receives original variable perm[i] by one swap
  // with the position k > i that holds it now.
  std::array<unsigned, kMaxNpnVars> holds{0, 1, 2, 3, 4, 5};
  for (unsigned i = 0; i < n; ++i) {
    unsigned k = i;
    while (k < n && holds[k] != perm[i]) {
      ++k;
    }
    if (k == n) {
      throw std::invalid_argument("npn: perm is not a permutation of the "
                                  "table's variables");
    }
    if (k != i) {
      std::swap(holds[i], holds[k]);
      mask_[num_swaps_] = kProjection[i] & ~kProjection[k];
      shift_[num_swaps_] = (1u << k) - (1u << i);
      ++num_swaps_;
    }
  }
}

void phase_variants(std::uint64_t w, unsigned n,
                    std::span<std::uint64_t> out) {
  // Level i doubles the filled prefix: variant 2^i + p (p < 2^i) is
  // variant p with input i flipped. The flips of one level are independent
  // of each other, so they pipeline instead of forming one long chain.
  out[0] = w;
  for (unsigned i = 0; i < n; ++i) {
    const unsigned half = 1u << i;
    for (unsigned p = 0; p < half; ++p) {
      out[half + p] = flip_var_word(out[p], i);
    }
  }
}

TruthTable npn_apply(const TruthTable& t, const NpnTransform& tr) {
  const unsigned n = checked_arity(t, "npn_apply");
  std::uint64_t w = WordPermutation(tr.perm, n).apply(t.word(0));
  w = flip_inputs(w, n, tr.input_phase);
  return table_of(n, tr.output_phase ? w ^ npn_mask(n) : w);
}

TruthTable npn_unapply(const TruthTable& t, const NpnTransform& tr) {
  const unsigned n = checked_arity(t, "npn_unapply");
  std::uint64_t w = tr.output_phase ? t.word(0) ^ npn_mask(n) : t.word(0);
  w = flip_inputs(w, n, tr.input_phase);
  return table_of(n, WordPermutation(tr.perm, n).undo(w));
}

NpnCanonization npn_canonize(const TruthTable& t) {
  const unsigned n = checked_arity(t, "npn_canonize");
  const std::uint64_t mask = npn_mask(n);
  const std::uint64_t word = t.word(0);
  // The first candidate (identity, phase 0, output 0) is t itself.
  std::uint64_t best = word;
  NpnTransform best_tr;
  std::array<std::uint64_t, std::size_t{1} << kMaxNpnVars> variants{};
  for_each_permutation(n, [&](const auto& perm, const WordPermutation& move) {
    phase_variants(move.apply(word), n, variants);
    for (unsigned p = 0; p < (1u << n); ++p) {
      for (const bool out : {false, true}) {
        const std::uint64_t cand = out ? variants[p] ^ mask : variants[p];
        if (cand < best) {
          best = cand;
          best_tr.perm = perm;
          best_tr.input_phase = p;
          best_tr.output_phase = out;
        }
      }
    }
  });
  return {table_of(n, best), best_tr};
}

} // namespace rcgp::tt
