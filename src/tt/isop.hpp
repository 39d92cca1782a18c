#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tt/truth_table.hpp"

namespace rcgp::tt {

/// A product term over up to 32 variables: variable v appears positively if
/// bit v of `polarity` & `mask` is set with polarity 1, negatively with
/// polarity 0; variables not in `mask` are absent from the cube.
struct Cube {
  std::uint32_t mask = 0;     // which variables participate
  std::uint32_t polarity = 0; // 1 = positive literal (subset of mask)

  unsigned num_literals() const;
  /// Evaluate the cube on a complete assignment (bit v of `assignment` is
  /// the value of variable v).
  bool evaluates_true(std::uint64_t assignment) const;
  std::string to_string(unsigned num_vars) const;
  bool operator==(const Cube&) const = default;
};

/// Irredundant sum-of-products via the Minato–Morreale recursion on the
/// interval [lower, upper] (lower ⊆ upper), on raw table words: one word
/// for up to 6 variables (bits at and above 2^num_vars are ignored),
/// 2^(num_vars-6) words above. The recursion splits on the highest
/// variable either bound depends on and appends its cubes to `out` in the
/// order negative literal, positive literal, remainder. Scratch lives on
/// the stack up to 10 variables; the call keeps no state between calls.
void isop(const std::uint64_t* lower, const std::uint64_t* upper,
          unsigned num_vars, std::vector<Cube>& out);

/// ISOP of the interval [onset, onset | dc]. With dc = 0 this computes an
/// ISOP of the exact function. Result cubes are irredundant but not
/// globally minimal.
std::vector<Cube> isop(const TruthTable& onset, const TruthTable& dc);

inline std::vector<Cube> isop(const TruthTable& onset) {
  return isop(onset, TruthTable::constant(onset.num_vars(), false));
}

/// Rebuild the truth table covered by `cubes` over `num_vars` variables —
/// used to validate the cover in tests.
TruthTable cover_to_table(const std::vector<Cube>& cubes, unsigned num_vars);

} // namespace rcgp::tt
