#pragma once

// Test reference for the ISOP kernel: the Minato-Morreale recursion that
// tt::isop ran on heap-backed TruthTable temporaries before it moved onto
// machine words, kept verbatim. test_tt compares the library with it cube
// for cube, so a change in variable choice, cube polarity order or cube
// order fails a test instead of silently changing every factored form the
// front end builds.

#include <stdexcept>
#include <vector>

#include "tt/isop.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::tt::reference {

// Minato-Morreale ISOP on the interval [lower, upper]. Returns the cover
// and writes the covered set into `covered`.
inline std::vector<Cube> isop_rec(const TruthTable& lower,
                                  const TruthTable& upper, unsigned num_vars,
                                  TruthTable& covered) {
  if (lower.is_constant0()) {
    covered = TruthTable::constant(lower.num_vars(), false);
    return {};
  }
  if (upper.is_constant1()) {
    covered = TruthTable::constant(lower.num_vars(), true);
    return {Cube{}};
  }

  // Pick the top variable both bounds depend on.
  int var = -1;
  for (int v = static_cast<int>(num_vars) - 1; v >= 0; --v) {
    if (lower.depends_on(static_cast<unsigned>(v)) ||
        upper.depends_on(static_cast<unsigned>(v))) {
      var = v;
      break;
    }
  }
  if (var < 0) {
    // Non-constant table that depends on no variable cannot happen.
    throw std::logic_error("isop: inconsistent interval");
  }
  const auto uv = static_cast<unsigned>(var);

  const TruthTable l0 = lower.cofactor0(uv);
  const TruthTable l1 = lower.cofactor1(uv);
  const TruthTable u0 = upper.cofactor0(uv);
  const TruthTable u1 = upper.cofactor1(uv);

  // Cubes that must contain literal ~var: needed where l0 holds but u1
  // cannot cover (so they can't be var-independent).
  TruthTable cov0(lower.num_vars());
  auto cubes0 = isop_rec(l0 & ~u1, u0, num_vars, cov0);
  for (auto& c : cubes0) {
    c.mask |= 1u << uv; // polarity bit stays 0 => negative literal
  }

  // Cubes that must contain literal var.
  TruthTable cov1(lower.num_vars());
  auto cubes1 = isop_rec(l1 & ~u0, u1, num_vars, cov1);
  for (auto& c : cubes1) {
    c.mask |= 1u << uv;
    c.polarity |= 1u << uv;
  }

  // Remainder must be covered by var-independent cubes.
  const TruthTable rem0 = l0 & ~cov0;
  const TruthTable rem1 = l1 & ~cov1;
  TruthTable cov2(lower.num_vars());
  auto cubes2 = isop_rec(rem0 | rem1, u0 & u1, num_vars, cov2);

  const TruthTable proj = TruthTable::projection(lower.num_vars(), uv);
  covered = (cov0 & ~proj) | (cov1 & proj) | cov2;

  cubes0.insert(cubes0.end(), cubes1.begin(), cubes1.end());
  cubes0.insert(cubes0.end(), cubes2.begin(), cubes2.end());
  return cubes0;
}

/// The parent's tt::isop entry point over the recursion above.
inline std::vector<Cube> isop(const TruthTable& onset, const TruthTable& dc) {
  TruthTable covered(onset.num_vars());
  return isop_rec(onset, onset | dc, onset.num_vars(), covered);
}

} // namespace rcgp::tt::reference
