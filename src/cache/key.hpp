#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rqfp/netlist.hpp"
#include "tt/npn.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::cache {

/// Largest arity the cache canonicalizes jointly (all outputs under one
/// shared input permutation/phase). 4 inputs x 32 outputs is the sweet
/// spot: 24 perms x 16 phases = 384 candidate transforms, and every
/// ≤4-input class can be pre-filled by the exact synthesizer. Wider specs
/// still cache, but under the identity transform (exact-spec key), so only
/// bit-identical functions hit.
inline constexpr unsigned kMaxJointVars = 4;

/// Joint NPN-style transformation shared by every output of a
/// multi-output specification: canon = apply(original).
///
/// `perm[i]` is the original variable placed at canonical position i;
/// bit i of `input_phase` complements the variable feeding canonical
/// position i; bit o of `output_phase` complements output o. Entries of
/// `perm` at positions >= the spec arity are ignored.
struct SpecTransform {
  std::array<unsigned, tt::kMaxNpnVars> perm{0, 1, 2, 3, 4, 5};
  unsigned input_phase = 0;
  std::uint32_t output_phase = 0;

  bool identity(unsigned num_vars) const;
  bool operator==(const SpecTransform&) const = default;
};

/// Result of canonicalizing a specification.
struct CanonicalSpec {
  std::vector<tt::TruthTable> tables; ///< canonical-space tables
  SpecTransform transform;            ///< tables == apply(original, transform)
  std::string key;                    ///< spec_key(tables)
};

/// The store's string key for a canonical table vector:
/// "<num_vars>:<hex0>,<hex1>,...".
std::string spec_key(std::span<const tt::TruthTable> tables);

/// Canonicalizes a multi-output specification. For specs of at most
/// kMaxJointVars inputs this enumerates every shared input
/// permutation/phase on the tt/npn word engine (tt::for_each_permutation
/// order, phases ascending), canonicalizes each output's polarity to
/// min(t, ~t), and keeps the first lexicographically smallest table
/// vector — so any two specs equal up to shared input NPN transformation
/// and per-output complementation share a bit-identical key, and ties
/// always pick the same transform (which fixes the netlist a hit
/// returns). The search allocates nothing. Wider specs get the identity
/// transform. All tables must share one arity (<= tt::TruthTable arity
/// limits); throws std::invalid_argument otherwise or when the spec is
/// empty or has more than 32 outputs.
CanonicalSpec canonicalize(std::span<const tt::TruthTable> spec);

/// Applies / inverts a spec transform on the table vector:
/// unapply(apply(spec, t), t) == spec.
std::vector<tt::TruthTable> apply(std::span<const tt::TruthTable> spec,
                                  const SpecTransform& transform);
std::vector<tt::TruthTable> unapply(std::span<const tt::TruthTable> canon,
                                    const SpecTransform& transform);

/// Rewrites a netlist implementing the canonical tables into one
/// implementing the original specification (PI permutation by inverse
/// `perm`, input complements absorbed into gate inverter configs, output
/// complements absorbed into majority rows or one inserted inverter gate
/// for POs driven directly by a PI/constant port). The inverse of
/// canonicalize_netlist.
rqfp::Netlist decanonicalize_netlist(const rqfp::Netlist& canon,
                                     const SpecTransform& transform);

/// Rewrites a netlist implementing the original specification into one
/// implementing the canonical tables (what `insert` runs before storing).
rqfp::Netlist canonicalize_netlist(const rqfp::Netlist& original,
                                   const SpecTransform& transform);

} // namespace rcgp::cache
