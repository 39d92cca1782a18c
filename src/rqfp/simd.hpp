#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace rcgp::rqfp::simd {

/// Runtime-dispatched word-block kernels for the simulation hot path
/// (docs/SIMD.md).
///
/// Every kernel is a pure bitwise function over arrays of 64-bit words, so
/// all tiers are bit-identical by construction: a vector lane computes the
/// same AND/OR/XOR the scalar loop does, just 4 or 8 words at a time. The
/// tier is resolved once on first use from CPUID, overridable with
/// RCGP_SIMD=scalar|avx2|avx512 (unknown names and tiers the host cannot
/// run throw, with the available set in the message). Tests and the
/// simd-differential fuzz target switch tiers programmatically with
/// force_tier; since all tiers agree bit-for-bit, switching mid-run never
/// changes a result.
///
/// Alignment: kernels use unaligned vector loads, so any buffer works
/// (TruthTable words and SimCache rows live in plain std::vector storage).
enum class Tier : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// One tier's kernel table. Output arrays must not alias the inputs
/// (simulation writes every gate's outputs to fresh ports, so the hot
/// paths satisfy this for free).
struct Kernels {
  /// RQFP gate: o_k[w] = MAJ(a[w]^inv(k,0), b[w]^inv(k,1), c[w]^inv(k,2))
  /// for the 9 inverter bits of `config` (rqfp::InvConfig::bits()). One
  /// pass computes all three outputs while the inputs are in registers.
  void (*gate3)(std::uint16_t config, const std::uint64_t* a,
                const std::uint64_t* b, const std::uint64_t* c,
                std::uint64_t* o0, std::uint64_t* o1, std::uint64_t* o2,
                std::size_t n);
  /// out[w] = MAJ(a[w]^ma, b[w]^mb, c[w]^mc); masks are 0 or ~0.
  void (*maj3)(const std::uint64_t* a, std::uint64_t ma,
               const std::uint64_t* b, std::uint64_t mb,
               const std::uint64_t* c, std::uint64_t mc, std::uint64_t* out,
               std::size_t n);
  /// out[w] = (a[w]^ma) & (b[w]^mb); the AIG node function.
  void (*and2)(const std::uint64_t* a, std::uint64_t ma,
               const std::uint64_t* b, std::uint64_t mb, std::uint64_t* out,
               std::size_t n);
  /// popcount(a ^ b) over n words — the Hamming-distance fitness kernel.
  std::uint64_t (*xor_popcount)(const std::uint64_t* a,
                                const std::uint64_t* b, std::size_t n);
};

/// "scalar" / "avx2" / "avx512".
std::string_view to_string(Tier tier);
/// Inverse of to_string; throws std::invalid_argument on unknown names.
Tier parse_tier(std::string_view name);
/// Vector width of a tier in bits (64 / 256 / 512).
unsigned width_bits(Tier tier);

/// Tiers this binary can run on this host, ascending; always starts with
/// kScalar. A tier is available when it was compiled in (CMake probes the
/// -mavx2/-mavx512f flags) AND the CPU reports the feature.
const std::vector<Tier>& available_tiers();
/// The widest available tier.
Tier best_tier();

/// The tier the next kernels() call returns: RCGP_SIMD if set (resolved
/// once, throws on unknown or unavailable values), else best_tier(), else
/// whatever force_tier installed last.
Tier active_tier();
/// Kernel table of the active tier.
const Kernels& kernels();
/// Kernel table of a specific tier; throws std::invalid_argument when the
/// tier is not available on this host.
const Kernels& kernels(Tier tier);
/// Installs `tier` as the active tier (differential tests; production
/// code never needs it). Throws like kernels(Tier). Thread-safe, and
/// harmless to race: every tier is bit-identical.
void force_tier(Tier tier);

} // namespace rcgp::rqfp::simd
