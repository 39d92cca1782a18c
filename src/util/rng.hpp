#pragma once

#include <bit>
#include <cstdint>
#include <limits>

namespace rcgp::util {

/// Deterministic, fast pseudo-random generator (xoshiro256**).
///
/// Used everywhere randomness is needed (CGP mutation, random simulation
/// patterns) so that runs are reproducible given a seed. Satisfies the
/// UniformRandomBitGenerator requirements so it can also feed <random>
/// distributions when convenient.
class Rng {
public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  /// Re-initialize the state from a single 64-bit seed (splitmix64 expansion).
  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t below(std::uint64_t bound) {
    // Lemire's nearly-divisionless method with rejection for exactness.
    __uint128_t m = static_cast<__uint128_t>(next()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(next()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform01();

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p) { return uniform01() < p; }

  /// Counter-based stream derivation: the returned engine's state is a
  /// pure function of (seed, a, b), so independent streams can be handed
  /// out by index without ever advancing a shared generator. The CGP loop
  /// derives offspring k of generation g from stream(seed, g, k), which is
  /// what makes λ-parallel evaluation bit-identical for any thread count
  /// (docs/PARALLELISM.md).
  static Rng stream(std::uint64_t seed, std::uint64_t a, std::uint64_t b);

private:
  std::uint64_t state_[4]{};
};

} // namespace rcgp::util
