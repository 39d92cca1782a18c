#include "util/rng.hpp"

namespace rcgp::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

} // namespace

Rng Rng::stream(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  // Absorb the two stream counters into the seed through full splitmix64
  // rounds (not a plain xor), so (seed, a, b) and (seed', a', b') triples
  // with equal xors still land in unrelated streams.
  std::uint64_t x = seed;
  x = splitmix64(x) ^ (a + 0x9E3779B97F4A7C15ULL);
  x = splitmix64(x) ^ (b + 0xBF58476D1CE4E5B9ULL);
  Rng r;
  r.reseed(splitmix64(x));
  return r;
}

void Rng::reseed(std::uint64_t seed) {
  // xoshiro must not be seeded with an all-zero state; splitmix64 output
  // over distinct counters cannot be all zero for all four words.
  for (auto& s : state_) {
    s = splitmix64(seed);
  }
}

double Rng::uniform01() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

} // namespace rcgp::util
