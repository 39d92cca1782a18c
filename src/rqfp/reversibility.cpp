#include "rqfp/reversibility.hpp"

#include <cmath>
#include <unordered_map>

#include "rqfp/simulate.hpp"

namespace rcgp::rqfp {

ReversibilityReport analyze_reversibility(const Netlist& input) {
  const Netlist net = input.remove_dead_gates();
  ReversibilityReport report;

  // Boundary = POs plus garbage outputs (unconsumed gate output ports).
  const auto fanout = net.port_fanout();
  std::vector<Port> boundary;
  for (std::uint32_t o = 0; o < net.num_pos(); ++o) {
    boundary.push_back(net.po_at(o));
  }
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    for (unsigned k = 0; k < 3; ++k) {
      const Port p = net.port_of(g, k);
      if (fanout[p] == 0) {
        boundary.push_back(p);
      }
    }
  }
  report.boundary_outputs = static_cast<std::uint32_t>(boundary.size());

  SimCache cache;
  build_sim_cache(net, cache);
  const auto bit = [&](Port p, std::uint64_t x) {
    return (cache.row(p)[x >> 6] >> (x & 63)) & 1;
  };
  const std::uint64_t n = std::uint64_t{1} << net.num_pis();
  std::unordered_map<std::uint64_t, std::uint64_t> image; // key -> first x
  report.information_preserving = true;
  for (std::uint64_t x = 0; x < n; ++x) {
    // Boundary signature of assignment x, hashed incrementally. With up
    // to ~64 boundary bits a direct word is enough for the circuit sizes
    // analyzed exhaustively; beyond that, fold with a mixing hash.
    std::uint64_t key = 0xcbf29ce484222325ULL;
    for (const Port p : boundary) {
      key = (key ^ (bit(p, x) ? 0x9E37ULL : 0x79B9ULL)) *
            0x100000001B3ULL;
    }
    const auto [it, inserted] = image.emplace(key, x);
    if (!inserted && report.information_preserving) {
      // Confirm the collision bit-by-bit (hash collisions are possible).
      bool same = true;
      for (const Port p : boundary) {
        if (bit(p, x) != bit(p, it->second)) {
          same = false;
          break;
        }
      }
      if (same) {
        report.information_preserving = false;
        report.collision = {it->second, x};
      }
    }
  }
  report.image_size = image.size();
  report.erased_bits =
      static_cast<double>(net.num_pis()) -
      std::log2(static_cast<double>(report.image_size));
  if (report.erased_bits < 0) {
    report.erased_bits = 0;
  }
  return report;
}

bool gate_is_bijective(InvConfig config) {
  unsigned seen = 0;
  for (unsigned x = 0; x < 8; ++x) {
    const auto out = eval_gate_words(config, (x & 1) ? ~0ull : 0,
                                     (x & 2) ? ~0ull : 0, (x & 4) ? ~0ull : 0);
    const unsigned y = static_cast<unsigned>((out[0] & 1) |
                                             ((out[1] & 1) << 1) |
                                             ((out[2] & 1) << 2));
    seen |= 1u << y;
  }
  return seen == 0xFF;
}

unsigned count_bijective_configs() {
  unsigned count = 0;
  for (unsigned bits = 0; bits < 512; ++bits) {
    if (gate_is_bijective(InvConfig(static_cast<std::uint16_t>(bits)))) {
      ++count;
    }
  }
  return count;
}

} // namespace rcgp::rqfp
