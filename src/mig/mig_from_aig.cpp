#include "mig/mig_from_aig.hpp"

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "aig/cuts.hpp"

namespace rcgp::mig {

namespace {

// A 3-leaf cut word repeats its eight table bits across the word, as the
// projections do, so the matchers compare whole words.

/// If `f` (a 3-leaf cut word) is MAJ with some input/output
/// complementations, returns the 4-bit phase word: bits 0..2 complement
/// inputs, bit 3 the output.
std::optional<unsigned> match_majority(std::uint64_t f) {
  for (unsigned phase = 0; phase < 16; ++phase) {
    const std::uint64_t a = tt::kProjection[0] ^ ((phase & 1) ? ~0ULL : 0);
    const std::uint64_t b = tt::kProjection[1] ^ ((phase & 2) ? ~0ULL : 0);
    const std::uint64_t c = tt::kProjection[2] ^ ((phase & 4) ? ~0ULL : 0);
    std::uint64_t m = (a & b) | (a & c) | (b & c);
    if (phase & 8) {
      m = ~m;
    }
    if (m == f) {
      return phase;
    }
  }
  return std::nullopt;
}

/// True if `f` (a 3-leaf cut word) is the 3-input parity (possibly
/// complemented); returns the output complement flag. Input complements
/// fold into the same class.
std::optional<bool> match_parity3(std::uint64_t f) {
  const std::uint64_t parity =
      tt::kProjection[0] ^ tt::kProjection[1] ^ tt::kProjection[2];
  if (f == parity) {
    return false;
  }
  if (f == ~parity) {
    return true;
  }
  return std::nullopt;
}

/// The 3-leaf cut function of `root` (cones of a clean AIG's enumerated
/// cuts never escape).
std::uint64_t three_leaf_function(aig::CutFunctions& functions,
                                  const aig::Aig& net, std::uint32_t root,
                                  const aig::Cut& cut) {
  const std::uint64_t* words =
      functions.compute(net, root, cut.leaves, SIZE_MAX);
  if (!words) {
    throw std::invalid_argument("cut_function: cone escapes the cut");
  }
  return words[0];
}

} // namespace

Mig mig_from_aig(const aig::Aig& input, FromAigStats* stats) {
  const aig::Aig net = input.cleanup();
  FromAigStats local;

  aig::CutParams cp;
  cp.max_leaves = 3;
  cp.max_cuts_per_node = 8;
  const auto cuts = aig::enumerate_cuts(net, cp);
  const auto refs = net.compute_refs();
  aig::CutFunctions functions;

  Mig out;
  std::vector<Signal> map(net.num_nodes(), Signal());
  map[0] = out.const0();
  for (std::uint32_t i = 0; i < net.num_pis(); ++i) {
    map[net.pi_at(i)] = out.create_pi(net.pi_name(i));
  }

  for (std::uint32_t n = 0; n < net.num_nodes(); ++n) {
    if (!net.is_and(n)) {
      continue;
    }
    if (refs[n] == 0) {
      continue; // dead node (cleanup() should prevent this)
    }
    // Try to match a 3-cut majority. Only accept when the cut's internal
    // nodes are not used elsewhere (refs of intermediate fanins == 1), so
    // collapsing does not duplicate logic.
    bool built = false;
    for (const auto& cut : cuts[n]) {
      if (cut.leaves.size() != 3) {
        continue;
      }
      const auto phase =
          match_majority(three_leaf_function(functions, net, n, cut));
      if (!phase) {
        continue;
      }
      std::array<Signal, 3> leaf_sigs{};
      for (unsigned i = 0; i < 3; ++i) {
        leaf_sigs[i] =
            map[cut.leaves[i]] ^ (((*phase >> i) & 1) != 0);
      }
      Signal m = out.create_maj(leaf_sigs[0], leaf_sigs[1], leaf_sigs[2]);
      if (*phase & 8) {
        m = !m;
      }
      map[n] = m;
      ++local.detected_majorities;
      built = true;
      break;
    }
    // Try a 3-cut parity: XOR3(a,b,c) costs three majority nodes
    //   m = M(a,b,c); t = M(a,b,!c); xor3 = M(!m, t, c)
    // (the classic MIG full-adder construction) and shares m with any
    // majority consumer of the same leaves.
    if (!built) {
      for (const auto& cut : cuts[n]) {
        if (cut.leaves.size() != 3) {
          continue;
        }
        const auto out_compl =
            match_parity3(three_leaf_function(functions, net, n, cut));
        if (!out_compl) {
          continue;
        }
        const Signal a = map[cut.leaves[0]];
        const Signal b = map[cut.leaves[1]];
        const Signal c = map[cut.leaves[2]];
        const Signal m = out.create_maj(a, b, c);
        const Signal t = out.create_maj(a, b, !c);
        const Signal x = out.create_maj(!m, t, c);
        map[n] = x ^ *out_compl;
        ++local.detected_parities;
        built = true;
        break;
      }
    }
    if (!built) {
      const aig::Signal a = net.fanin0(n);
      const aig::Signal b = net.fanin1(n);
      map[n] = out.create_and(map[a.node()] ^ a.complemented(),
                              map[b.node()] ^ b.complemented());
      ++local.plain_ands;
    }
  }

  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    const aig::Signal po = net.po_at(i);
    out.add_po(map[po.node()] ^ po.complemented(), net.po_name(i));
  }
  if (stats) {
    *stats = local;
  }
  return out.cleanup();
}

} // namespace rcgp::mig
