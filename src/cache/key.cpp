#include "cache/key.hpp"

#include <algorithm>
#include <stdexcept>

namespace rcgp::cache {

namespace {

/// Most outputs one specification may have (one output_phase bit each).
constexpr std::size_t kMaxOutputs = 32;

/// Arity/shape validation shared by canonicalize and the transform
/// appliers.
unsigned checked_arity(std::span<const tt::TruthTable> spec) {
  if (spec.empty()) {
    throw std::invalid_argument("cache: empty specification");
  }
  if (spec.size() > kMaxOutputs) {
    throw std::invalid_argument("cache: more than 32 outputs");
  }
  const unsigned n = spec[0].num_vars();
  for (const auto& t : spec) {
    if (t.num_vars() != n) {
      throw std::invalid_argument("cache: mixed specification arities");
    }
  }
  return n;
}

tt::NpnTransform output_transform(const SpecTransform& tr, std::size_t o) {
  tt::NpnTransform r;
  r.perm = tr.perm;
  r.input_phase = tr.input_phase;
  r.output_phase = ((tr.output_phase >> o) & 1) != 0;
  return r;
}

/// Rewrites `net` so every reference to PI i becomes PI var_map[i],
/// complemented when bit i of `in_flips` is set, and PO o is complemented
/// when bit o of `po_flips` is set. Input complements are absorbed into
/// the inverter configs of the consuming gates; output complements into
/// the majority row driving the PO, or — for POs bound directly to a PI
/// or the constant port — into one appended inverter gate
/// R(1, p, 0)-shaped gate computing M(1, !p, 0) = !p on every output.
/// Correct because of the single-fanout invariant: each complemented port
/// has exactly the one consumer being rewritten.
rqfp::Netlist retarget(const rqfp::Netlist& net,
                       std::span<const unsigned> var_map, unsigned in_flips,
                       std::uint32_t po_flips) {
  const unsigned n = net.num_pis();
  rqfp::Netlist out(n);
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    const auto& gate = net.gate(g);
    std::array<rqfp::Port, 3> in = gate.in;
    rqfp::InvConfig cfg = gate.config;
    for (unsigned s = 0; s < 3; ++s) {
      const rqfp::Port p = gate.in[s];
      if (net.is_pi_port(p)) {
        const unsigned i = net.pi_of_port(p);
        in[s] = var_map[i] + 1;
        if ((in_flips >> i) & 1) {
          // Complement input s of all three majorities.
          cfg = cfg.with_flip(s).with_flip(3 + s).with_flip(6 + s);
        }
      }
      // Constant and gate ports keep their numbers (same PI count).
    }
    out.add_gate(in, cfg);
  }
  for (std::uint32_t o = 0; o < net.num_pos(); ++o) {
    const rqfp::Port p = net.po_at(o);
    const bool flip = ((po_flips >> o) & 1) != 0;
    if (net.is_gate_port(p)) {
      if (flip) {
        // MAJ(!a,!b,!c) = !MAJ(a,b,c): flipping the whole row
        // complements this one gate output.
        const unsigned k = net.slot_of_port(p);
        auto& gate = out.gate(net.gate_of_port(p));
        gate.config = gate.config.with_flip(3 * k)
                          .with_flip(3 * k + 1)
                          .with_flip(3 * k + 2);
      }
      out.add_po(p, net.po_name(o));
      continue;
    }
    // PI- or constant-driven PO.
    rqfp::Port q = p;
    bool complement = flip;
    if (net.is_pi_port(p)) {
      const unsigned i = net.pi_of_port(p);
      q = var_map[i] + 1;
      complement = flip != (((in_flips >> i) & 1) != 0);
    }
    if (complement) {
      // triple(6) computes M(1, !q, 0) = !q on every output (and
      // M(1, 0, 0) = 0 = !1 when q is the constant port).
      const std::uint32_t inv = out.add_gate(
          {rqfp::kConstPort, q, rqfp::kConstPort}, rqfp::InvConfig::triple(6));
      out.add_po(out.port_of(inv, 0), net.po_name(o));
    } else {
      out.add_po(q, net.po_name(o));
    }
  }
  return out;
}

} // namespace

bool SpecTransform::identity(unsigned num_vars) const {
  const unsigned n = std::min(num_vars, tt::kMaxNpnVars);
  for (unsigned i = 0; i < n; ++i) {
    if (perm[i] != i) {
      return false;
    }
  }
  if (num_vars >= 32) {
    return input_phase == 0 && output_phase == 0;
  }
  return (input_phase & ((1u << num_vars) - 1)) == 0 && output_phase == 0;
}

std::string spec_key(std::span<const tt::TruthTable> tables) {
  const unsigned n = checked_arity(tables);
  std::string key = std::to_string(n);
  key += ':';
  for (std::size_t o = 0; o < tables.size(); ++o) {
    if (o != 0) {
      key += ',';
    }
    key += tables[o].to_hex();
  }
  return key;
}

CanonicalSpec canonicalize(std::span<const tt::TruthTable> spec) {
  const unsigned n = checked_arity(spec);
  CanonicalSpec best;
  if (n > kMaxJointVars) {
    // Identity transform: wide specs cache under their exact tables.
    best.tables.assign(spec.begin(), spec.end());
    best.key = spec_key(best.tables);
    return best;
  }

  // Under a fixed input transform, output o contributes its polarity
  // normal form min(t, ~t); candidates compare as vectors of those, output
  // 0 first, and the first strict minimum in search order wins.
  const std::size_t outputs = spec.size();
  const std::uint64_t mask = tt::npn_mask(n);
  const auto polarized = [mask](std::uint64_t w) {
    return std::min(w, w ^ mask);
  };
  // variants[o][p]: output o under the current permutation and phase p.
  std::array<std::array<std::uint64_t, 1u << kMaxJointVars>, kMaxOutputs>
      variants{};
  std::array<std::uint64_t, kMaxOutputs> best_words{};
  bool first = true;
  tt::for_each_permutation(n, [&](const auto& perm,
                                  const tt::WordPermutation& move) {
    for (std::size_t o = 0; o < outputs; ++o) {
      tt::phase_variants(move.apply(spec[o].word(0)), n, variants[o]);
    }
    for (unsigned phase = 0; phase < (1u << n); ++phase) {
      if (!first) {
        std::size_t o = 0;
        while (o < outputs && polarized(variants[o][phase]) == best_words[o]) {
          ++o;
        }
        if (o == outputs || polarized(variants[o][phase]) > best_words[o]) {
          continue;
        }
      }
      first = false;
      best.transform.perm = perm;
      best.transform.input_phase = phase;
      best.transform.output_phase = 0;
      for (std::size_t o = 0; o < outputs; ++o) {
        const std::uint64_t w = variants[o][phase];
        if ((w ^ mask) < w) {
          best.transform.output_phase |= std::uint32_t{1} << o;
        }
        best_words[o] = polarized(w);
      }
    }
  });
  best.tables.reserve(outputs);
  for (std::size_t o = 0; o < outputs; ++o) {
    best.tables.emplace_back(n);
    best.tables.back().set_word(0, best_words[o]);
  }
  best.key = spec_key(best.tables);
  return best;
}

std::vector<tt::TruthTable> apply(std::span<const tt::TruthTable> spec,
                                  const SpecTransform& transform) {
  const unsigned n = checked_arity(spec);
  if (n > tt::kMaxNpnVars && !transform.identity(n)) {
    throw std::invalid_argument(
        "cache: non-identity transform on a wide specification");
  }
  std::vector<tt::TruthTable> out;
  out.reserve(spec.size());
  for (std::size_t o = 0; o < spec.size(); ++o) {
    if (n > tt::kMaxNpnVars) {
      out.push_back(spec[o]);
    } else {
      out.push_back(npn_apply(spec[o], output_transform(transform, o)));
    }
  }
  return out;
}

std::vector<tt::TruthTable> unapply(std::span<const tt::TruthTable> canon,
                                    const SpecTransform& transform) {
  const unsigned n = checked_arity(canon);
  if (n > tt::kMaxNpnVars && !transform.identity(n)) {
    throw std::invalid_argument(
        "cache: non-identity transform on a wide specification");
  }
  std::vector<tt::TruthTable> out;
  out.reserve(canon.size());
  for (std::size_t o = 0; o < canon.size(); ++o) {
    if (n > tt::kMaxNpnVars) {
      out.push_back(canon[o]);
    } else {
      out.push_back(npn_unapply(canon[o], output_transform(transform, o)));
    }
  }
  return out;
}

rqfp::Netlist decanonicalize_netlist(const rqfp::Netlist& canon,
                                     const SpecTransform& transform) {
  const unsigned n = canon.num_pis();
  if (n > tt::kMaxNpnVars) {
    if (!transform.identity(n)) {
      throw std::invalid_argument(
          "cache: non-identity transform on a wide netlist");
    }
    return canon;
  }
  // Canonical PI i stands for original variable perm[i], complemented by
  // bit i of input_phase; output o complemented by bit o of output_phase.
  return retarget(canon, std::span(transform.perm).first(n),
                  transform.input_phase, transform.output_phase);
}

rqfp::Netlist canonicalize_netlist(const rqfp::Netlist& original,
                                   const SpecTransform& transform) {
  const unsigned n = original.num_pis();
  if (n > tt::kMaxNpnVars) {
    if (!transform.identity(n)) {
      throw std::invalid_argument(
          "cache: non-identity transform on a wide netlist");
    }
    return original;
  }
  // Inverse direction: original variable perm[i] maps to canonical
  // position i with the same complement bit.
  std::array<unsigned, tt::kMaxNpnVars> inv{};
  unsigned flips = 0;
  for (unsigned i = 0; i < n; ++i) {
    inv[transform.perm[i]] = i;
    if ((transform.input_phase >> i) & 1) {
      flips |= 1u << transform.perm[i];
    }
  }
  return retarget(original, std::span(inv).first(n), flips,
                  transform.output_phase);
}

} // namespace rcgp::cache
