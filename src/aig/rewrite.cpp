#include "aig/rewrite.hpp"

#include <algorithm>
#include <stdexcept>

#include "tt/isop.hpp"

namespace rcgp::aig {

GainManager::GainManager(Aig& aig) : aig_(aig), refs_(aig.compute_refs()) {}

std::uint32_t& GainManager::ref_slot(std::uint32_t n) {
  if (n >= refs_.size()) {
    refs_.resize(n + 1, 0);
  }
  return refs_[n];
}

std::uint32_t GainManager::deref_rec(std::uint32_t n) {
  std::uint32_t freed = 1;
  for (const Signal f : {aig_.fanin0(n), aig_.fanin1(n)}) {
    auto& r = ref_slot(f.node());
    if (r == 0) {
      continue; // defensive: never underflow
    }
    if (--r == 0 && aig_.is_and(f.node())) {
      freed += deref_rec(f.node());
    }
  }
  return freed;
}

std::uint32_t GainManager::ref_rec(std::uint32_t n) {
  std::uint32_t added = 1;
  for (const Signal f : {aig_.fanin0(n), aig_.fanin1(n)}) {
    auto& r = ref_slot(f.node());
    if (r++ == 0 && aig_.is_and(f.node())) {
      added += ref_rec(f.node());
    }
  }
  return added;
}

std::uint32_t GainManager::deref_mffc(std::uint32_t root) {
  return deref_rec(root);
}

void GainManager::ref_mffc(std::uint32_t root) { ref_rec(root); }

std::uint32_t GainManager::ref_candidate(Signal s) {
  const std::uint32_t n = s.node();
  if (!aig_.is_and(n)) {
    ref_slot(n); // ensure slot exists
    return 0;
  }
  if (ref_slot(n) > 0) {
    return 0; // already live: adds no new nodes
  }
  return ref_rec(n);
}

void GainManager::unref_candidate(Signal s) {
  const std::uint32_t n = s.node();
  if (!aig_.is_and(n) || ref_slot(n) > 0) {
    return;
  }
  deref_rec(n);
}

void GainManager::commit(std::uint32_t root, Signal candidate) {
  auto& cand_refs = ref_slot(candidate.node());
  cand_refs += ref_slot(root);
  ref_slot(root) = 0;
  aig_.replace(root, candidate);
}

std::optional<tt::TruthTable> try_cut_function(const Aig& aig,
                                               std::uint32_t root,
                                               const Cut& cut) {
  CutFunctions functions;
  const std::uint64_t* words =
      functions.compute(aig, root, cut.leaves, kMaxCutCone);
  if (!words) {
    return std::nullopt;
  }
  return cut_table(words, static_cast<unsigned>(cut.leaves.size()));
}

namespace {

/// Literal-count estimate of a factored form, used to choose polarity.
std::uint64_t factored_cost(const std::vector<tt::Cube>& cubes) {
  std::uint64_t lits = 0;
  for (const auto& c : cubes) {
    lits += c.num_literals();
  }
  return lits + cubes.size();
}

Signal build_cube(Aig& aig, const tt::Cube& cube,
                  std::span<const Signal> leaves) {
  Signal acc = aig.const1();
  for (unsigned v = 0; v < leaves.size(); ++v) {
    if (cube.mask & (1u << v)) {
      const Signal lit =
          (cube.polarity & (1u << v)) ? leaves[v] : !leaves[v];
      acc = aig.create_and(acc, lit);
    }
  }
  return acc;
}

Signal build_cover(Aig& aig, std::vector<tt::Cube> cubes,
                   std::span<const Signal> leaves) {
  if (cubes.empty()) {
    return aig.const0();
  }
  for (const auto& c : cubes) {
    if (c.mask == 0) {
      return aig.const1();
    }
  }
  if (cubes.size() == 1) {
    return build_cube(aig, cubes[0], leaves);
  }
  // Find the most frequent literal for algebraic division.
  unsigned best_var = 0;
  bool best_pol = false;
  unsigned best_count = 0;
  for (unsigned v = 0; v < leaves.size(); ++v) {
    for (const bool pol : {false, true}) {
      unsigned count = 0;
      for (const auto& c : cubes) {
        if ((c.mask & (1u << v)) &&
            (((c.polarity >> v) & 1) != 0) == pol) {
          ++count;
        }
      }
      if (count > best_count) {
        best_count = count;
        best_var = v;
        best_pol = pol;
      }
    }
  }
  if (best_count <= 1) {
    // No common literal: plain OR of cube ANDs.
    Signal acc = aig.const0();
    for (const auto& c : cubes) {
      acc = aig.create_or(acc, build_cube(aig, c, leaves));
    }
    return acc;
  }
  std::vector<tt::Cube> quotient;
  std::vector<tt::Cube> remainder;
  for (const auto& c : cubes) {
    if ((c.mask & (1u << best_var)) &&
        (((c.polarity >> best_var) & 1) != 0) == best_pol) {
      tt::Cube q = c;
      q.mask &= ~(1u << best_var);
      q.polarity &= ~(1u << best_var);
      quotient.push_back(q);
    } else {
      remainder.push_back(c);
    }
  }
  const Signal lit = best_pol ? leaves[best_var] : !leaves[best_var];
  const Signal q = build_cover(aig, std::move(quotient), leaves);
  const Signal r = build_cover(aig, std::move(remainder), leaves);
  return aig.create_or(aig.create_and(lit, q), r);
}

} // namespace

Signal build_factored(Aig& aig, const std::uint64_t* function,
                      const std::uint64_t* complement,
                      std::span<const Signal> leaf_signals) {
  const auto num_vars = static_cast<unsigned>(leaf_signals.size());
  std::vector<tt::Cube> pos_cubes;
  std::vector<tt::Cube> neg_cubes;
  tt::isop(function, function, num_vars, pos_cubes);
  tt::isop(complement, complement, num_vars, neg_cubes);
  if (factored_cost(neg_cubes) < factored_cost(pos_cubes)) {
    return !build_cover(aig, std::move(neg_cubes), leaf_signals);
  }
  return build_cover(aig, std::move(pos_cubes), leaf_signals);
}

Signal build_factored(Aig& aig, const tt::TruthTable& function,
                      std::span<const Signal> leaf_signals) {
  if (function.num_vars() != leaf_signals.size()) {
    throw std::invalid_argument("build_factored: arity mismatch");
  }
  return build_factored(aig, function.data(), (~function).data(),
                        leaf_signals);
}

namespace detail {

bool Resynthesis::attempt(Aig& aig, GainManager& gm, std::uint32_t root,
                          std::span<const std::uint32_t> leaves,
                          bool allow_zero_gain, PassStats& stats) {
  const std::uint64_t* function =
      functions.compute(aig, root, leaves, kMaxCutCone);
  if (!function) {
    return false;
  }
  ++stats.attempts;

  const std::uint32_t saved = gm.deref_mffc(root);
  leaf_signals.clear();
  for (const auto leaf : leaves) {
    leaf_signals.push_back(Signal(leaf, false));
  }
  complement.resize(cut_table_words(leaves.size()));
  for (std::size_t j = 0; j < complement.size(); ++j) {
    complement[j] = ~function[j];
  }
  const std::uint32_t first_new = aig.num_nodes();
  const Signal cand =
      build_factored(aig, function, complement.data(), leaf_signals);
  if (cand.node() == root) {
    // Factoring reproduced the same root: undo and move on.
    aig.pop_nodes_to(first_new);
    gm.ref_mffc(root);
    return false;
  }
  const std::uint32_t cost = gm.ref_candidate(cand);
  const auto gain =
      static_cast<std::int64_t>(saved) - static_cast<std::int64_t>(cost);
  const bool accept = gain > 0 || (gain == 0 && allow_zero_gain &&
                                   cand.node() < first_new);
  if (accept) {
    gm.commit(root, cand);
    stats.total_gain += gain;
    ++stats.commits;
    return true;
  }
  gm.unref_candidate(cand);
  gm.ref_mffc(root);
  if (aig.num_nodes() > first_new) {
    aig.pop_nodes_to(first_new);
  }
  return false;
}

} // namespace detail

PassStats rewrite_pass(Aig& aig, const RewriteParams& params) {
  PassStats stats;
  CutParams cp;
  cp.max_leaves = params.max_leaves;
  cp.max_cuts_per_node = params.max_cuts_per_node;
  const auto cuts = enumerate_cuts(aig, cp);
  GainManager gm(aig);
  detail::Resynthesis resynthesis;
  const std::uint32_t original_count = aig.num_nodes();

  for (std::uint32_t n = 0; n < original_count; ++n) {
    if (!aig.is_and(n) || aig.is_replaced(n) || gm.refs(n) == 0) {
      continue;
    }
    // Best candidate over all cuts of n.
    for (const auto& cut : cuts[n]) {
      if (cut.leaves.size() < 2 ||
          (cut.leaves.size() == 1 && cut.leaves[0] == n)) {
        continue;
      }
      bool stale = false;
      for (const auto leaf : cut.leaves) {
        if (leaf == n || aig.is_replaced(leaf)) {
          stale = true;
          break;
        }
      }
      if (stale) {
        continue;
      }
      if (resynthesis.attempt(aig, gm, n, cut.leaves, params.allow_zero_gain,
                              stats)) {
        break; // node replaced; remaining cuts are stale
      }
    }
  }
  return stats;
}

} // namespace rcgp::aig
