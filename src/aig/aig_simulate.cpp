#include "aig/aig_simulate.hpp"

#include <stdexcept>

#include "rqfp/simd.hpp"

namespace rcgp::aig {

namespace {

/// table[v] = (ta ^ ca?) & (tb ^ cb?) through the dispatched and2 kernel.
/// The output slot never aliases the fanins (a strict topological AIG
/// reads only earlier nodes), and complement masks can set the unused
/// high bits of sub-word tables, hence the normalize().
void and2_into(const tt::TruthTable& ta, bool ca, const tt::TruthTable& tb,
               bool cb, tt::TruthTable& out) {
  rqfp::simd::kernels().and2(ta.data(), ca ? ~std::uint64_t{0} : 0,
                             tb.data(), cb ? ~std::uint64_t{0} : 0,
                             out.data(), out.num_words());
  out.normalize();
}

} // namespace

std::vector<tt::TruthTable> simulate(const Aig& aig) {
  if (aig.has_replacements()) {
    // Replacements can forward-reference later-created nodes; simulate a
    // compacted copy whose creation order is strictly topological.
    return simulate(aig.cleanup());
  }
  const unsigned n = aig.num_pis();
  if (n > tt::TruthTable::kMaxVars) {
    throw std::invalid_argument("aig::simulate: too many PIs for exhaustive");
  }
  std::vector<tt::TruthTable> table(aig.num_nodes(),
                                    tt::TruthTable::constant(n, false));
  for (std::uint32_t i = 0; i < n; ++i) {
    table[aig.pi_at(i)] = tt::TruthTable::projection(n, i);
  }
  for (std::uint32_t v = 0; v < aig.num_nodes(); ++v) {
    if (!aig.is_and(v) || aig.is_replaced(v)) {
      continue;
    }
    const Signal a = aig.fanin0(v);
    const Signal b = aig.fanin1(v);
    and2_into(table[a.node()], a.complemented(), table[b.node()],
              b.complemented(), table[v]);
  }
  std::vector<tt::TruthTable> out;
  out.reserve(aig.num_pos());
  for (std::uint32_t i = 0; i < aig.num_pos(); ++i) {
    const Signal po = aig.po_at(i);
    out.push_back(po.complemented() ? ~table[po.node()] : table[po.node()]);
  }
  return out;
}

} // namespace rcgp::aig
