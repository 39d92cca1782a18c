#include "aig/refactor.hpp"

namespace rcgp::aig {

PassStats refactor_pass(Aig& aig, const RefactorParams& params) {
  PassStats stats;
  GainManager gm(aig);
  detail::Resynthesis resynthesis;
  const std::uint32_t original_count = aig.num_nodes();

  for (std::uint32_t n = 0; n < original_count; ++n) {
    if (!aig.is_and(n) || aig.is_replaced(n) || gm.refs(n) == 0) {
      continue;
    }
    const Cut cut = reconvergent_cut(aig, n, params.max_leaves);
    if (cut.leaves.size() < 2 || cut.leaves.size() > params.max_leaves) {
      continue;
    }
    resynthesis.attempt(aig, gm, n, cut.leaves, params.allow_zero_gain,
                        stats);
  }
  return stats;
}

} // namespace rcgp::aig
