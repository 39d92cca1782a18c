#pragma once

#include <cstdint>

#include "mig/mig.hpp"

namespace rcgp::mig {

struct ResubStats {
  std::uint32_t candidates = 0;
  std::uint32_t resubstituted = 0;
  std::uint32_t nodes_before = 0;
  std::uint32_t nodes_after = 0;
};

/// Zero-cost resubstitution: replaces a node with an already-existing
/// signal (possibly complemented) that computes the same function —
/// the MIG counterpart of AIG SAT sweeping, proven here by exhaustive
/// simulation. A network of more than 14 PIs, whose per-node tables stop
/// being cheap, comes back cleaned up but unmerged.
Mig mig_resubstitute(const Mig& input, ResubStats* stats = nullptr);

} // namespace rcgp::mig
