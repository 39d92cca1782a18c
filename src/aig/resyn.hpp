#pragma once

#include <string>

#include "aig/aig.hpp"

namespace rcgp::aig {

struct ResynStats {
  std::uint32_t ands_before = 0;
  std::uint32_t ands_after = 0;
  std::uint32_t depth_before = 0;
  std::uint32_t depth_after = 0;
};

/// ABC `resyn2`-style optimization script:
///   balance; rewrite; refactor; balance; rewrite; rewrite -z;
///   balance; refactor -z; rewrite -z; balance.
/// Returns the optimized network (input is not modified).
Aig resyn2(const Aig& input, ResynStats* stats = nullptr);

} // namespace rcgp::aig
