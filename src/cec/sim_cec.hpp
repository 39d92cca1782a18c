#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rqfp/netlist.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::cec {

/// Outcome of simulation-based equivalence checking — the first phase of
/// the paper's fitness evaluation (§3.2.1). `success_rate` is the fraction
/// of simulated output bits matching the specification; the performance
/// part of the fitness is only evaluated at success_rate == 1.
struct SimResult {
  std::uint64_t mismatching_bits = 0;
  std::uint64_t total_bits = 0;
  double success_rate = 0.0;
  bool all_match = false;
};

/// Scores already-simulated PO tables against a specification — the shared
/// tail of every simulation equivalence check (sim_check and the λ-batched
/// evaluator). Requires out.size() == spec.size() (checked).
SimResult sim_compare(std::span<const tt::TruthTable> out,
                      std::span<const tt::TruthTable> spec);

/// Exhaustive check of a netlist against per-output truth tables over the
/// netlist's PIs. Requires spec.size() == net.num_pos().
SimResult sim_check(const rqfp::Netlist& net,
                    std::span<const tt::TruthTable> spec);

} // namespace rcgp::cec
