#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "rqfp/netlist.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::robust {
class StopToken;
}

namespace rcgp::exact {

struct ExactParams {
  /// Largest gate count to try before giving up.
  std::uint32_t max_gates = 6;
  /// Conflict budget per (gates, garbage) SAT call (0 = unlimited).
  std::uint64_t conflicts_per_call = 2000000;
  /// Wall-clock budget for the whole search in seconds (0 = unlimited).
  double time_limit_seconds = 0.0;
  /// Cooperative stop (not owned; nullptr = never stops), checked between
  /// SAT calls and polled inside each one. A tripped token ends the
  /// search like a spent time budget.
  const robust::StopToken* stop = nullptr;
  /// Also minimize garbage outputs once the gate count is optimal (the
  /// method of paper [15] optimizes both).
  bool minimize_garbage = true;
};

enum class ExactStatus {
  kSolved,    // optimal netlist found (within the budget per step)
  kTimeout,   // budget exhausted before finding any realization
  kUnsat      // no realization within max_gates
};

struct ExactResult {
  ExactStatus status = ExactStatus::kTimeout;
  std::optional<rqfp::Netlist> netlist;
  std::uint32_t gates = 0;
  std::uint32_t garbage = 0;
  double seconds = 0.0;
  std::uint64_t sat_calls = 0;
};

/// SAT-based exact synthesis of an RQFP netlist implementing `spec` (one
/// table per output), standing in for the Z3-based exact method of
/// [15] that the paper uses as its second baseline. Searches gate counts
/// r = 0,1,2,... and, at the first feasible r, garbage bounds
/// g = g_lb, g_lb+1, ... — mirroring the lexicographic (gates, garbage)
/// objective. Exponential in circuit size by nature: expected to solve the
/// tiny Table 1 circuits and time out on everything larger, which is
/// exactly the behaviour the paper reports.
ExactResult exact_synthesize(std::span<const tt::TruthTable> spec,
                             const ExactParams& params = {});

/// Single feasibility query: is there an RQFP netlist with exactly
/// `num_gates` gates and at most `max_garbage` garbage outputs (when
/// bounded) implementing `spec`?
ExactResult exact_try(std::span<const tt::TruthTable> spec,
                      std::uint32_t num_gates,
                      std::optional<std::uint32_t> max_garbage,
                      const ExactParams& params = {});

} // namespace rcgp::exact
