#pragma once

#include <cstdint>
#include <span>

#include "core/fitness.hpp"
#include "core/mutation.hpp"
#include "obs/trace.hpp"
#include "robust/stop.hpp"
#include "rqfp/netlist.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::core {

/// Simulated-annealing optimizer over the same genotype and mutation
/// operators as the CGP loop — an ablation counterpart to the paper's
/// (1+λ) evolutionary strategy (§2.2 positions CGP against other
/// metaheuristics). Unlike the ES, annealing may pass through functionally
/// incorrect states (penalized by mismatch count) and accepts uphill moves
/// with Boltzmann probability.
struct AnnealParams {
  std::uint64_t steps = 100000;
  double initial_temperature = 50.0;
  double final_temperature = 0.01;
  MutationParams mutation; // small per-step perturbations work best
  std::uint64_t seed = 1;
  FitnessOptions fitness;

  /// Run limits, checked before every step (RunBudget::check); each exits
  /// cleanly with the best-seen netlist. A step is one evaluation and
  /// max_generations caps steps, while `steps` stays the plan the
  /// temperature schedule spans. No stagnation clock: stagnation_limit is
  /// ignored.
  robust::RunBudget budget;

  /// Optional JSONL trace (not owned; nullptr disables). Events:
  /// run_start, improvement (new best-seen), heartbeat, run_end.
  obs::TraceSink* trace = nullptr;
  /// Emit a heartbeat event every this many steps when tracing.
  std::uint64_t trace_heartbeat = 10000;
};

struct AnnealResult {
  rqfp::Netlist best;      // best functionally-correct state seen
  Fitness best_fitness;
  std::uint64_t steps_run = 0;
  std::uint64_t accepted = 0;
  std::uint64_t uphill_accepted = 0;
  double seconds = 0.0;
  /// Why the loop exited (kCompleted = full step budget consumed).
  robust::StopReason stop_reason = robust::StopReason::kCompleted;
};

/// Scalar energy used by the annealer: functional mismatches dominate,
/// then gates, garbage, buffers. Exposed for tests.
double anneal_energy(const rqfp::Netlist& net,
                     std::span<const tt::TruthTable> spec);

namespace detail {

/// Implementation behind the core::Optimizer facade (core/optimizer.hpp).
/// Runs annealing from a functionally-correct initial netlist; the result
/// is always functionally correct (tracked as best-seen).
AnnealResult anneal_impl(const rqfp::Netlist& initial,
                         std::span<const tt::TruthTable> spec,
                         const AnnealParams& params);

} // namespace detail

} // namespace rcgp::core
