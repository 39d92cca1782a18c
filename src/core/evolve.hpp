#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>

#include "core/fitness.hpp"
#include "core/mutation.hpp"
#include "obs/trace.hpp"
#include "robust/integrity.hpp"
#include "robust/stop.hpp"
#include "rqfp/netlist.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::robust {
struct EvolveCheckpoint;
} // namespace rcgp::robust

namespace rcgp::core {

struct EvolveParams {
  /// Number N of generations (the paper runs 5*10^7; laptop-scale budgets
  /// of 10^3..10^5 already show the paper's qualitative behaviour).
  std::uint64_t generations = 100000;
  /// λ offspring per generation in the (1+λ) evolutionary strategy.
  unsigned lambda = 4;
  MutationParams mutation;
  std::uint64_t seed = 1;

  /// Worker threads for λ-parallel offspring evaluation (0 = hardware
  /// concurrency), capped at ⌈λ/4⌉ (EvalPool::resolve_threads), so the
  /// paper's λ = 4 always runs inline. Offspring k of generation g draws
  /// from its own counter-based RNG stream derived from (seed, g, k), so
  /// the result is bit-identical for every thread count — `threads` is a
  /// pure throughput knob (docs/PARALLELISM.md).
  unsigned threads = 0;

  /// Confirm every accepted strict improvement with SAT-based formal
  /// verification (the paper combines circuit simulation with formal
  /// verification). Simulation here is exhaustive, so this is a
  /// belt-and-braces check; it also exercises the CEC engine.
  bool sat_verify_improvements = false;
  std::uint64_t sat_conflict_budget = 100000;

  /// Disable the shrink step on acceptance (ablation only — the paper's
  /// §3.2.3 argues shrink reduces the search space).
  bool disable_shrink = false;

  /// Early stops: stagnation, generation and evaluation ceilings, deadline
  /// and stop token. Checked at the top of every generation, and the
  /// deadline and token also between offspring evaluations, so even
  /// SAT-heavy configs stop promptly. All exits are clean: the loop
  /// returns the best-so-far netlist and reports why it stopped in
  /// EvolveResult::stop_reason.
  robust::RunBudget budget;

  /// Crash safety: when non-empty, the full evolve state (parent netlist,
  /// fitness, every counter, elapsed budget) is saved atomically to this
  /// path every `checkpoint_interval` generations and once more on exit.
  /// No RNG engine state is stored: offspring streams are re-derived from
  /// (seed, generation, k), so a checkpoint is also thread-count
  /// independent. An Optimizer with island.resume set continues such a run
  /// bit-identically to one that was never interrupted.
  std::string checkpoint_path;
  std::uint64_t checkpoint_interval = 1000;

  /// Integrity re-checking level (docs/ROBUSTNESS.md): kBoundaries
  /// validates + re-simulates the parent at run start/end and on resume;
  /// kEveryAcceptance additionally checks every accepted offspring.
  /// Violations raise robust::IntegrityError with a netlist dump.
  robust::ParanoiaLevel paranoia = robust::ParanoiaLevel::kOff;

  FitnessOptions fitness;

  /// Optional per-improvement callback (generation, fitness).
  std::function<void(std::uint64_t, const Fitness&)> on_improvement;

  /// Optional JSONL evolution trace (not owned; nullptr disables tracing
  /// entirely — the hot loop then takes no trace branches beyond one
  /// pointer test). Events: run_start, improvement, heartbeat, run_end.
  obs::TraceSink* trace = nullptr;
  /// Emit a heartbeat event every this many generations when tracing.
  std::uint64_t trace_heartbeat = 10000;
};

/// One (1+λ) lineage at a generation boundary (the paper's Algorithm 1):
/// the parent, which is always the best netlist found so far, and every
/// counter a run reports. A fresh run, a resumed run and an island slice
/// all continue one of these (detail::continue_lineage), so a lineage cut
/// into any number of pieces ends in the same state as one that ran
/// whole. robust::EvolveCheckpoint is this state plus the run
/// identity, serialized.
struct LineageState {
  rqfp::Netlist best;
  Fitness best_fitness;
  /// Generations run, which is also the next generation index.
  std::uint64_t generations_run = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t improvements = 0;
  std::uint64_t sat_confirmations = 0;
  /// SAT conflicts spent confirming improvements (sat_verify_improvements).
  std::uint64_t sat_cec_conflicts = 0;
  /// Stagnation clock: generations since the last strict improvement, and
  /// the generation that made it.
  std::uint64_t since_improvement = 0;
  std::uint64_t last_improvement_gen = 0;
  /// Wall-clock seconds, cumulative over a resume chain: deadlines span
  /// the whole chain.
  double seconds = 0.0;
  /// Operator statistics over every offspring mutation...
  MutationMix mutations_attempted;
  /// ...and over the mutations of offspring accepted as the new parent —
  /// the per-kind acceptance picture (accepted/attempted per operator).
  MutationMix mutations_accepted;
};

struct EvolveResult : LineageState {
  /// Why the loop exited (kCompleted = full generation budget consumed).
  robust::StopReason stop_reason = robust::StopReason::kCompleted;
  /// True when this result continues a checkpoint file. The counters and
  /// `seconds` are cumulative either way, so a resumed run that finishes
  /// reports exactly what an uninterrupted run would have.
  bool resumed = false;
};

namespace detail {

/// The two lineage entry points behind the core::Optimizer facade
/// (core/optimizer.hpp) and the island runner. External callers should
/// go through Optimizer.
///
/// start_lineage builds the generation-0 state of a run under `params`:
/// the initial netlist (shrunk unless disable_shrink), evaluated once, and
/// that evaluation counted; the run identity comes from `params`. Throws
/// std::invalid_argument when `initial` does not implement `spec`.
robust::EvolveCheckpoint start_lineage(const rqfp::Netlist& initial,
                                       std::span<const tt::TruthTable> spec,
                                       const EvolveParams& params);

/// Runs `state` forward until RunBudget::check stops it (a state that
/// already meets a stop rule runs no generation), checkpointing to
/// params.checkpoint_path when set. The state's run identity (seed, λ, μ,
/// total generations) must match `params`, or std::invalid_argument is
/// thrown, so a state is never continued under a different search
/// configuration. The parent is re-evaluated, uncounted, and must
/// reproduce the state's fitness, or robust::IntegrityError is thrown: a
/// corrupted checkpoint that still passes its CRC never continues.
/// `resumed` marks a state loaded from a checkpoint file; the result and
/// the trace say so. Continuing is bit-identical to never having stopped.
EvolveResult continue_lineage(robust::EvolveCheckpoint state,
                              std::span<const tt::TruthTable> spec,
                              const EvolveParams& params,
                              bool resumed = false);

} // namespace detail

} // namespace rcgp::core
