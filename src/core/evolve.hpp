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

  /// Stop early after this many generations without improvement (0 = off).
  std::uint64_t stagnation_limit = 0;

  /// Cooperative stop / deadline / evaluation budgets, polled between
  /// offspring evaluations so even SAT-heavy configs stop promptly. All
  /// exits are clean: the loop returns the best-so-far netlist and reports
  /// why it stopped in EvolveResult::stop_reason.
  robust::RunBudget budget;

  /// Crash safety: when non-empty, the full evolve state (parent netlist,
  /// fitness, every counter, elapsed budget) is saved atomically to this
  /// path every `checkpoint_interval` generations and once more on exit.
  /// No RNG engine state is stored: offspring streams are re-derived from
  /// (seed, generation, k), so a checkpoint is also thread-count
  /// independent. evolve_resume() continues such a run bit-identically to
  /// one that was never interrupted.
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

struct EvolveResult {
  rqfp::Netlist best;
  Fitness best_fitness;
  std::uint64_t generations_run = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t improvements = 0;
  std::uint64_t sat_confirmations = 0;
  /// SAT conflicts spent confirming improvements (sat_verify_improvements).
  std::uint64_t sat_cec_conflicts = 0;
  /// Operator statistics over every offspring mutation...
  MutationMix mutations_attempted;
  /// ...and over the mutations of offspring accepted as the new parent —
  /// the per-kind acceptance picture (accepted/attempted per operator).
  MutationMix mutations_accepted;
  double seconds = 0.0;
  /// Why the loop exited (kCompleted = full generation budget consumed).
  robust::StopReason stop_reason = robust::StopReason::kCompleted;
  /// True when this result continues a checkpointed run; all counters and
  /// `seconds` are then cumulative across the whole resume chain, so a
  /// resumed run that finishes reports exactly what an uninterrupted run
  /// would have.
  bool resumed = false;
  /// Stagnation counter / last improving generation at exit. Together with
  /// the counters above they are exactly the state a
  /// robust::EvolveCheckpoint captures, so a caller slicing one logical
  /// run into resumable chunks (the island runner) can rebuild the
  /// checkpoint in memory without a file round-trip.
  std::uint64_t since_improvement = 0;
  std::uint64_t last_improvement_gen = 0;
};

namespace detail {

/// Implementation entry points behind the core::Optimizer facade
/// (core/optimizer.hpp). Call these from internal code; external callers
/// should go through Optimizer.
EvolveResult evolve_impl(const rqfp::Netlist& initial,
                         std::span<const tt::TruthTable> spec,
                         const EvolveParams& params);
EvolveResult evolve_resume_impl(const std::string& checkpoint_path,
                                std::span<const tt::TruthTable> spec,
                                const EvolveParams& params);
/// Continues from an in-memory checkpoint without touching the
/// filesystem. Identity rules are the same as evolve_resume(); the island
/// runner (src/island) uses this to run one slice of an island between
/// two migration boundaries.
EvolveResult evolve_continue_impl(const robust::EvolveCheckpoint& state,
                                  std::span<const tt::TruthTable> spec,
                                  const EvolveParams& params);

} // namespace detail

/// Continues a checkpointed (1+λ) run from `checkpoint_path`. The
/// checkpoint's run identity (seed, λ, μ, total generations) must match
/// `params` — a mismatch throws std::invalid_argument so a checkpoint is
/// never silently continued under a different search configuration. The
/// checkpointed parent is re-validated against `spec` (corruption raises
/// robust::IntegrityError). A resumed run is bit-identical to an
/// uninterrupted one: same best netlist, fitness, and counters.
EvolveResult evolve_resume(const std::string& checkpoint_path,
                           std::span<const tt::TruthTable> spec,
                           const EvolveParams& params = {});

} // namespace rcgp::core
