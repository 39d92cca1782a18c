#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "core/anneal.hpp"
#include "core/evolve.hpp"
#include "robust/stop.hpp"
#include "rqfp/netlist.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::core {

/// Which search algorithm an Optimizer runs. All of them consume the same
/// genotype, mutation operators, and run limits; they differ only in the
/// outer search strategy. N independent lineages are an island fleet
/// (OptimizerOptions::island) with Topology::kNone.
enum class Algorithm : std::uint8_t {
  kEvolve, ///< (1+λ) CGP (the paper's Algorithm 1), one or more islands
  kAnneal, ///< simulated-annealing ablation over the same operators
};

/// Stable lowercase name ("evolve", "anneal").
std::string_view to_string(Algorithm algorithm);
/// Inverse of to_string; throws std::invalid_argument on unknown names.
Algorithm parse_algorithm(std::string_view name);

/// Migration topology of an island fleet (docs/ISLANDS.md). The donor
/// schedule is a pure function of (topology, island index, island count),
/// so the elite exchange is deterministic given (seed, topology,
/// migration interval) — regardless of where the islands actually run.
enum class Topology : std::uint8_t {
  kNone, ///< no migration; islands split the budget (multistart semantics)
  kRing, ///< island i receives from island (i-1+N)%N
  kStar, ///< island 0 is the hub: it receives from every leaf, leaves from 0
  kFull, ///< every island receives from every other island
};

/// Stable lowercase name ("none", "ring", "star", "full").
std::string_view to_string(Topology topology);
/// Inverse of to_string; throws std::invalid_argument on unknown names.
Topology parse_topology(std::string_view name);

} // namespace rcgp::core

namespace rcgp::island {

class SliceExecutor;

/// Island-model settings (docs/ISLANDS.md), consumed by island::run_fleet
/// and carried as OptimizerOptions::island. With `islands` == 1 an
/// Optimizer runs plain single-lineage evolve; with more, kEvolve runs a
/// fleet: N decorrelated (1+λ) lineages (seed, seed+1, ...) exchanging
/// elites every `migration_interval` generations. Results are
/// bit-identical for any worker placement — in-process threads or remote
/// `rcgp serve` daemons — given (seed, topology, migration_interval).
struct FleetOptions {
  unsigned islands = 1;
  core::Topology topology = core::Topology::kRing;
  /// Epoch length in generations (0 = no migration: one epoch per island).
  std::uint64_t migration_interval = 0;
  /// Donor-channel capacity: each island pulls from the first
  /// `migration_size` donors of its topology donor order.
  unsigned migration_size = 1;
  /// Directory for island-<i>.ckpt files + fleet.json (empty = in-memory
  /// only; required for a fleet resume and for RemoteSliceExecutor).
  std::string state_dir;
  /// Continue the saved state instead of starting over: a fleet from
  /// state_dir (islands restart from their last checkpoints, mid-slice ones
  /// included), a single lineage (Optimizer with islands == 1 and no
  /// executor) from evolve.checkpoint_path. Either way the run finishes
  /// bit-identical to one that was never killed. Only Algorithm::kEvolve
  /// resumes.
  bool resume = false;
  /// Where slices run (not owned; nullptr = in-process threads). Point it
  /// at an island::RemoteSliceExecutor to farm slices out to `rcgp serve`
  /// daemons.
  SliceExecutor* executor = nullptr;
  /// Concurrent slices per epoch (0 = one thread per island). Purely a
  /// throughput knob: results are bit-identical for any value, and no
  /// slice starts or runs past the fleet's deadline whatever it is.
  unsigned parallelism = 0;
  /// Run at most this many epochs in this call (0 = until done). An early
  /// exit reports StopReason::kGenerationBudget and leaves the fleet
  /// resumable — the epoch-stepping hook used by tests and schedulers.
  std::uint64_t max_epochs = 0;
};

} // namespace rcgp::island

namespace rcgp::core {

struct OptimizerOptions {
  Algorithm algorithm = Algorithm::kEvolve;
  /// (1+λ) parameters for kEvolve, including `threads` for λ-parallel
  /// offspring evaluation and the checkpoint path/interval.
  EvolveParams evolve;
  AnnealParams anneal;
  /// Island-model scale-out for kEvolve (ignored by kAnneal).
  island::FleetOptions island;
  /// Cross-algorithm run limits (deadline, generation / evaluation /
  /// stagnation ceilings, stop token), laid over the running loop's own
  /// budget with robust::overlay: a field set here replaces the
  /// algorithm's value.
  robust::RunBudget limits;
};

/// Uniform result across algorithms. `best`, `best_fitness`, `seconds`,
/// `stop_reason`, and `evaluations` are always populated; the sub-result
/// matching the algorithm carries the full per-algorithm detail.
struct OptimizeResult {
  rqfp::Netlist best;
  Fitness best_fitness;
  std::uint64_t evaluations = 0;
  double seconds = 0.0;
  robust::StopReason stop_reason = robust::StopReason::kCompleted;

  EvolveResult evolve; ///< kEvolve
  AnnealResult anneal; ///< kAnneal
};

/// Unified entry point over the optimizer loops (evolve and its island
/// fleets, anneal). Construct once with options, then run()
/// against any number of (netlist, spec) pairs. This facade is the only
/// public way to launch a search — the historical free functions
/// (evolve(), anneal(), ...) are gone.
class Optimizer {
public:
  explicit Optimizer(OptimizerOptions options);

  const OptimizerOptions& options() const { return options_; }

  /// Runs the configured algorithm. `initial` must implement `spec`.
  /// With island.resume set a kEvolve run continues its saved state
  /// instead: a fleet from island.state_dir (never-started islands start
  /// from `initial`), a single lineage from evolve.checkpoint_path. The
  /// checkpoint's run identity must match the options; an empty path
  /// throws std::invalid_argument and a missing file std::runtime_error.
  OptimizeResult run(const rqfp::Netlist& initial,
                     std::span<const tt::TruthTable> spec) const;

private:
  OptimizerOptions options_;
};

} // namespace rcgp::core
