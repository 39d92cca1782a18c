#pragma once

#include <span>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "core/optimizer.hpp"
#include "obs/phase.hpp"
#include "rqfp/cost.hpp"
#include "rqfp/netlist.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::core {

/// Options for the end-to-end RCGP synthesis flow (Fig. 2 of the paper):
/// RTL/AIG input → logic synthesis (resyn2) → AQFP-oriented MIG →
/// RQFP netlist conversion → splitter insertion → CGP optimization →
/// buffer insertion. The inherited OptimizerOptions configure the CGP
/// phase and are handed to core::Optimizer as they are. Beyond that,
/// evolve.budget and `limits` also bound the flow: a cooperative stop
/// skips the remaining optional phases (the mapping phases still run so
/// the result is always a valid netlist), and evolve.paranoia ≥
/// kBoundaries re-validates the netlist at flow phase boundaries. Costs
/// are priced with the fitness schedule of the configured algorithm
/// (anneal.fitness for kAnneal, evolve.fitness otherwise).
struct FlowOptions : OptimizerOptions {
  bool run_aig_optimization = true; // ABC resyn2 equivalent
  bool run_fraig = false;           // SAT sweeping after resyn2
  bool run_mig_optimization = true; // mockturtle aqfp_resynthesis equivalent
  /// Extension: pack MIG nodes with shared fanins into one RQFP gate
  /// (one majority row each). Off by default — the paper's baseline maps
  /// one node per gate.
  bool pack_shared_fanins = false;
  bool run_cgp = true;              // the paper's contribution
  /// Extension: after CGP, replace small windows with SAT-proven optimal
  /// sub-circuits (closes the gap to the exact optima at laptop budgets).
  bool run_exact_polish = false;
  /// Continue the CGP phase from evolve.checkpoint_path instead of
  /// starting fresh (see docs/ROBUSTNESS.md). The checkpoint must stem
  /// from the same specification and evolve configuration. Only
  /// Algorithm::kEvolve supports checkpointing; with islands > 1 the
  /// fleet is restored from island.state_dir instead.
  bool resume = false;
  /// Optional CGP starting point (not owned), e.g. a de-canonicalized
  /// synthesis-cache hit for the same function class. When it is a valid
  /// netlist over the right PIs/POs that implements the specification, the
  /// CGP phase evolves from it instead of the freshly mapped baseline;
  /// otherwise it is ignored (the `flow.seed.used` / `flow.seed.rejected`
  /// counters record which happened). The mapping phases still run, so
  /// `initial`/`initial_cost` keep their meaning as the paper's baseline.
  const rqfp::Netlist* cgp_seed = nullptr;
};

struct FlowResult {
  /// The initialization baseline: RQFP netlist right after conversion and
  /// splitter insertion (first baseline in Tables 1-2).
  rqfp::Netlist initial;
  rqfp::Cost initial_cost;

  /// After CGP optimization (equals `initial` when run_cgp is false).
  rqfp::Netlist optimized;
  rqfp::Cost optimized_cost;

  /// Full facade result of the CGP phase (whichever algorithm ran).
  OptimizeResult optimization;
  double seconds_total = 0.0;

  /// Per-phase wall-clock breakdown (aig-opt / fraig / mig-opt / rqfp-map /
  /// splitter / spec-sim / cgp / exact-polish / cost). Depth-0 records
  /// partition seconds_total; nested records (depth > 0) refine them.
  std::vector<obs::PhaseRecord> phases;

  /// Seconds of the named top-level phase (0.0 when the phase did not run).
  double phase_seconds(std::string_view name) const;
};

/// Builds an AIG computing the given per-output truth tables (ISOP-factored
/// forms over fresh PIs) — the entry point for truth-table-specified
/// benchmarks.
aig::Aig aig_from_tables(std::span<const tt::TruthTable> spec,
                         std::span<const std::string> po_names = {});

/// Full flow from an AIG (parsed from Verilog/BLIF/AIGER or built
/// programmatically). PIs must number at most tt::TruthTable::kMaxVars.
FlowResult synthesize(const aig::Aig& input, const FlowOptions& options = {});

/// Full flow from a truth-table specification.
FlowResult synthesize(std::span<const tt::TruthTable> spec,
                      const FlowOptions& options = {});

} // namespace rcgp::core
