#pragma once

// Per-layer timing for the traced bench_flow run. Nothing here changes the
// library: each layer is timed by calling its public functions in the same
// order, with the same arguments, as the production code path, and the
// result is checked against what that path returned.

#include <cstdint>
#include <span>
#include <vector>

#include "core/evolve.hpp"
#include "rqfp/netlist.hpp"
#include "tt/truth_table.hpp"

namespace flowbench {

namespace core = rcgp::core;
namespace rqfp = rcgp::rqfp;
namespace tt = rcgp::tt;

/// Front-end phases of core::synthesize, summed over every replayed spec.
struct FrontEndLayers {
  double resyn2_s = 0.0;   // aig::resyn2
  double mig_map_s = 0.0;  // mig::mig_from_aig
  double mig_opt_s = 0.0;  // mig::optimize_mig
  double rqfp_map_s = 0.0; // rqfp::map_from_mig + rqfp::insert_splitters
  std::uint64_t aig_nodes = 0;   // live ANDs after resyn2
  std::uint64_t mig_nodes = 0;   // live majorities after optimize_mig
  std::uint64_t rqfp_gates = 0;  // gates of the initialization baseline
};

struct FrontEndResult {
  rqfp::Netlist initial;               // equals FlowResult::initial
  std::vector<tt::TruthTable> cgp_spec; // what the flow hands to CGP
};

/// Runs the front end of core::synthesize(spec, FlowOptions{}) phase by
/// phase, adding each phase's time to `layers`.
FrontEndResult replay_front_end(std::span<const tt::TruthTable> spec,
                                FrontEndLayers& layers);

/// The parts of one (1+λ) generation, from a serial replay of the evolve
/// loop built from the calls EvalPool and evolve make. Times are seconds
/// summed over every replayed generation.
struct CgpLayers {
  double copy_s = 0.0;          // parent -> offspring Netlist copy
  double mutate_s = 0.0;        // Rng::stream + core::mutate
  double cache_sync_s = 0.0;    // build/update_sim_cache + build/update_cost_cache
  double delta_sim_s = 0.0;     // rqfp::simulate_delta_batch
  double compare_s = 0.0;       // cec::sim_compare
  double delta_cost_s = 0.0;    // rqfp::cost_of_delta
  double select_shrink_s = 0.0; // selection scan + core::shrink
  double serial_wall_s = 0.0;   // wall time of the serial replay
  /// EvalPool::evaluate_generation at the run's thread count, called back
  /// to back on the replay's parents; pool_busy_s is utilization() x
  /// pool_s summed per job.
  double pool_s = 0.0;
  double pool_busy_s = 0.0;
  unsigned threads = 0;
  std::uint64_t generations = 0;
  std::uint64_t offspring = 0;
  std::uint64_t correct = 0;  // offspring with success rate 1
  std::uint64_t accepted = 0; // generations whose best child became parent
  std::uint64_t genes_changed = 0;
  std::uint64_t sim_words = 0; // sim.words added by simulate_delta_batch
  /// False when any offspring fitness from the pool differed from the
  /// serial split.
  bool pool_identical = true;

  /// Sum of the layer times; equals serial_wall_s up to the loop overhead.
  double layer_sum_s() const {
    return copy_s + mutate_s + cache_sync_s + delta_sim_s + compare_s +
           delta_cost_s + select_shrink_s;
  }
  /// The serial work EvalPool does per generation (selection excluded).
  double evaluation_s() const {
    return copy_s + mutate_s + cache_sync_s + delta_sim_s + compare_s +
           delta_cost_s;
  }
};

/// Replays `generations` generations of the (1+λ) loop evolve would run
/// from `initial` under `params` and returns the final parent, which must
/// equal EvolveResult::best of the production run. Only the generation
/// count, λ, μ, seed, threads and fitness options of `params` are used.
rqfp::Netlist replay_cgp(const rqfp::Netlist& initial,
                         std::span<const tt::TruthTable> spec,
                         const core::EvolveParams& params,
                         std::uint64_t generations, CgpLayers& layers);

} // namespace flowbench
