#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "rqfp/buffer.hpp"
#include "rqfp/netlist.hpp"

namespace rcgp::rqfp {

/// The cost columns reported in the paper's Tables 1 and 2.
struct Cost {
  std::uint32_t n_r = 0;  // RQFP logic gates (splitters included)
  std::uint32_t n_b = 0;  // path-balancing RQFP buffers
  std::uint32_t jjs = 0;  // Josephson junctions: 24*n_r + 4*n_b
  std::uint32_t n_d = 0;  // circuit depth in clock stages
  std::uint32_t n_g = 0;  // garbage outputs

  std::string to_string() const;

  bool operator==(const Cost&) const = default;
};

/// Reusable scratch and cached base-netlist analysis for incremental cost
/// evaluation — the cost-side mirror of rqfp::SimCache. A cache is bound
/// to one base netlist by build_cost_cache; after that, cost_of_delta
/// prices mutated offspring against the cached liveness mask and ASAP
/// levels without the remove_dead_gates() copy or any steady-state
/// allocation, and update_cost_cache commits an accepted offspring so one
/// cache follows a whole evolutionary trajectory.
struct CostCache {
  bool valid = false;

  // ---- shape and identity of the cached base ----
  unsigned num_pis = 0;
  std::uint32_t num_gates = 0;
  unsigned num_pos = 0;
  BufferSchedule schedule = BufferSchedule::kAsap; // the only schedule

  // ---- cached analysis of the base netlist ----
  Cost base_cost;
  std::vector<std::uint8_t> live;    // per-gate liveness mask
  std::vector<std::uint32_t> level;  // per-gate ASAP levels

  // ---- scratch (managed by the cost_* functions) ----
  std::vector<std::uint8_t> child_live;
  std::vector<std::uint32_t> child_level;
  std::vector<std::uint32_t> stack;   // liveness DFS worklist
  std::vector<std::uint32_t> fanout;  // per-port consumer counts (n_g)

  /// Bytes of scratch currently held (capacities). Constant across
  /// steady-state evaluations — the property tests use it as a
  /// zero-allocation proxy.
  std::size_t scratch_bytes() const;
};

/// Cost of a netlist. Dead gates are excluded by an in-place liveness
/// marking pass (no netlist copy is made; the CGP shrink step guarantees
/// none remain in reported circuits, but callers may pass raw netlists).
Cost cost_of(const Netlist& net);

/// Full analysis of `net`: liveness, ASAP levels, depth, and the cost,
/// all recorded into `cache` (scratch is reused, so a warm cache
/// allocates nothing). `schedule` can only be kAsap. Counts toward
/// evolve.cost.full_recomputes.
Cost build_cost_cache(const Netlist& net, BufferSchedule schedule,
                      CostCache& cache);

/// Incremental cost of `child`, a mutated copy of `base`, against a cache
/// built for `base`. Gene diffs are discovered by comparing the two
/// netlists. The cache itself is not modified (one cache serves every
/// offspring of a generation); commit an accepted child with
/// update_cost_cache.
///
/// Incremental structure: inverter-config-only changes cannot move the
/// cost (it is topology-only), and neither can rewires confined to dead
/// gates (liveness flows from POs through live consumers only, so the
/// live subnetwork is untouched — the CGP neutral-drift case); both
/// return the cached base cost outright. Otherwise liveness is re-marked
/// in place and the ASAP levels are reused verbatim up to the first gate
/// whose inputs changed, with only the suffix recomputed. The buffer
/// total is re-summed over the live mask (a level change moves the
/// buffers of every edge downstream), allocation-free.
///
/// Throws std::invalid_argument when the cache is not built or the
/// shapes (PI/gate/PO counts) disagree — the same contract as
/// rqfp::simulate_delta_batch.
Cost cost_of_delta(const Netlist& base, const Netlist& child,
                   CostCache& cache);

/// Commits `to` (a mutated copy of `from`, which `cache` describes) as the
/// cache's new base and returns its cost. Used when an offspring is
/// accepted as the next parent.
Cost update_cost_cache(const Netlist& from, const Netlist& to,
                       CostCache& cache);

/// Lower bound on garbage outputs from the paper: g_lb = max(0, n_pi-n_po).
std::uint32_t garbage_lower_bound(unsigned num_pis, unsigned num_pos);

} // namespace rcgp::rqfp
