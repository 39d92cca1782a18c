#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/evolve.hpp"
#include "core/optimizer.hpp"
#include "robust/checkpoint.hpp"
#include "robust/stop.hpp"
#include "rqfp/netlist.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::island {

/// Island-model evolution (docs/ISLANDS.md): N decorrelated (1+λ)
/// lineages — island i runs seed `base_seed + i` — advance in synchronous
/// epochs of `migration_interval` generations and exchange elites at the
/// epoch boundaries. The whole fleet state lives in per-island
/// robust::EvolveCheckpoint values, so a slice of island work is "continue
/// this lineage state to the next boundary": the same unit of work whether
/// it runs on an in-process thread or on a remote `rcgp serve` daemon,
/// which is what makes results bit-identical for any worker placement
/// given (seed, topology, migration_interval).

/// One unit of island work handed to a SliceExecutor.
struct Slice {
  unsigned island = 0;
  std::uint64_t epoch = 0;
  /// Island state file ("" = none: an in-memory fleet, or a local slice
  /// with no periodic save inside it that is not the island's last, whose
  /// state the epoch commit in fleet.json carries). When set, the executor
  /// must leave the post-slice state saved there (the local executor lets
  /// the evolve loop checkpoint into it; the remote executor, which always
  /// gets one, writes the given state there and shares it with the daemon
  /// through the daemon's --checkpoint-dir).
  std::string checkpoint_path;
};

/// Where slices run. Implementations must behave exactly like
/// core::detail::continue_lineage under the slice-specialized params
/// (seed, generations, budget.max_generations and deadline are pre-set;
/// trace and callbacks stripped): same trajectory, same counters. The
/// result is the lineage state at the slice's exit boundary.
class SliceExecutor {
public:
  virtual ~SliceExecutor() = default;
  virtual core::EvolveResult run(const Slice& slice,
                                 std::span<const tt::TruthTable> spec,
                                 const core::EvolveParams& params,
                                 const robust::EvolveCheckpoint& state) = 0;
};

/// Runs slices in-process (the default).
class LocalSliceExecutor : public SliceExecutor {
public:
  core::EvolveResult run(const Slice& slice,
                         std::span<const tt::TruthTable> spec,
                         const core::EvolveParams& params,
                         const robust::EvolveCheckpoint& state) override;
};

/// Farms slices out to `rcgp serve` daemons: island i talks to
/// `endpoints[i % endpoints.size()]` (a Unix socket path or a TCP
/// host:port — serve::Transport::for_address decides). Each slice becomes
/// one schema-2 SynthesisRequest with id "island-<i>" and cache=off. The
/// executor writes the state it is given to the island's checkpoint file
/// and the daemon resumes the island from it, so the daemons must run
/// with --checkpoint-dir pointing at the fleet's state_dir (same
/// filesystem as the coordinator). Requires the fleet to be file-backed
/// and the evolve params to stay at daemon defaults for everything a
/// request cannot carry: all of `mutation` (rate and PO swap rule), all of
/// `fitness` (objective and schedule), `sat_verify_improvements` and
/// `disable_shrink`. Violations throw std::invalid_argument.
class RemoteSliceExecutor : public SliceExecutor {
public:
  explicit RemoteSliceExecutor(std::vector<std::string> endpoints);
  core::EvolveResult run(const Slice& slice,
                         std::span<const tt::TruthTable> spec,
                         const core::EvolveParams& params,
                         const robust::EvolveCheckpoint& state) override;

private:
  std::vector<std::string> endpoints_;
};

/// Donor islands of `island` under `topology` (deterministic, in fixed
/// donor order): ring = the left neighbor, star = every leaf for the hub
/// (island 0) and the hub for every leaf, full = everyone else ascending,
/// none = nobody.
std::vector<unsigned> donors_for(core::Topology topology, unsigned island,
                                 unsigned islands);

/// Paths of the fleet's on-disk state inside `state_dir`.
std::string island_state_path(const std::string& state_dir, unsigned island);
std::string fleet_manifest_path(const std::string& state_dir);

/// Runs an island fleet (FleetOptions, declared in core/optimizer.hpp) to
/// completion (or interruption) and aggregates the islands into one
/// EvolveResult: best netlist by index-order strictly-better scan,
/// counters summed across islands. With Topology::kNone the fleet is a
/// multistart: the generation budget is split across islands (base +
/// remainder) and the fleet is one epoch; with any other topology every
/// island runs the full `params.generations` budget. Up to
/// `options.parallelism` slices run at once. No slice starts or runs past
/// params.budget.deadline_seconds counted from the start of this call, and
/// no island runs past it counted over its own resume chain.
core::EvolveResult run_fleet(const rqfp::Netlist& initial,
                             std::span<const tt::TruthTable> spec,
                             const core::EvolveParams& params,
                             const FleetOptions& options);

} // namespace rcgp::island
