#pragma once

#include <cstdint>
#include <vector>

#include "rqfp/netlist.hpp"
#include "util/rng.hpp"

namespace rcgp::core {

struct MutationParams {
  /// Mutation rate μ ∈ [0,1]: up to μ * n_L genes are modified per
  /// mutation (the paper's experiments use μ = 1).
  double mu = 1.0;
  /// Apply the fan-out-preserving swap rule to primary-output genes too.
  /// The paper updates PO genes directly (tolerating transient fan-out
  /// violations resolved by shrink); RCGP keeps the invariant strict by
  /// default. Set false to mirror the paper's permissive behaviour — the
  /// mutated netlist may then fail validate() until shrink runs.
  bool strict_po_swap = true;

  bool operator==(const MutationParams&) const = default;
};

struct MutationStats {
  std::uint32_t genes_changed = 0;
  std::uint32_t swaps = 0;
  std::uint32_t direct_assigns = 0;
  std::uint32_t config_flips = 0;
  std::uint32_t po_moves = 0;
  std::uint32_t skipped_infeasible = 0;
};

/// Accumulated mutation-operator statistics over many mutate() calls.
/// EvolveResult keeps one mix for attempted offspring and one for accepted
/// offspring, so acceptance rates per operator kind are observable (the
/// input future adaptive-mutation work needs).
struct MutationMix {
  std::uint64_t mutations = 0; // mutate() calls folded in
  std::uint64_t genes_changed = 0;
  std::uint64_t swaps = 0;
  std::uint64_t direct_assigns = 0;
  std::uint64_t config_flips = 0;
  std::uint64_t po_moves = 0;
  std::uint64_t skipped_infeasible = 0;

  void add(const MutationStats& s);
  MutationMix& operator+=(const MutationMix& o);
};

/// The gene reading each port of a netlist, one entry per port: the gate
/// input or PO that reads it, or none. The swap rule of mutate looks up a
/// target port's consumer here.
using ConsumerMap = std::vector<std::uint32_t>;

/// Fills `map` (capacity-reusing) with the consumers of `net`'s ports.
void build_consumer_map(const rqfp::Netlist& net, ConsumerMap& map);

/// Point mutation per §3.2.2 of the paper: each modified gene is either a
/// node-input reconnection (with the value-swap rule that preserves the
/// single fan-out invariant), a primary-output reconnection, or a one-bit
/// inverter-configuration flip. The netlist is mutated in place. This
/// form fills a per-thread consumer map from `net` first, an O(n) walk.
MutationStats mutate(rqfp::Netlist& net, util::Rng& rng,
                     const MutationParams& params = {});

/// The same mutation, starting from a copy of `consumers`, which must be
/// build_consumer_map of `net` (for a child, of the parent it was copied
/// from). EvalPool keeps one map per worker base, so its children skip
/// the walk. Gives the same netlist and stats as the form above and
/// leaves `consumers` unchanged; throws std::invalid_argument when its
/// size is not net.first_free_port().
MutationStats mutate(rqfp::Netlist& net, util::Rng& rng,
                     const MutationParams& params,
                     const ConsumerMap& consumers);

/// Outcome of a single deterministic gene reconnection.
enum class ReconnectOutcome {
  kNoChange,   // target equals the current value (or self-swap)
  kDirect,     // situation (2): constant or unconsumed port, assigned
  kSwapped,    // situation (1): values swapped with the target's consumer
  kInfeasible  // swap partner cannot legally read the old value
};

/// Reconnects input `slot` of gate `g` to `target`, applying the paper's
/// swap rule. The single fan-out invariant is preserved. `target` must be
/// readable by gate g (i.e. < net.port_of(g, 0)).
ReconnectOutcome reconnect_input(rqfp::Netlist& net, std::uint32_t g,
                                 unsigned slot, rqfp::Port target);

/// Reconnects primary output `po` to `target` with the same swap rule.
ReconnectOutcome reconnect_po(rqfp::Netlist& net, std::uint32_t po,
                              rqfp::Port target);

} // namespace rcgp::core
