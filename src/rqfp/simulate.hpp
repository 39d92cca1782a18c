#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "rqfp/netlist.hpp"
#include "rqfp/sim_batch.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::rqfp {

/// Exhaustive simulation of the primary outputs: one truth table per PO
/// over the PIs. Only the live cone feeding the POs is evaluated (dead
/// gates cannot affect them). Requires num_pis() <= TruthTable::kMaxVars;
/// build_sim_cache gives the table of every port instead.
std::vector<tt::TruthTable> simulate(const Netlist& net);

/// Reusable exhaustive-simulation state for the dirty-cone incremental
/// fast path. `ports` holds the truth table of every port of a base
/// netlist, indexed by port number — dead gates included, so PO moves onto
/// currently-dead cones still read correct values; the other members are
/// scratch reused across update_sim_cache calls. simulate_delta_batch only
/// reads the cache, so one cache serves every offspring of a generation
/// and only the cone downstream of changed genes is ever re-simulated.
struct SimCache {
  std::vector<tt::TruthTable> ports;
  unsigned num_pis = 0;
  std::uint32_t num_gates = 0;

  // --- scratch internals (managed by the simulate_* functions) ---
  struct UndoEntry {
    Port port = 0;
    tt::TruthTable value;
  };
  std::vector<std::uint8_t> dirty;
  std::vector<UndoEntry> undo;
  std::size_t undo_size = 0;
  std::array<tt::TruthTable, 3> gate_scratch;
};

/// Fully simulates `net` into `cache` (capacity-reusing). Afterwards
/// cache.ports[p] is the table of port p and the cache can serve
/// update_sim_cache / simulate_delta_batch calls for same-shaped netlists.
void build_sim_cache(const Netlist& net, SimCache& cache);

/// Re-simulates the dirty cone of `to` relative to `from` — whose port
/// values the cache currently holds — and commits: the cache then holds
/// `to`'s values. `from` and `to` must agree on PI and gate counts
/// (CGP mutation preserves both); throws std::invalid_argument otherwise.
void update_sim_cache(const Netlist& from, const Netlist& to,
                      SimCache& cache);

/// Reusable scratch for simulate_delta_batch: one overlay per offspring of
/// a λ-block. All members are managed by simulate_delta_batch and carry
/// their allocations across generations; `po` of child c holds its PO
/// tables after the call.
struct DeltaBatch {
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  struct Child {
    std::vector<tt::TruthTable> po;
    // --- scratch internals ---
    std::vector<std::uint8_t> dirty;    // per-port: overlay holds this port
    std::vector<std::uint32_t> slot;    // per-port index into values
    std::vector<tt::TruthTable> values; // overlay pool (used prefix live)
    std::size_t used = 0;
    std::vector<Port> touched;
  };
  std::vector<Child> children;
};

/// λ-batched dirty-cone simulation: evaluates every child of one
/// generation in a single gate-major pass against a read-only base cache.
/// For each gate, each child whose genes changed there — or whose cone is
/// already dirty — re-evaluates it into a private sparse overlay; all
/// other reads hit the shared base port tables, which are never written,
/// so there is no per-sibling undo/restore churn and each gate's base rows
/// stay cache-hot across the whole block. Only gates whose genes changed,
/// or whose cone inputs did, are re-evaluated; a recomputed value equal to
/// the base one stops the cone early. The PO tables (batch.children[c].po)
/// are bit-identical to simulate(*children[c]). The cache must currently
/// hold `base`'s values; shape requirements are as in update_sim_cache,
/// checked per child.
void simulate_delta_batch(const Netlist& base,
                          const std::vector<const Netlist*>& children,
                          const SimCache& cache, DeltaBatch& batch);

/// Word-parallel pattern simulation for wide circuits. `pi` must have one
/// row per PI (pi.rows() == net.num_pis(), validated up front); the word
/// count is taken from the batch, so it is explicit even for netlists
/// without PIs. `po` is reshaped to num_pos() x pi.words() and `scratch`
/// holds the per-port values — both reuse capacity across calls, so
/// repeated simulations allocate nothing.
void simulate_patterns(const Netlist& net, const SimBatch& pi, SimBatch& po,
                       SimBatch& scratch);

/// Convenience overload with an internal scratch buffer.
void simulate_patterns(const Netlist& net, const SimBatch& pi, SimBatch& po);

/// Evaluate on a single input assignment (bit i = PI i); returns PO bits.
std::vector<bool> evaluate(const Netlist& net, std::uint64_t assignment);

} // namespace rcgp::rqfp
