#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rqfp/netlist.hpp"
#include "rqfp/sim_batch.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::rqfp {

/// Exhaustive simulation of the primary outputs: one truth table per PO
/// over the PIs. Only the live cone feeding the POs is evaluated (dead
/// gates cannot affect them). Requires num_pis() <= TruthTable::kMaxVars;
/// build_sim_cache gives the row of every port instead.
std::vector<tt::TruthTable> simulate(const Netlist& net);

/// Reusable scratch of the cone walk, for simulate_delta_batch (and, as
/// SimCache::update_scratch, for update_sim_cache). Its members are
/// managed by those functions and carry their allocations across calls;
/// `po` of child c holds its PO tables after a simulate_delta_batch call.
struct DeltaBatch {
  /// Slot flag: the rest of the slot is an overlay row, not a base port.
  static constexpr std::uint32_t kOverlay = std::uint32_t{1} << 31;
  struct Child {
    std::vector<tt::TruthTable> po;
  };
  std::vector<Child> children;

  // --- scratch internals, shared by the children of a call ---
  std::vector<std::uint64_t> mark;    // gate bitset: the cone worklist
  std::vector<std::uint32_t> slot;    // per port: p, or kOverlay | row
  std::vector<std::uint64_t> overlay; // cone rows, 3 per gate evaluated
  std::vector<Port> touched;          // first output port of each of them
};

/// Exhaustive per-port simulation state of a base netlist for the
/// cone-only delta path; simulate_delta_batch only reads it, so one cache
/// serves every offspring of a generation.
///
/// `rows` holds one row of `words` 64-bit words per port, row p = port p
/// at rows[p * words], dead gates included (PO moves onto currently-dead
/// cones still read correct values). A row is the port's function over
/// the assignments 0 .. 64 * words - 1: with fewer than 6 PIs it repeats
/// the 2^n-bit table across the word (the constant row is all ones), so
/// equal rows are equal tables, and table() masks the copy.
///
/// `consumer_start`/`consumer_gate` index the gates reading each gate
/// output port p, ascending, at consumer_gate[consumer_start[p] ..
/// consumer_start[p + 1]); consumer_gate ends with one pad entry. A port
/// may feed several gate inputs (strict_po_swap = false mutations produce
/// that). Constant and PI rows never change, so they list no consumers.
struct SimCache {
  std::vector<std::uint64_t> rows;
  std::size_t words = 0;
  unsigned num_pis = 0;
  std::uint32_t num_gates = 0;
  std::vector<std::uint32_t> consumer_start;
  std::vector<std::uint32_t> consumer_gate;

  const std::uint64_t* row(Port p) const { return rows.data() + p * words; }
  /// The truth table of port p over num_pis variables.
  tt::TruthTable table(Port p) const;

  /// update_sim_cache's scratch, kept warm across commits and bounded by
  /// the rows it updates.
  DeltaBatch update_scratch;
};

/// Fully simulates `net` into `cache` (capacity-reusing) and indexes its
/// consumers. Afterwards cache.row(p) is the row of port p and the cache
/// can serve update_sim_cache / simulate_delta_batch calls for
/// same-shaped netlists. Throws std::invalid_argument above
/// TruthTable::kMaxVars PIs.
void build_sim_cache(const Netlist& net, SimCache& cache);

/// Re-simulates the cone of `to` relative to `from` — whose port values
/// the cache currently holds — with the simulate_delta_batch engine and
/// commits: the cache then holds `to`'s rows and consumers. `from` and
/// `to` must agree on PI and gate counts (CGP mutation preserves both);
/// throws std::invalid_argument otherwise.
void update_sim_cache(const Netlist& from, const Netlist& to,
                      SimCache& cache);

/// Cone-only delta simulation of every child of a block against a
/// read-only base cache. Per child, a branch-free compare of its gates
/// with the base's seeds a gate bitset with the changed genes; the bitset
/// is popped in ascending order (a consumer always follows its producer),
/// each popped gate is evaluated into overlay rows, and an output equal
/// to its base row stops the cone there, otherwise the port's consumers
/// are marked. So a gate is evaluated iff its gene differs from the base
/// or one of its inputs' values does, and a child costs its diff plus
/// its cone; all other reads hit the shared base rows, which are never
/// written. 1-, 2- and 4-word rows run fixed-width inline code, wider
/// ones the active SIMD tier's gate3. The PO tables
/// (batch.children[c].po) are bit-identical to simulate(*children[c]).
/// The cache must currently hold `base`'s rows and consumers; shape
/// requirements are as in update_sim_cache, checked per child.
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
