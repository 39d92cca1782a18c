#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rqfp/netlist.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::rqfp {

/// Exhaustive simulation of the primary outputs: one truth table per PO
/// over the PIs. Only the live cone feeding the POs is evaluated (dead
/// gates cannot affect them). Requires num_pis() <= TruthTable::kMaxVars;
/// build_sim_cache gives the row of every port instead.
std::vector<tt::TruthTable> simulate(const Netlist& net);

/// Reusable scratch of the forward pass, for simulate_delta_batch. Its
/// members are managed by that function and carry their allocations
/// across calls; `po` of child c holds its PO tables after a call, unless
/// the child was rejected.
struct DeltaBatch {
  struct Child {
    std::vector<tt::TruthTable> po;
    /// Set only by a call with a spec: some PO differs from it in word 0.
    /// `po` is then left as an earlier call wrote it.
    bool rejected = false;
    /// Bits of word 0 in which the first wrong PO, in port order, differs
    /// from the spec (0 unless rejected).
    std::uint64_t word0_mismatches = 0;
  };
  std::vector<Child> children;

  /// A PO the pass compares with the spec as soon as its port holds its
  /// value: `want` is the spec's word 0, `po` breaks ties between POs on
  /// one port.
  struct PoCheck {
    Port port;
    std::uint32_t po;
    std::uint64_t want;
  };

  // --- scratch internals, shared by the children of a call ---
  std::vector<std::uint64_t> overlay; // the child's rows, laid out like
                                      // SimCache::rows
  std::vector<std::uint8_t> changed;  // per port: its overlay row is the
                                      // child's value
  std::vector<PoCheck> checks;        // the child's POs, sorted by port
};

/// Exhaustive per-port simulation state of a base netlist for the delta
/// path; simulate_delta_batch only reads it, so one cache serves every
/// offspring of a generation.
///
/// `rows` holds one row of `words` 64-bit words per port, row p = port p
/// at rows[p * words], dead gates included (PO moves onto currently-dead
/// cones still read correct values). A row is the port's function over
/// the assignments 0 .. 64 * words - 1: with fewer than 6 PIs it repeats
/// the 2^n-bit table across the word (the constant row is all ones), so
/// equal rows are equal tables, and table() masks the copy.
struct SimCache {
  std::vector<std::uint64_t> rows;
  std::size_t words = 0;
  unsigned num_pis = 0;
  std::uint32_t num_gates = 0;

  const std::uint64_t* row(Port p) const { return rows.data() + p * words; }
  /// The truth table of port p over num_pis variables.
  tt::TruthTable table(Port p) const;
};

/// Fully simulates `net` into `cache` (capacity-reusing). Afterwards
/// cache.row(p) is the row of port p and the cache can serve
/// update_sim_cache / simulate_delta_batch calls for same-shaped
/// netlists. Throws std::invalid_argument above TruthTable::kMaxVars PIs.
void build_sim_cache(const Netlist& net, SimCache& cache);

/// Re-simulates `to` relative to `from` — whose port values the cache
/// currently holds — with the simulate_delta_batch pass and commits in
/// place: the cache then holds `to`'s rows. `from` and `to` must agree on
/// PI and gate counts (CGP mutation preserves both); throws
/// std::invalid_argument otherwise.
void update_sim_cache(const Netlist& from, const Netlist& to,
                      SimCache& cache);

/// Delta simulation of every child of a block against a read-only base
/// cache: one forward pass over the gate indices per child. A gate is
/// evaluated iff its gene differs from the base's or one of its input
/// ports changed in this child; its outputs go to those ports' rows of a
/// dense overlay, and an output equal to its base row is no change, so
/// the cone stops there. Inputs read the overlay row of a changed port
/// and the shared base row otherwise; base rows are never written.
/// 1-, 2- and 4-word rows run fixed-width inline code, wider ones the
/// active SIMD tier's gate3. The PO tables (batch.children[c].po) are
/// bit-identical to simulate(*children[c]). The cache must currently hold
/// `base`'s rows; shape requirements are as in update_sim_cache, checked
/// per child.
///
/// Early reject: given `spec` (one table per PO over the cache's PIs),
/// the pass checks the child's POs in port order (ties in PO order)
/// against the spec's word 0, each as soon as its port holds its value:
/// POs on the constant or a PI port before the first gate, the others
/// right after their gate. With fewer than 6 PIs a row repeats its table
/// across the word, so only the low 2^n bits are compared. At the first
/// PO that differs the child is marked rejected and no later gate is
/// simulated. With one-word rows that pass is the whole simulation, so a
/// child that is not rejected is correct. Wider rows run it on word 0
/// only, and a child that is not rejected then runs the full pass. sim.words
/// counts the words of the gates evaluated up to the stop, in both
/// passes. Without a spec nothing is rejected and the call is exactly the
/// single full pass.
void simulate_delta_batch(const Netlist& base,
                          const std::vector<const Netlist*>& children,
                          const SimCache& cache, DeltaBatch& batch,
                          std::span<const tt::TruthTable> spec = {});

/// Evaluate on a single input assignment (bit i = PI i); returns PO bits.
std::vector<bool> evaluate(const Netlist& net, std::uint64_t assignment);

} // namespace rcgp::rqfp
