#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rqfp/buffer.hpp"
#include "rqfp/cost.hpp"
#include "rqfp/netlist.hpp"
#include "rqfp/simulate.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::core {

/// Performance objective once functional correctness holds.
enum class Objective {
  /// The paper's §3.2.1 order: gates, then garbage, then buffers.
  kPaperLexicographic,
  /// Extension: minimize Josephson junctions (24*n_r + 4*n_b) directly,
  /// tie-breaking on garbage — useful when buffer overhead dominates.
  kJjCount,
};

/// Lexicographic CGP fitness per §3.2.1 of the paper:
///  1. functional success rate (simulation-based equivalence) must be 1.0
///     before any performance term is considered;
///  2. then fewer RQFP gates is better;
///  3. then fewer garbage outputs;
///  4. then fewer path-balancing buffers.
struct Fitness {
  /// Share of output bits that match the spec over every assignment —
  /// except for a child evaluate_delta_batch rejected early, where it is
  /// 1 − (bits in which its first wrong PO differs in word 0) / (64 ×
  /// POs), still below 1. Only a rate of exactly 1 ranks above the
  /// parent, so no (1+λ) decision reads the difference.
  double success_rate = 0.0;
  std::uint32_t n_r = 0;
  std::uint32_t n_g = 0;
  std::uint32_t n_b = 0;
  Objective objective = Objective::kPaperLexicographic;

  std::uint32_t jjs() const { return 24 * n_r + 4 * n_b; }

  bool functionally_correct() const { return success_rate >= 1.0; }

  /// True when `this` is at least as fit as `other` ((1+λ) acceptance uses
  /// better-or-equal so neutral drift is possible).
  bool better_or_equal(const Fitness& other) const;
  bool strictly_better(const Fitness& other) const {
    return better_or_equal(other) && !other.better_or_equal(*this);
  }

  std::string to_string() const;
};

struct FitnessOptions {
  /// Buffers are always priced under ASAP, the only schedule.
  rqfp::BufferSchedule schedule = rqfp::BufferSchedule::kAsap;
  Objective objective = Objective::kPaperLexicographic;

  bool operator==(const FitnessOptions&) const = default;
};

/// Evaluates a genotype against the specification (one table per PO over
/// the netlist's PIs). Cost terms are measured on the live subnetwork, so
/// not-yet-shrunk offspring are judged by their phenotype.
Fitness evaluate(const rqfp::Netlist& net,
                 std::span<const tt::TruthTable> spec,
                 const FitnessOptions& options = {});

/// λ-batched incremental evaluation — the one offspring-evaluation path of
/// the (1+λ) loop. Delta simulation (rqfp::simulate_delta_batch) scores
/// every child of a block against the shared `cache`, which must hold
/// `base`'s port rows and is only read.
/// Children must share `base`'s PI and gate counts — exactly what CGP
/// mutation preserves. Functionally correct children are then priced
/// through `cost_cache` (rqfp::cost_of_delta); it must describe `base`
/// (rqfp::build_cost_cache / update_cost_cache), and one not yet built is
/// built for `base` on the spot. Per child the Fitness is bit-identical to
/// evaluate(*children[c], spec, options). out_fitness must provide
/// children.size() slots; `batch` is reusable scratch.
///
/// With `early_reject`, simulation stops at the first PO, in port order,
/// that differs from the spec in word 0 (rqfp::simulate_delta_batch's
/// spec): batch.children[c].rejected is set and the Fitness is that of a
/// wrong child, with the success_rate above. With one-word rows a child
/// is rejected exactly when it is wrong. Every other child's Fitness is
/// still bit-identical to evaluate. Only the production (1+λ) loop sets
/// it.
void evaluate_delta_batch(const rqfp::Netlist& base,
                          const rqfp::SimCache& cache,
                          rqfp::CostCache& cost_cache,
                          const std::vector<const rqfp::Netlist*>& children,
                          std::span<const tt::TruthTable> spec,
                          const FitnessOptions& options,
                          rqfp::DeltaBatch& batch,
                          std::span<Fitness> out_fitness,
                          bool early_reject = false);

} // namespace rcgp::core
