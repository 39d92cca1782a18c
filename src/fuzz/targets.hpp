#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/findings.hpp"
#include "fuzz/shrink.hpp"

namespace rcgp::fuzz {

/// The differential fuzzing targets (docs/FUZZING.md). Each target is a
/// pure function of (seed, case_index): it derives every random draw from
/// util::Rng::stream(seed, case_index, salt), so any finding reproduces
/// from the triple (target, seed, case) alone.
enum class Target : std::uint8_t {
  kIoRoundtrip,         ///< write/re-read identity through every io:: format
  kParserCorruption,    ///< corrupted inputs must raise ParseError, no more
  kManifestCorruption,  ///< corrupted manifests / cache stores / checkpoints
                        ///< must raise ParseError or IntegrityError
  kOptimizerDiff,       ///< delta-eval vs full recomputation, paranoid runs
  kCecCross,            ///< sim/BDD/SAT engine agreement vs ground truth
  kSimdDifferential,    ///< every SIMD tier vs scalar, kernels + end-to-end
  kSelftest,            ///< always-failing target exercising the pipeline
  /// ISOP covers, cut functions and the AIG passes vs exhaustive tables.
  /// (Values salt the case streams, so new targets go last.)
  kFrontEndDiff,
};

/// Stable kebab-case name ("io-roundtrip", "parser-corruption",
/// "manifest-corruption", "optimizer-differential", "cec-cross",
/// "simd-differential", "selftest", "front-end-differential").
std::string_view to_string(Target target);
/// Inverse of to_string; throws std::invalid_argument on unknown names.
Target parse_target(std::string_view name);

/// The seven production targets (selftest excluded — it always "fails").
std::vector<Target> default_targets();

/// Per-case state handed to a target by the harness.
struct CaseContext {
  std::uint64_t seed = 0;
  std::uint64_t index = 0;
  /// Scratch directory for cases that must go through real files.
  std::string work_dir;
  bool do_shrink = true;
  /// Accumulated over the case's shrinking sessions.
  ShrinkStats shrink_stats;
};

/// Runs one case of `target`, appending any findings (diagnostic fields
/// and minimized reproducer content filled; paths and repro command are
/// the harness's job). Unexpected exceptions are left to the harness.
void run_case(Target target, CaseContext& ctx, std::vector<Finding>& out);

} // namespace rcgp::fuzz
