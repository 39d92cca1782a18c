#pragma once

#include <cstdint>
#include <string>

#include "core/fitness.hpp"
#include "core/mutation.hpp"
#include "rqfp/netlist.hpp"

namespace rcgp::robust {

/// Full evolve() state at a generation boundary — everything needed to
/// continue a (1+λ) run bit-identically to one that was never interrupted:
/// the parent netlist and fitness, every counter the result reports, and
/// the consumed wall-clock budget. No RNG engine words: offspring k of
/// generation g draws from the counter-based stream (seed, g, k)
/// (util::Rng::stream), so the resume point is fully described by the
/// generation index and the checkpoint is independent of the thread count
/// that produced it (version 2 dropped the old `rng` line).
///
/// On-disk format (docs/ROBUSTNESS.md): a one-line header
/// `rcgp-evolve-checkpoint <version> <crc32-hex>` followed by the payload;
/// the CRC covers every byte after the header line, so torn writes and
/// bit rot are detected at load. Files are written through
/// util::write_file_durable, so a kill or power loss mid-save leaves the
/// previous checkpoint intact.
struct EvolveCheckpoint {
  static constexpr std::uint32_t kVersion = 2;

  // Run identity — checked against the resuming params so a checkpoint is
  // never silently continued under a different search configuration.
  std::uint64_t seed = 0;
  unsigned lambda = 0;
  double mu = 0.0;
  std::uint64_t generations_total = 0;

  /// Next generation index to execute (the checkpoint is always taken at a
  /// generation boundary; interrupted partial generations are discarded
  /// and re-run on resume).
  std::uint64_t generation = 0;

  std::uint64_t evaluations = 0;
  std::uint64_t improvements = 0;
  std::uint64_t sat_confirmations = 0;
  std::uint64_t sat_cec_conflicts = 0;
  std::uint64_t since_improvement = 0;
  std::uint64_t last_improvement_gen = 0;
  double elapsed_seconds = 0.0;

  core::Fitness fitness; // parent fitness (objective restored by resume)
  core::MutationMix mutations_attempted;
  core::MutationMix mutations_accepted;
  rqfp::Netlist parent;
};

/// Serializes / parses the checkpoint payload (header + CRC included).
/// parse_checkpoint throws IntegrityError: Kind::kChecksum on CRC mismatch,
/// Kind::kFormat on anything structurally unreadable.
std::string serialize_checkpoint(const EvolveCheckpoint& ck);
EvolveCheckpoint parse_checkpoint(const std::string& text);

/// Durable save through util::write_file_durable; counts
/// `robust.checkpoint_saves`. Throws std::runtime_error on I/O failure.
void save_checkpoint(const EvolveCheckpoint& ck, const std::string& path);
/// Loads and CRC-verifies a checkpoint file. Throws IntegrityError on
/// corruption and std::runtime_error when the file cannot be read.
EvolveCheckpoint load_checkpoint(const std::string& path);

} // namespace rcgp::robust
