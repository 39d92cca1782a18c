#pragma once

#include <cstdint>
#include <string>

#include "core/evolve.hpp"

namespace rcgp::robust {

/// A (1+λ) lineage at a generation boundary, core::LineageState, plus the
/// run identity it belongs to — everything needed to continue the run
/// bit-identically to one that was never interrupted. No RNG engine words:
/// offspring k of generation g draws from the counter-based stream
/// (seed, g, k) (util::Rng::stream), so the resume point is fully
/// described by the generation index and the checkpoint is independent of
/// the thread count that produced it (version 2 dropped the old `rng`
/// line). Interrupted partial generations are discarded and re-run.
///
/// On-disk format (docs/ROBUSTNESS.md): a one-line header
/// `rcgp-evolve-checkpoint <version> <crc32-hex>` followed by the payload;
/// the CRC covers every byte after the header line, so torn writes and
/// bit rot are detected at load. Files are written through
/// util::write_file_durable, so a kill or power loss mid-save leaves the
/// previous checkpoint intact. Fitness::objective is not stored; continuing
/// re-derives it.
struct EvolveCheckpoint : core::LineageState {
  static constexpr std::uint32_t kVersion = 2;

  // Run identity — checked against the resuming params so a checkpoint is
  // never silently continued under a different search configuration.
  std::uint64_t seed = 0;
  unsigned lambda = 0;
  double mu = 0.0;
  std::uint64_t generations_total = 0;

  /// The lineage's progress record for RunBudget's deterministic rule: a
  /// generation costs λ evaluations, and the run is planned for
  /// generations_total. Evolve, the fleet and the remote progress guard
  /// all judge a lineage by this one record.
  Progress progress() const {
    return {generations_run, generations_total, evaluations, lambda,
            since_improvement};
  }
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
