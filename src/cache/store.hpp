#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cache/key.hpp"
#include "rqfp/cost.hpp"
#include "rqfp/netlist.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::cache {

/// One stored synthesis result, indexed by its canonical spec key.
struct Entry {
  std::vector<tt::TruthTable> tables; ///< canonical-space specification
  rqfp::Netlist netlist;              ///< canonical-space implementation
  rqfp::Cost cost;                    ///< cost_of(netlist) under ASAP
  std::string origin;                 ///< "exact", "cgp", ... (diagnostics)
};

/// A successful lookup: the stored result rewritten back into the
/// caller's variable/polarity space and re-verified by simulation.
struct Hit {
  rqfp::Netlist netlist; ///< implements the queried spec exactly
  rqfp::Cost cost;       ///< cost of the de-canonicalized netlist
  std::string origin;    ///< origin of the underlying entry
  std::string key;       ///< canonical key it was found under
};

/// Persistent NPN-canonical synthesis-result store (docs/FORMATS.md).
///
/// In memory it is a key → Entry map guarded by one mutex (the serve
/// worker pool shares a single store). On disk it is a CRC-guarded text
/// file, written through util::write_file_durable like evolve checkpoints,
/// so a kill or power loss mid-save leaves the previous file intact:
///
///   rcgp-cache 1 <crc32-hex>
///   entries <count>
///   entry <num_vars> <num_outputs> <origin>
///   tables <hex> [<hex> ...]
///   <.rqfp netlist text>
///   end-entry
///   end-cache
///
/// Corruption surfaces as robust::IntegrityError (kChecksum for payload
/// damage, kFormat for structural damage) — never a crash; the
/// manifest-corruption fuzz target exercises exactly this parser.
class Store {
public:
  Store() = default;

  /// Binds the store to `path` and loads it when the file exists.
  /// Throws robust::IntegrityError on a corrupt file.
  explicit Store(std::string path);

  /// Movable for factory returns (parse). Not safe to move while other
  /// threads use the source — moving is a setup-phase operation.
  Store(Store&& other) noexcept;
  Store& operator=(Store&& other) noexcept;

  const std::string& path() const { return path_; }

  std::size_t size() const;

  /// True when an entry exists under this canonical key (no metrics, no
  /// de-canonicalization — the warmer's existence probe).
  bool contains(const std::string& key) const;

  /// Canonicalizes `spec`, looks it up, and on a hit de-canonicalizes the
  /// stored netlist and checks it against `spec` by exhaustive
  /// simulation before returning it (a defense-in-depth guard — a
  /// mismatch drops the poisoned entry and counts
  /// cache.verify.failures). Updates cache.lookups / cache.hits /
  /// cache.misses and the cache.hit.seconds histogram.
  std::optional<Hit> lookup(std::span<const tt::TruthTable> spec);

  /// Canonicalizes `spec` and `net` and stores the result, keeping the
  /// better netlist (lexicographic n_r, jjs, n_d, n_g) when the key
  /// already exists. `net` must implement `spec` (checked by simulation;
  /// std::invalid_argument otherwise). Returns true when the store
  /// changed.
  bool insert(std::span<const tt::TruthTable> spec, const rqfp::Netlist& net,
              const std::string& origin);

  /// As insert, but `net` already lives in canonical space and implements
  /// `canon.tables` (the warmer's path).
  bool insert_canonical(const CanonicalSpec& canon, const rqfp::Netlist& net,
                        const std::string& origin);

  /// Re-validates and re-simulates every entry against its stored tables,
  /// and checks that the tables are the canonical form of their class
  /// (canonicalize(tables).key == key), so every entry is reachable by a
  /// lookup. Returns problem descriptions, empty when the store is sound.
  std::vector<std::string> verify() const;

  /// Snapshot of the entries (for stats / inspection).
  std::vector<std::pair<std::string, Entry>> entries() const;

  /// Durable save to the bound path (no-op when unbound) through
  /// util::write_file_durable. Concurrent callers are ordered on an
  /// internal save mutex, so the file always ends at the newest snapshot.
  /// Throws std::runtime_error on I/O failure.
  void save() const;

  /// Serialization used by save()/Store(path) — exposed for tests and
  /// the corruption fuzz target.
  std::string serialize() const;
  static Store parse(const std::string& text, const std::string& source);

private:
  bool insert_locked(const std::string& key, Entry entry);

  std::string path_;
  mutable std::mutex mu_;
  mutable std::mutex save_mu_; // orders saves: newest snapshot lands last
  std::map<std::string, Entry> entries_;
};

} // namespace rcgp::cache
