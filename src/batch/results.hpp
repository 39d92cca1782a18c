#pragma once

#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace rcgp::batch {

/// One job outcome in the batch results store. The deterministic fields
/// (id, ok, final_record, stop_reason, verified, cost, error) are
/// bit-identical for any worker count; `worker`, `attempts`, and
/// `seconds` are scheduling facts and may differ between runs.
struct JobRecord {
  std::string id;
  /// True when the job finished with a verified, functionally correct
  /// netlist written to `netlist_path`.
  bool ok = false;
  /// False when the job was cut short by a batch-level stop or deadline —
  /// such records are provisional and the job is re-run by `--resume`.
  /// Completed and permanently-failed jobs are final.
  bool final_record = true;
  /// Stop reason of the job's optimizer run ("completed", "stagnation",
  /// "stop-requested", ...); "error" for jobs that threw.
  std::string stop_reason = "completed";
  std::string error; ///< failure message; empty when ok
  bool verified = false; ///< exhaustive simulation check passed
  bool cached = false;   ///< served straight from the result cache
  bool seeded = false;   ///< evolution was seeded from a cache hit
  /// Cost of the synthesized netlist (all zero on failure).
  std::uint32_t n_r = 0, n_b = 0, n_d = 0, n_g = 0;
  std::uint64_t jjs = 0;
  std::string netlist_path; ///< written .rqfp (empty on failure)
  unsigned attempts = 1;    ///< 1 + integrity retries consumed
  unsigned worker = 0;      ///< worker index that ran the job
  double seconds = 0.0;     ///< wall time of the final attempt
};

/// Serializes a record as one JSON line (the store format).
std::string to_json(const JobRecord& record);

/// Parses one store line; std::nullopt for torn or malformed lines (a
/// crash mid-append leaves at most one such line at the end of the file).
std::optional<JobRecord> parse_record(const std::string& line);

/// Crash-safe append-only JSONL results store. Every append writes one
/// complete line and flushes before returning, so after a crash the store
/// holds every finished job plus at most one torn tail line, which load()
/// skips and reopening terminates. Appends are serialized internally —
/// workers share one store.
class ResultsStore {
public:
  /// Opens `path` for appending (created if missing; existing records are
  /// preserved, an unterminated torn tail gets its newline). Throws
  /// std::runtime_error when the file cannot be opened.
  explicit ResultsStore(const std::string& path);

  /// Reads every well-formed record in file order. Missing file = empty.
  static std::vector<JobRecord> load(const std::string& path);

  void append(const JobRecord& record);

  const std::string& path() const { return path_; }

private:
  std::string path_;
  std::mutex mu_;
  std::ofstream out_;
};

} // namespace rcgp::batch
