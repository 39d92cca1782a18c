#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/optimizer.hpp"
#include "rqfp/cost.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::core {

/// Schema version stamped into every serialized request/response. Bump it
/// when a field changes meaning; parsers reject documents from the future
/// so stale binaries fail loudly instead of misreading jobs.
///
/// History: schema 2 added the island-model fields (`islands`,
/// `topology`, `migration_interval`, `migration_size`). Serialization is
/// backward-compatible: a request that leaves every island field at its
/// default is stamped schema 1, so island-free jobs keep round-tripping
/// through schema-1 binaries; schema-1 documents parse unchanged (they
/// simply have no island fields, meaning one island). The schema-1
/// spelling `"algorithm": "multistart"` with `"restarts": N` (default 4)
/// parses as its schema-2 meaning: N islands with topology "none".
inline constexpr std::uint64_t kRequestSchemaVersion = 2;

/// Largest integer a request or response field carries. JSON numbers are
/// doubles, and from 2^53 on neighbouring integers round to one double, so
/// a larger value could not be read back exactly; parsers reject it, as
/// they reject values that do not fit the field they fill.
inline constexpr std::uint64_t kMaxRequestInteger =
    (std::uint64_t{1} << 53) - 1;

/// How a request interacts with the synthesis result cache (src/cache).
enum class CachePolicy : std::uint8_t {
  kOff,  ///< never read or write the cache
  kUse,  ///< serve hits directly, write verified results back (default)
  kSeed, ///< synthesize anyway, but seed the CGP run from a cache hit
};

/// Stable lowercase name ("off", "use", "seed").
std::string_view to_string(CachePolicy policy);
/// Inverse of to_string; throws std::invalid_argument on unknown names.
CachePolicy parse_cache_policy(std::string_view name);

/// The one description of a synthesis job, consumed identically by the
/// `rcgp synth` CLI flags, each `rcgp batch` manifest line, and the
/// `rcgp serve` socket protocol (docs/SERVICE.md). Every numeric field
/// follows the manifest convention: 0 (or -1 for `retries`) means "not
/// set, use the executor's default", so a request only ever overrides.
///
/// Exactly one of `circuit` and `spec` describes the function: `circuit`
/// names a file in any format the io facade reads or a built-in benchmark
/// (`rcgp list`); `spec` carries the truth tables inline (one per output,
/// all over the same inputs) so a service client needs no shared
/// filesystem.
struct SynthesisRequest {
  /// Unique job identifier. Names checkpoint/output files and is echoed in
  /// the response, so it must be filesystem-safe ([A-Za-z0-9._-]).
  std::string id;
  std::string circuit;
  std::vector<tt::TruthTable> spec;

  Algorithm algorithm = Algorithm::kEvolve;
  std::uint64_t generations = 0; ///< CGP generation budget (0 = default)
  std::uint64_t seed = 0;        ///< RNG seed (0 = default seed 1)
  unsigned lambda = 0;           ///< (1+λ) offspring count (0 = default)
  unsigned threads = 0;          ///< λ-parallel eval threads (0 = default)
  /// Island-model scale-out (schema 2, docs/ISLANDS.md): decorrelated
  /// (1+λ) lineages exchanging elites every `migration_interval`
  /// generations. 0 islands = not set (one island, plain evolve); more
  /// than one requires `algorithm: "evolve"`.
  unsigned islands = 0;
  Topology topology = Topology::kRing;
  std::uint64_t migration_interval = 0; ///< generations per epoch (0 = never)
  unsigned migration_size = 0;          ///< donor channel capacity (0 = 1)
  /// Per-job wall-clock ceiling in seconds (0 = none). The one knob that
  /// is not deterministic across machines — see docs/BATCH.md.
  double deadline_seconds = 0.0;
  std::uint64_t max_generations = 0;  ///< run-limit ceiling (0 = none)
  std::uint64_t max_evaluations = 0;  ///< run-limit ceiling (0 = none)
  std::uint64_t stagnation_limit = 0; ///< early-stop plateau (0 = off)
  /// Retry budget on integrity violations; negative = executor default.
  int retries = -1;
  CachePolicy cache = CachePolicy::kUse;

  /// 1-based source line the request was parsed from (diagnostics only;
  /// not serialized and not part of equality).
  std::size_t line = 0;

  bool has_inline_spec() const { return !spec.empty(); }

  /// Equality over every serialized field (`line` excluded).
  bool operator==(const SynthesisRequest& o) const;
};

/// Inline-spec bounds: hex-encoded tables on one JSON line stay readable
/// up to 10 inputs (256 hex digits per output); outputs are capped by the
/// cache's joint output-phase word.
inline constexpr unsigned kMaxRequestSpecVars = 10;
inline constexpr unsigned kMaxRequestSpecOutputs = 32;

/// Serializes a request as one compact JSON line: the schema version, the
/// required keys, and only the fields that differ from their defaults —
/// `parse_request(to_json(r)) == r` for every valid request.
std::string to_json(const SynthesisRequest& request);

/// Parses one request line (a flat JSON object; `spec` is the only nested
/// value, an array of hex table strings alongside `spec_vars`). Unknown
/// keys, wrong types, duplicate keys, schema versions from the future,
/// missing/unsafe ids, and circuit-plus-spec conflicts all throw
/// io::ParseError with "<format>:<source>:<line>" context — embedding
/// readers (the batch manifest, the serve protocol) pass their own format
/// label so errors name the document the user actually wrote.
SynthesisRequest parse_request(const std::string& text,
                               const std::string& source = "<string>",
                               std::size_t lineno = 0,
                               const char* format = "request");

/// Validation used by parse_request, exposed for requests built in code
/// (CLI flag assembly). Throws io::ParseError with the same context shape,
/// also for 64-bit fields above kMaxRequestInteger, so
/// `parse_request(to_json(r)) == r` holds for every request it accepts.
void validate_request(const SynthesisRequest& request,
                      const std::string& source = "<request>",
                      std::size_t lineno = 0,
                      const char* format = "request");

/// Executor-side defaults a request's zero-fields fall back to.
struct RequestDefaults {
  std::uint64_t generations = 50000;
  std::uint64_t seed = 1;
  unsigned threads = 1;
};

/// Expands a request into the full optimizer configuration it denotes:
/// request overrides applied on top of `defaults`, mirrored into the
/// anneal parameters for kAnneal jobs, and laid over `base`. Scheduling
/// wiring (stop token, checkpoint path) stays with the caller — it is not
/// part of the job description.
///
/// `base` carries what a request deliberately does not: the run
/// observers (trace sinks, heartbeat, improvement callback) and the
/// paranoia level, which only `rcgp synth` sets. The same holds for the
/// flow switches of core::FlowOptions (`--no-cgp`, `--polish`, `--pack`).
/// No manifest or daemon caller sets any of them, so request keys for
/// them would each have a single user; they stay off the schema and reach
/// the executor as the caller's base options instead.
OptimizerOptions optimizer_options_for(const SynthesisRequest& request,
                                       const RequestDefaults& defaults = {},
                                       OptimizerOptions base = {});

/// What one synthesis produced, in the same versioned JSON envelope the
/// request came in. `netlist` carries the result as `.rqfp` text so the
/// response is self-contained.
struct SynthesisResponse {
  std::string id;
  bool ok = false;
  std::string error;       ///< failure message; empty when ok
  bool cached = false;     ///< served straight from the result cache
  bool seeded = false;     ///< evolution was seeded from a cache hit
  std::string stop_reason = "completed";
  bool verified = false;   ///< exhaustive simulation check passed
  rqfp::Cost cost;
  double seconds = 0.0;
  std::string netlist;     ///< `.rqfp` text (empty on failure)

  bool operator==(const SynthesisResponse&) const = default;
};

std::string to_json(const SynthesisResponse& response);
/// Throws io::ParseError with "response:<source>:<line>" context.
SynthesisResponse parse_response(const std::string& text,
                                 const std::string& source = "<string>",
                                 std::size_t lineno = 0);

} // namespace rcgp::core
