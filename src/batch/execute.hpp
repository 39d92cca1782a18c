#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "batch/runner.hpp"
#include "cache/store.hpp"
#include "core/request.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::batch {

/// Executor-side configuration shared by every front end that runs
/// synthesis requests: the batch runner, the serve daemon, and the
/// single-shot CLI all expand a core::SynthesisRequest through
/// execute_request with one of these.
struct ExecuteOptions {
  /// Fallbacks for request fields left at 0 (see core::RequestDefaults).
  std::uint64_t default_generations = 50000;
  unsigned threads_per_job = 1;
  /// Evolve checkpoint cadence when the context carries a checkpoint path
  /// (0 disables).
  std::uint64_t checkpoint_interval = 1000;
  /// Optional shared NPN-canonical result cache. When set, requests with
  /// CachePolicy::kUse are answered from it on a hit and verified results
  /// are written back on a miss; CachePolicy::kSeed requests synthesize
  /// but start evolution from a de-canonicalized hit. Not owned.
  cache::Store* cache = nullptr;
  /// Persist the cache right after every insert that changed it (the serve
  /// daemon's mode; the batch CLI saves once at the end instead).
  bool save_cache_on_insert = false;
  /// `rcgp serve` endpoints (Unix socket paths or TCP host:port) that
  /// island slices of multi-island evolve jobs are farmed out to — island
  /// i talks to endpoints[i % size]. Empty = islands run in-process.
  /// Requires a checkpointing context (the fleet must be file-backed) and
  /// daemons started with --checkpoint-dir on the shared state directory
  /// (docs/ISLANDS.md).
  std::vector<std::string> island_endpoints;
};

/// Where an island-fleet job with this evolve checkpoint path keeps its
/// state: the sibling directory `<checkpoint_path>.islands`.
std::string fleet_state_dir(const std::string& checkpoint_path);
/// True when the job left its checkpoint or its fleet manifest behind.
bool saved_state_exists(const std::string& checkpoint_path);
/// Deletes the job's checkpoint and fleet directory.
void remove_saved_state(const std::string& checkpoint_path);

/// Resolves the function a request describes: the inline spec when
/// present, otherwise the circuit file (io facade) or built-in benchmark.
/// Throws what the io/benchmark layers throw on unknown circuits.
std::vector<tt::TruthTable> resolve_spec(const core::SynthesisRequest& job);

/// The shared job body: resolve the spec, consult the cache per the
/// request's policy, run the full synthesis flow with the job's overrides
/// layered over `options`, verify exhaustively, and write verified
/// results back to the cache. Scheduling facts (worker, stop token,
/// checkpoint path) come from `ctx` exactly as in the batch runner.
JobExecution execute_request(const core::SynthesisRequest& job,
                             const JobContext& ctx,
                             const ExecuteOptions& options);

/// Turns a finished execution into the wire response for `id` (cost,
/// stop reason, flags, and the `.rqfp` netlist text when ok).
core::SynthesisResponse response_for(const std::string& id,
                                     const JobExecution& exec,
                                     double seconds);

} // namespace rcgp::batch
