#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "aig/aig.hpp"
#include "batch/manifest.hpp"
#include "cache/store.hpp"
#include "core/flow.hpp"
#include "core/request.hpp"
#include "robust/stop.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::batch {

/// Scheduling facts handed to the job executor alongside the job itself.
struct JobContext {
  unsigned worker = 0;  ///< worker index running this attempt
  unsigned attempt = 1; ///< 1-based (2+ = integrity retry)
  /// Per-job crash-safe checkpoint (`<out-dir>/<id>.ckpt` in a batch);
  /// empty when checkpointing is disabled or the algorithm does not
  /// support it.
  std::string checkpoint_path;
  /// Where a multi-island job keeps its island checkpoints and fleet
  /// manifest; empty = the fleet runs in memory. The runner and the
  /// daemon use fleet_state_dir(checkpoint_path), `rcgp synth` its
  /// --island-state directory.
  std::string fleet_dir;
  /// True when saved state exists and the job runs in resume mode: it
  /// continues bit-identically from the checkpoint (or, for a fleet, from
  /// fleet_dir) instead of starting over.
  bool resume_from_checkpoint = false;
  /// Cooperative stop: the batch deadline, the daemon's shutdown or the
  /// signal handler of `rcgp synth`. A batch job interrupted by it is
  /// recorded as non-final and re-run by a later `--resume`.
  robust::StopToken* stop = nullptr;
};

/// What a job execution produced. The runner turns this into a JobRecord,
/// writes the netlist, and updates the metrics.
struct JobExecution {
  /// The flow that ran. A cache hit runs none and fills only `optimized`
  /// and `optimized_cost`.
  core::FlowResult flow;
  robust::StopReason stop_reason = robust::StopReason::kCompleted;
  bool verified = false; ///< exhaustive simulation check passed
  bool cached = false;   ///< served straight from the result cache
  bool seeded = false;   ///< evolution was seeded from a cache hit
};

/// Replaceable job body of the batch runner and the daemon: the default
/// is execute_request; tests substitute deterministic or fault-injecting
/// executors. In the runner, throwing robust::IntegrityError triggers a
/// retry (fresh attempt, checkpoint discarded); any other exception fails
/// the job permanently.
using JobExecutor = std::function<JobExecution(const Job&, const JobContext&)>;

/// Executor-side configuration shared by every front end that runs
/// synthesis requests: the batch runner, the serve daemon, and `rcgp
/// synth` all expand a core::SynthesisRequest through execute_request
/// with one of these.
struct ExecuteOptions {
  /// Fallbacks for request fields left at 0 (see core::RequestDefaults);
  /// 0 threads = all hardware threads.
  std::uint64_t default_generations = 50000;
  unsigned threads_per_job = 1;
  /// Evolve checkpoint cadence in generations for the context's
  /// checkpoint path and island checkpoints (0 disables).
  std::uint64_t checkpoint_interval = 1000;
  /// Optional shared NPN-canonical result cache. When set, requests with
  /// CachePolicy::kUse are answered from it on a hit and verified results
  /// are written back on a miss; CachePolicy::kSeed requests synthesize
  /// but start evolution from a de-canonicalized hit. Not owned.
  cache::Store* cache = nullptr;
  /// Persist the cache right after every insert that changed it (the mode
  /// of the daemon and of `rcgp synth`; the batch CLI saves once at the
  /// end instead).
  bool save_cache_on_insert = false;
  /// `rcgp serve` endpoints (Unix socket paths or TCP host:port) that
  /// island slices of multi-island evolve jobs are farmed out to — island
  /// i talks to endpoints[i % size]. Empty = islands run in-process.
  /// Requires a context with a fleet directory (the fleet must be
  /// file-backed) and daemons started with --checkpoint-dir on that
  /// shared directory (docs/ISLANDS.md).
  std::vector<std::string> island_endpoints;
};

/// A circuit resolved for the flow.
struct Circuit {
  std::vector<tt::TruthTable> spec; ///< exhaustive table per output
  /// AIG-format files (Verilog, BLIF, AIGER) keep their own structure.
  std::optional<aig::Aig> aig;
  /// Output names of a file that names them; empty otherwise.
  std::vector<std::string> po_names;

  /// The AIG the flow starts from: the file's own structure, otherwise
  /// the ISOP-factored tables.
  aig::Aig flow_input() const;
};

/// The one circuit resolver of every front end: `inline_spec` when it is
/// not empty, otherwise `circuit` as a file read through the io facade (by
/// extension) or as a built-in benchmark (`rcgp list`). Throws what the
/// io/benchmark layers throw on unknown circuits.
Circuit resolve_circuit(const std::string& circuit,
                        const std::vector<tt::TruthTable>& inline_spec = {});

/// Where an island-fleet job with this evolve checkpoint path keeps its
/// state: the sibling directory `<checkpoint_path>.islands`.
std::string fleet_state_dir(const std::string& checkpoint_path);
/// True when the job left its checkpoint or its fleet manifest behind.
bool saved_state_exists(const std::string& checkpoint_path);
/// Deletes the job's checkpoint and fleet directory.
void remove_saved_state(const std::string& checkpoint_path);

/// The shared job body of `rcgp synth`, `rcgp batch` and `rcgp serve`:
/// resolve the circuit, consult the cache per the request's policy, run
/// the full synthesis flow with the request laid over `base` (see
/// core::optimizer_options_for for what only the base carries), verify
/// exhaustively, and write verified results back to the cache.
/// Scheduling facts (stop token, checkpoint path, fleet directory) come
/// from `ctx`.
JobExecution execute_request(const core::SynthesisRequest& job,
                             const JobContext& ctx,
                             const ExecuteOptions& options,
                             const core::FlowOptions& base = {});

/// Turns a finished execution into the wire response for `id` (cost,
/// stop reason, flags, and the `.rqfp` netlist text when ok).
core::SynthesisResponse response_for(const std::string& id,
                                     const JobExecution& exec,
                                     double seconds);

} // namespace rcgp::batch
