#include "batch/execute.hpp"

#include <filesystem>
#include <optional>

#include "benchmarks/benchmarks.hpp"
#include "cec/sim_cec.hpp"
#include "core/flow.hpp"
#include "io/io.hpp"
#include "io/rqfp_writer.hpp"
#include "island/island.hpp"

namespace rcgp::batch {

namespace {

/// The cache only understands specs its canonicalizer accepts.
bool cacheable(const std::vector<tt::TruthTable>& spec) {
  return !spec.empty() && spec.size() <= 32;
}

} // namespace

std::string fleet_state_dir(const std::string& checkpoint_path) {
  return checkpoint_path + ".islands";
}

bool saved_state_exists(const std::string& checkpoint_path) {
  return std::filesystem::exists(checkpoint_path) ||
         std::filesystem::exists(
             island::fleet_manifest_path(fleet_state_dir(checkpoint_path)));
}

void remove_saved_state(const std::string& checkpoint_path) {
  std::error_code ec;
  std::filesystem::remove(checkpoint_path, ec);
  std::filesystem::remove_all(fleet_state_dir(checkpoint_path), ec);
}

std::vector<tt::TruthTable> resolve_spec(const core::SynthesisRequest& job) {
  if (job.has_inline_spec()) {
    return job.spec;
  }
  if (io::format_from_extension(job.circuit) != io::Format::kAuto) {
    return io::read_network(job.circuit).to_tables();
  }
  return benchmarks::get(job.circuit).spec;
}

JobExecution execute_request(const core::SynthesisRequest& job,
                             const JobContext& ctx,
                             const ExecuteOptions& options) {
  core::RequestDefaults defaults;
  defaults.generations = options.default_generations;
  defaults.threads = options.threads_per_job;
  core::FlowOptions fo;
  static_cast<core::OptimizerOptions&>(fo) =
      core::optimizer_options_for(job, defaults);
  fo.limits.stop = ctx.stop;
  if (!ctx.checkpoint_path.empty()) {
    fo.evolve.checkpoint_path = ctx.checkpoint_path;
    fo.evolve.checkpoint_interval = options.checkpoint_interval;
    fo.resume = ctx.resume_from_checkpoint;
    if (fo.island.islands > 1) {
      fo.island.state_dir = fleet_state_dir(ctx.checkpoint_path);
    }
  }
  std::optional<island::RemoteSliceExecutor> remote;
  if (fo.island.islands > 1 && !options.island_endpoints.empty()) {
    remote.emplace(options.island_endpoints);
    fo.island.executor = &*remote;
  }

  // Resolve the circuit: inline spec, file via the io facade, or a
  // built-in benchmark. AIG sources keep their structural entry into the
  // flow; everything else enters through exhaustive truth tables.
  std::vector<tt::TruthTable> spec;
  std::optional<aig::Aig> structural;
  std::vector<std::string> po_names;
  if (job.has_inline_spec()) {
    spec = job.spec;
  } else if (io::format_from_extension(job.circuit) != io::Format::kAuto) {
    io::Network net = io::read_network(job.circuit);
    spec = net.to_tables();
    po_names = net.po_names;
    if (net.aig) {
      structural = std::move(*net.aig);
    }
  } else {
    spec = benchmarks::get(job.circuit).spec;
  }

  JobExecution exec;
  cache::Store* cache =
      job.cache != core::CachePolicy::kOff && cacheable(spec) ? options.cache
                                                              : nullptr;

  // Fast path: a kUse hit skips synthesis entirely. The store re-verified
  // the de-canonicalized netlist by simulation, so it is final.
  if (cache != nullptr && job.cache == core::CachePolicy::kUse) {
    if (auto hit = cache->lookup(spec)) {
      exec.netlist = std::move(hit->netlist);
      exec.cost = hit->cost;
      exec.stop_reason = robust::StopReason::kCompleted;
      exec.verified = true;
      exec.cached = true;
      return exec;
    }
  }

  // kSeed: synthesize, but start evolution from a de-canonicalized hit
  // (the flow validates it and falls back to the mapped baseline if it
  // does not fit — flow.seed.used / flow.seed.rejected count which).
  std::optional<cache::Hit> seed;
  if (cache != nullptr && job.cache == core::CachePolicy::kSeed) {
    seed = cache->lookup(spec);
    if (seed) {
      fo.cgp_seed = &seed->netlist;
      exec.seeded = true;
    }
  }

  const core::FlowResult r =
      structural ? core::synthesize(*structural, fo)
                 : core::synthesize(core::aig_from_tables(spec, po_names), fo);

  exec.netlist = r.optimized;
  exec.cost = r.optimized_cost;
  exec.stop_reason = r.optimization.stop_reason;
  exec.verified = cec::sim_check(r.optimized, spec).all_match;

  // Write back: completed, verified results feed later requests of the
  // same NPN class (keep-best, so a worse rediscovery never regresses).
  if (cache != nullptr && exec.verified &&
      exec.stop_reason != robust::StopReason::kStopRequested) {
    if (cache->insert(spec, exec.netlist, "cgp") &&
        options.save_cache_on_insert) {
      cache->save();
    }
  }
  return exec;
}

core::SynthesisResponse response_for(const std::string& id,
                                     const JobExecution& exec,
                                     double seconds) {
  core::SynthesisResponse resp;
  resp.id = id;
  resp.cached = exec.cached;
  resp.seeded = exec.seeded;
  resp.stop_reason = std::string(robust::to_string(exec.stop_reason));
  resp.verified = exec.verified;
  resp.cost = exec.cost;
  resp.seconds = seconds;
  resp.ok = exec.verified &&
            exec.stop_reason != robust::StopReason::kStopRequested;
  if (resp.ok) {
    resp.netlist = io::write_rqfp_string(exec.netlist);
  } else if (!exec.verified) {
    resp.error = "result failed verification";
  } else {
    resp.error = "interrupted";
  }
  return resp;
}

} // namespace rcgp::batch
