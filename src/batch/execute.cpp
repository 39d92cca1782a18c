#include "batch/execute.hpp"

#include <filesystem>
#include <optional>

#include "benchmarks/benchmarks.hpp"
#include "cec/sim_cec.hpp"
#include "io/io.hpp"
#include "io/rqfp_writer.hpp"
#include "island/island.hpp"
#include "obs/trace.hpp"

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

aig::Aig Circuit::flow_input() const {
  return aig ? *aig : core::aig_from_tables(spec, po_names);
}

Circuit resolve_circuit(const std::string& circuit,
                        const std::vector<tt::TruthTable>& inline_spec) {
  Circuit resolved;
  if (!inline_spec.empty()) {
    resolved.spec = inline_spec;
  } else if (io::format_from_extension(circuit) != io::Format::kAuto) {
    io::Network net = io::read_network(circuit);
    resolved.spec = net.to_tables();
    resolved.aig = std::move(net.aig);
    resolved.po_names = std::move(net.po_names);
  } else {
    resolved.spec = benchmarks::get(circuit).spec;
  }
  return resolved;
}

JobExecution execute_request(const core::SynthesisRequest& job,
                             const JobContext& ctx,
                             const ExecuteOptions& options,
                             const core::FlowOptions& base) {
  const Circuit circuit = resolve_circuit(job.circuit, job.spec);
  JobExecution exec;
  cache::Store* cache = job.cache != core::CachePolicy::kOff &&
                                cacheable(circuit.spec)
                            ? options.cache
                            : nullptr;

  // Fast path: a kUse hit skips synthesis entirely. The store re-verified
  // the de-canonicalized netlist by simulation, so it is final.
  if (cache != nullptr && job.cache == core::CachePolicy::kUse) {
    if (auto hit = cache->lookup(circuit.spec)) {
      if (obs::TraceSink* trace = base.evolve.trace) {
        trace->event("cache_hit")
            .field("key", hit->key)
            .field("origin", hit->origin)
            .field("n_r", hit->cost.n_r)
            .field("n_g", hit->cost.n_g)
            .field("n_b", hit->cost.n_b)
            .field("jjs", hit->cost.jjs);
      }
      exec.flow.optimized = std::move(hit->netlist);
      exec.flow.optimized_cost = hit->cost;
      exec.verified = true;
      exec.cached = true;
      return exec;
    }
  }

  core::RequestDefaults defaults;
  defaults.generations = options.default_generations;
  defaults.threads = options.threads_per_job;
  core::FlowOptions fo = base;
  static_cast<core::OptimizerOptions&>(fo) =
      core::optimizer_options_for(job, defaults, base);
  fo.limits.stop = ctx.stop;
  fo.resume = ctx.resume_from_checkpoint;
  fo.evolve.checkpoint_path = ctx.checkpoint_path;
  fo.evolve.checkpoint_interval = options.checkpoint_interval;
  std::optional<island::RemoteSliceExecutor> remote;
  if (fo.island.islands > 1) {
    fo.island.state_dir = ctx.fleet_dir;
    if (!options.island_endpoints.empty()) {
      remote.emplace(options.island_endpoints);
      fo.island.executor = &*remote;
    }
  }

  // kSeed: synthesize, but start evolution from a de-canonicalized hit
  // (the flow validates it and falls back to the mapped baseline if it
  // does not fit — flow.seed.used / flow.seed.rejected count which).
  std::optional<cache::Hit> seed;
  if (cache != nullptr && job.cache == core::CachePolicy::kSeed) {
    seed = cache->lookup(circuit.spec);
    if (seed) {
      fo.cgp_seed = &seed->netlist;
      exec.seeded = true;
    }
  }

  exec.flow = core::synthesize(circuit.flow_input(), fo);
  exec.stop_reason = exec.flow.optimization.stop_reason;
  exec.verified = cec::sim_check(exec.flow.optimized, circuit.spec).all_match;

  // Write back: completed, verified results feed later requests of the
  // same NPN class (keep-best, so a worse rediscovery never regresses).
  if (cache != nullptr && exec.verified &&
      exec.stop_reason != robust::StopReason::kStopRequested) {
    if (cache->insert(circuit.spec, exec.flow.optimized, "cgp") &&
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
  resp.cost = exec.flow.optimized_cost;
  resp.seconds = seconds;
  resp.ok = exec.verified &&
            exec.stop_reason != robust::StopReason::kStopRequested;
  if (resp.ok) {
    resp.netlist = io::write_rqfp_string(exec.flow.optimized);
  } else if (!exec.verified) {
    resp.error = "result failed verification";
  } else {
    resp.error = "interrupted";
  }
  return resp;
}

} // namespace rcgp::batch
