// rcgp — command-line front-end to the RCGP synthesis framework.
//
//   rcgp synth <input> [options]   synthesize an RQFP circuit
//   rcgp batch <manifest> [options] run a manifest of synthesis jobs
//                                  across a worker pool (docs/BATCH.md)
//   rcgp fuzz [options]            continuous differential fuzzing of the
//                                  io/optimizer/CEC layers (docs/FUZZING.md)
//   rcgp serve [options]           synthesis daemon on a Unix socket,
//                                  NDJSON request/response (docs/SERVICE.md)
//   rcgp client [requests.jsonl]   submit request lines to a running daemon
//   rcgp cache <warm|stats|verify> manage the NPN-canonical result cache
//   rcgp exact <input> [options]   SAT-based exact synthesis (baseline)
//   rcgp cec <a.rqfp> <b.rqfp>     equivalence check two RQFP netlists
//   rcgp stats <x.rqfp>            cost metrics of an RQFP netlist
//   rcgp list                      list built-in benchmark names
//   rcgp version                   print version information
//
// <input> is a file (.v .blif .aag .pla .real .rqfp by extension) or the
// name of a built-in benchmark (see `rcgp list`).
//
// Observability (see docs/OBSERVABILITY.md):
//   synth --trace-out=t.jsonl    JSONL evolution trace (one event/line)
//   synth --metrics-out=m.json   metrics registry + per-phase wall times
//   synth --profile-out=p.json   span profile as Chrome trace-event JSON
//                                (loadable in ui.perfetto.dev)
//   synth --prom-out=m.prom      Prometheus text exposition snapshot
//   synth --metrics-snapshot-every=SECONDS
//                                periodic atomic re-export of --metrics-out
//                                and --prom-out while the run is live
//   synth --progress             live improvements on stderr
//   batch                        same --trace-out/--metrics-out/--profile-out/
//                                --prom-out/--metrics-snapshot-every surface
//   report --profile= --trace= --metrics=
//                                human-readable run report from any subset
//                                of the exported artifacts
//   stats/cec --json             machine-readable records on stdout
//
// Parallelism (see docs/PARALLELISM.md):
//   synth --threads=N            λ-parallel offspring evaluation (0 = all
//                                hardware threads, the default), capped at
//                                ⌈λ/4⌉ threads. Results are bit-identical
//                                for every thread count.
//   synth --optimizer=NAME       evolve | anneal | window
//
// Island model (see docs/ISLANDS.md):
//   synth --islands=N            N decorrelated (1+λ) lineages exchanging
//                                elites; bit-identical for any placement
//   synth --topology=NAME        none | ring | star | full (none = N
//                                independent runs splitting the budget)
//   synth --migration-interval=E elite exchange every E generations
//   synth --migration-size=K     donors considered per exchange
//   synth --island-state=DIR     per-island checkpoints + fleet manifest
//                                (with --resume: continue a killed fleet)
//   synth --island-endpoints=A,B farm slices out to `rcgp serve` daemons
//                                (Unix socket paths or TCP host:port)
//   serve --listen=HOST:PORT     TCP transport instead of the Unix socket
//   serve --checkpoint-dir=DIR   per-job evolve checkpoints (island workers)
//   client --connect=ADDR        socket path or host:port
//   batch --island-endpoints=A,B island workers for multi-island jobs
//
// Robustness (see docs/ROBUSTNESS.md):
//   synth --checkpoint=c.ckpt    crash-safe periodic state snapshots
//   synth --checkpoint-interval=N  generations between snapshots
//   synth --resume               continue from --checkpoint bit-identically
//   synth --deadline=SECONDS     wall-clock budget (clean best-so-far exit)
//   synth --paranoia=LEVEL       off | boundaries | all invariant checking
//   SIGINT/SIGTERM stop the run cooperatively: the checkpoint is flushed
//   and the best-so-far netlist written. Exit codes: 0 ok, 1 error or not
//   equivalent, 2 usage, 3 interrupted by signal, 4 integrity violation.
//
// Result cache (see docs/SERVICE.md):
//   synth --cache=FILE           consult/fill the persistent result store
//   synth --cache-policy=MODE    use (serve hits, write back) | seed (start
//                                evolution from a hit) | off
//   batch --cache=FILE           same store shared across the worker pool
//   serve --socket= --cache=     daemon; every verified result persists
//   cache warm --store=FILE      exact-synthesize all <=4-input NPN classes

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "aqfp/aqfp.hpp"
#include "batch/execute.hpp"
#include "batch/manifest.hpp"
#include "batch/runner.hpp"
#include "benchmarks/benchmarks.hpp"
#include "cache/store.hpp"
#include "cache/warm.hpp"
#include "cec/bdd_cec.hpp"
#include "cec/sat_cec.hpp"
#include "core/flow.hpp"
#include "core/request.hpp"
#include "exact/exact_rqfp.hpp"
#include "fuzz/harness.hpp"
#include "io/io.hpp"
#include "io/parse_error.hpp"
#include "io/rqfp_writer.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/snapshot.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "robust/integrity.hpp"
#include "robust/stop.hpp"
#include "rqfp/cost.hpp"
#include "rqfp/energy.hpp"
#include "rqfp/reversibility.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/durable.hpp"
#include "version.hpp"

namespace {

using namespace rcgp;

/// A malformed command line; main() prints `<cmd>: <message>` and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The one conversion of numeric flag values: a whole decimal that fits
/// T and is at least `min`, or for a seconds value (T = double) a finite
/// number >= 0. Anything else throws UsageError naming the flag.
template <typename T>
T flag_number(std::string_view flag, const std::string& value, T min = 0) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc() || ptr != end || !(out >= min) ||
      !std::isfinite(static_cast<double>(out))) {
    throw UsageError("bad value for " + std::string(flag) + ": " + value);
  }
  return out;
}

/// Matches `--name=value` (returns true, sets `value`) for option parsing.
bool opt_value(const std::string& arg, const char* name, std::string& value) {
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) == 0) {
    value = arg.substr(prefix.size());
    return true;
  }
  return false;
}

/// "a,b,c" → {"a", "b", "c"} (empty pieces dropped).
std::vector<std::string> split_csv(const std::string& value) {
  std::vector<std::string> out;
  std::istringstream in(value);
  for (std::string piece; std::getline(in, piece, ',');) {
    if (!piece.empty()) {
      out.push_back(piece);
    }
  }
  return out;
}

/// Opens --trace-out with log lines routed into it; nullptr when `path` is
/// empty. Throws when the file cannot be written.
std::unique_ptr<obs::TraceSink> open_trace(const std::string& path) {
  if (path.empty()) {
    return nullptr;
  }
  auto trace = obs::TraceSink::open(path);
  if (!trace) {
    throw std::runtime_error("cannot write " + path);
  }
  trace->attach_to_log();
  return trace;
}

/// Shared --profile-out / --prom-out / --metrics-snapshot-every surface of
/// the synth and batch subcommands: span profiling around the run, a
/// Prometheus text snapshot after it, and an optional periodic snapshot
/// writer while it is live.
struct ProfileFlags {
  std::string profile_path;
  std::string prom_path;
  double snapshot_every = 0.0;

  bool parse(const std::string& arg) {
    std::string v;
    if (opt_value(arg, "--profile-out", profile_path) ||
        opt_value(arg, "--prom-out", prom_path)) {
      return true;
    }
    if (opt_value(arg, "--metrics-snapshot-every", v)) {
      snapshot_every = flag_number<double>("--metrics-snapshot-every", v);
      return true;
    }
    return false;
  }

  /// Call before the run: turns the span profiler on and starts the
  /// periodic snapshotter (which re-exports `metrics_path` as a bare
  /// registry document and `prom_path` as Prometheus text).
  void begin(const std::string& metrics_path) {
    if (!profile_path.empty()) {
      obs::set_thread_name("main");
      obs::set_profiling_enabled(true);
    }
    if (snapshot_every > 0.0 &&
        (!metrics_path.empty() || !prom_path.empty())) {
      snapshotter_ = std::make_unique<obs::MetricsSnapshotter>(
          obs::MetricsSnapshotter::Options{metrics_path, prom_path,
                                           snapshot_every});
    }
  }

  /// Call after the run: stops the snapshotter (one final snapshot — the
  /// caller's own final metrics write may then overwrite it with a richer
  /// document) and writes the profile and Prometheus outputs. Returns
  /// false on an I/O failure, with the message already printed.
  bool finish(const char* cmd) {
    snapshotter_.reset();
    if (!profile_path.empty()) {
      obs::set_profiling_enabled(false);
      if (!obs::write_chrome_trace(profile_path)) {
        std::fprintf(stderr, "%s: cannot write %s\n", cmd,
                     profile_path.c_str());
        return false;
      }
      std::printf("wrote %s (%zu spans)\n", profile_path.c_str(),
                  obs::profile_spans().size());
    }
    if (!prom_path.empty()) {
      if (!obs::registry().write_prometheus(prom_path)) {
        std::fprintf(stderr, "%s: cannot write %s\n", cmd,
                     prom_path.c_str());
        return false;
      }
      std::printf("wrote %s\n", prom_path.c_str());
    }
    return true;
  }

private:
  std::unique_ptr<obs::MetricsSnapshotter> snapshotter_;
};

/// The synth metrics document: flow timing breakdown + the full metrics
/// registry snapshot. A cache hit runs no flow, so it writes the bare
/// registry document.
std::string synth_metrics_json(const batch::JobExecution& exec) {
  if (exec.cached) {
    return obs::registry().to_json() + "\n";
  }
  const core::FlowResult& result = exec.flow;
  obs::json::Writer w;
  w.begin_object();
  w.key("flow").begin_object();
  w.field("seconds_total", result.seconds_total);
  w.key("phases").begin_object();
  for (const auto& r : result.phases) {
    if (r.depth == 0) {
      w.field(r.path, r.seconds);
    }
  }
  w.end_object();
  w.key("nested_phases").begin_object();
  for (const auto& r : result.phases) {
    if (r.depth > 0) {
      w.field(r.path, r.seconds);
    }
  }
  w.end_object();
  const core::EvolveResult& evolution = result.optimization.evolve;
  w.key("evolution").begin_object();
  w.field("generations_run", evolution.generations_run);
  w.field("evaluations", evolution.evaluations);
  w.field("improvements", evolution.improvements);
  w.field("sat_confirmations", evolution.sat_confirmations);
  w.field("sat_cec_conflicts", evolution.sat_cec_conflicts);
  w.end_object();
  w.end_object();
  w.key("metrics");
  // The registry snapshot is itself a complete JSON object; splice it in.
  return w.str() + obs::registry().to_json() + "}\n";
}

int cmd_list() {
  std::printf("Table 1 (small):");
  for (const auto& n : benchmarks::table1_names()) {
    std::printf(" %s", n.c_str());
  }
  std::printf("\nTable 2 (large):");
  for (const auto& n : benchmarks::table2_names()) {
    std::printf(" %s", n.c_str());
  }
  std::printf("\n");
  return 0;
}

int cmd_synth(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::fprintf(stderr,
                 "usage: rcgp synth <input> [-g N] [-s seed] [-o out.rqfp] "
                 "[--dot out.dot] [--no-cgp] [--polish] [--pack]\n"
                 "                 [--threads=N] "
                 "[--optimizer=evolve|anneal|window]\n"
                 "                 [--islands=N] "
                 "[--topology=none|ring|star|full] [--migration-interval=E] "
                 "[--migration-size=K]\n"
                 "                 [--island-state=DIR] "
                 "[--island-endpoints=ADDR,ADDR,...]\n"
                 "                 [--trace-out=t.jsonl] "
                 "[--metrics-out=m.json] [--heartbeat=N] [--progress]\n"
                 "                 [--profile-out=p.json] [--prom-out=m.prom] "
                 "[--metrics-snapshot-every=SECONDS]\n"
                 "                 [--checkpoint=c.ckpt] "
                 "[--checkpoint-interval=N] [--resume] [--deadline=SECONDS]\n"
                 "                 [--paranoia=off|boundaries|all] "
                 "[--cache=store.rcc] [--cache-policy=use|seed|off]\n");
    return 2;
  }
  // The job itself is a request, exactly as a manifest line or a socket
  // line would spell it; scheduling goes into the context, executor
  // settings into ExecuteOptions, and what a request does not carry
  // (flow switches, paranoia, observers) into the base flow options.
  core::SynthesisRequest job;
  job.id = "synth";
  job.circuit = args[0];
  batch::JobContext ctx;
  batch::ExecuteOptions exec_options;
  exec_options.threads_per_job = 0; // all hardware threads
  exec_options.save_cache_on_insert = true;
  core::FlowOptions base;
  std::string out_path;
  std::string dot_path;
  std::string trace_path;
  std::string metrics_path;
  std::string cache_path;
  ProfileFlags prof;
  bool progress = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    std::string v;
    if (prof.parse(args[i])) {
      // value captured
    } else if (args[i] == "-g" && i + 1 < args.size()) {
      job.generations = flag_number<std::uint64_t>("-g", args[++i], 1);
    } else if (args[i] == "-s" && i + 1 < args.size()) {
      job.seed = flag_number<std::uint64_t>("-s", args[++i], 1);
    } else if (args[i] == "-o" && i + 1 < args.size()) {
      out_path = args[++i];
    } else if (args[i] == "--dot" && i + 1 < args.size()) {
      dot_path = args[++i];
    } else if (args[i] == "--no-cgp") {
      base.run_cgp = false;
    } else if (args[i] == "--polish") {
      base.run_exact_polish = true;
    } else if (args[i] == "--pack") {
      base.pack_shared_fanins = true;
    } else if (opt_value(args[i], "--trace-out", trace_path) ||
               opt_value(args[i], "--metrics-out", metrics_path)) {
      // value captured
    } else if (args[i] == "--trace-out" && i + 1 < args.size()) {
      trace_path = args[++i];
    } else if (args[i] == "--metrics-out" && i + 1 < args.size()) {
      metrics_path = args[++i];
    } else if (opt_value(args[i], "--heartbeat", v)) {
      base.evolve.trace_heartbeat = base.anneal.trace_heartbeat =
          flag_number<std::uint64_t>("--heartbeat", v);
    } else if (args[i] == "--progress") {
      progress = true;
    } else if (opt_value(args[i], "--threads", v)) {
      job.threads = flag_number<unsigned>("--threads", v);
    } else if (opt_value(args[i], "--optimizer", v)) {
      job.algorithm = core::parse_algorithm(v);
    } else if (opt_value(args[i], "--islands", v)) {
      job.islands = flag_number<unsigned>("--islands", v);
    } else if (opt_value(args[i], "--topology", v)) {
      job.topology = core::parse_topology(v);
    } else if (opt_value(args[i], "--migration-interval", v)) {
      job.migration_interval =
          flag_number<std::uint64_t>("--migration-interval", v);
    } else if (opt_value(args[i], "--migration-size", v)) {
      job.migration_size = flag_number<unsigned>("--migration-size", v);
    } else if (opt_value(args[i], "--island-state", v)) {
      ctx.fleet_dir = v;
    } else if (opt_value(args[i], "--island-endpoints", v)) {
      exec_options.island_endpoints = split_csv(v);
    } else if (opt_value(args[i], "--checkpoint", v)) {
      ctx.checkpoint_path = v;
    } else if (opt_value(args[i], "--checkpoint-interval", v)) {
      exec_options.checkpoint_interval =
          flag_number<std::uint64_t>("--checkpoint-interval", v);
    } else if (args[i] == "--resume") {
      ctx.resume_from_checkpoint = true;
    } else if (opt_value(args[i], "--deadline", v)) {
      job.deadline_seconds = flag_number<double>("--deadline", v);
    } else if (opt_value(args[i], "--paranoia", v)) {
      base.evolve.paranoia = robust::parse_paranoia(v);
    } else if (opt_value(args[i], "--cache", cache_path)) {
      // value captured
    } else if (opt_value(args[i], "--cache-policy", v)) {
      job.cache = core::parse_cache_policy(v);
    } else {
      throw UsageError("unknown option " + args[i]);
    }
  }
  if (ctx.resume_from_checkpoint && ctx.checkpoint_path.empty() &&
      ctx.fleet_dir.empty()) {
    throw UsageError("--resume requires --checkpoint=PATH "
                     "(or --island-state=DIR for island fleets)");
  }
  if (!exec_options.island_endpoints.empty() && ctx.fleet_dir.empty()) {
    throw UsageError("--island-endpoints requires --island-state=DIR on a "
                     "filesystem the daemons share (their --checkpoint-dir)");
  }
  try {
    core::validate_request(job, "flags", 0, "synth");
  } catch (const io::ParseError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  // First SIGINT/SIGTERM requests a cooperative stop (best-so-far is
  // written and the checkpoint flushed); a second one force-kills.
  static robust::StopToken signal_token;
  ctx.stop = &robust::install_signal_stop(signal_token);

  const auto trace = open_trace(trace_path);
  base.evolve.trace = base.anneal.trace = trace.get();
  if (progress) {
    base.evolve.on_improvement = [](std::uint64_t gen,
                                    const core::Fitness& fit) {
      std::fprintf(stderr, "  gen %llu: %s\n",
                   static_cast<unsigned long long>(gen),
                   fit.to_string().c_str());
    };
  }
  // Result cache: a `use` hit skips synthesis entirely; a `seed` hit
  // starts the CGP phase from the stored netlist instead. Verified
  // results are written back and saved at once.
  std::optional<cache::Store> store;
  if (!cache_path.empty() && job.cache != core::CachePolicy::kOff) {
    store.emplace(cache_path);
    exec_options.cache = &*store;
  }

  prof.begin(metrics_path);
  const batch::JobExecution exec =
      batch::execute_request(job, ctx, exec_options, base);
  const bool prof_ok = prof.finish("synth");
  const core::FlowResult& r = exec.flow;
  if (store) {
    std::printf("cache: %s — %zu entries in %s\n",
                exec.cached   ? "hit"
                : exec.seeded ? "seeded"
                              : "miss",
                store->size(), store->path().c_str());
  }
  if (exec.cached) {
    std::printf("rcgp: %s (cached)\n", r.optimized_cost.to_string().c_str());
  } else {
    std::printf("init: %s\n", r.initial_cost.to_string().c_str());
    std::printf("rcgp: %s (%.2fs)\n", r.optimized_cost.to_string().c_str(),
                r.seconds_total);
  }
  std::printf("equivalent: %s\n", exec.verified ? "yes" : "NO");
  const bool interrupted = signal_token.stop_requested();
  if (interrupted) {
    std::fprintf(stderr, "synth: interrupted by signal — best-so-far kept%s\n",
                 ctx.checkpoint_path.empty() ? "" : ", checkpoint flushed");
  }
  if (!metrics_path.empty()) {
    util::write_file_durable(metrics_path, synth_metrics_json(exec));
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  if (trace) {
    std::printf("wrote %s (%llu events)\n", trace_path.c_str(),
                static_cast<unsigned long long>(trace->lines_written()));
  }
  if (!out_path.empty()) {
    // Format follows the extension (.rqfp / .v / .dot); an unrecognized
    // extension keeps the historical default of .rqfp interchange.
    const io::Format f = io::format_from_extension(out_path);
    io::write_network(r.optimized, out_path,
                      f == io::Format::kAuto ? io::Format::kRqfp : f);
    std::printf("wrote %s\n", out_path.c_str());
  }
  if (!dot_path.empty()) {
    io::write_network(r.optimized, dot_path, io::Format::kDot);
    std::printf("wrote %s\n", dot_path.c_str());
  }
  if (!exec.verified || !prof_ok) {
    return 1;
  }
  return interrupted ? 3 : 0;
}

int cmd_batch(const std::vector<std::string>& args) {
  std::string manifest_path;
  std::string metrics_path;
  std::string trace_path;
  std::string cache_path;
  ProfileFlags prof;
  batch::BatchOptions opt;
  bool usage_error = args.empty();
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string v;
    if (prof.parse(args[i])) {
      // value captured
    } else if (opt_value(args[i], "--trace-out", trace_path)) {
      // value captured
    } else if (opt_value(args[i], "--manifest", v)) {
      manifest_path = v;
    } else if (opt_value(args[i], "--jobs", v)) {
      opt.workers = flag_number<unsigned>("--jobs", v);
    } else if (opt_value(args[i], "--out-dir", v)) {
      opt.out_dir = v;
    } else if (args[i] == "--resume") {
      opt.resume = true;
    } else if (opt_value(args[i], "--deadline", v)) {
      opt.budget.deadline_seconds = flag_number<double>("--deadline", v);
    } else if (opt_value(args[i], "--retries", v)) {
      opt.default_retries = flag_number<unsigned>("--retries", v);
    } else if (opt_value(args[i], "--checkpoint-interval", v)) {
      opt.execute.checkpoint_interval =
          flag_number<std::uint64_t>("--checkpoint-interval", v);
    } else if (opt_value(args[i], "--generations", v)) {
      opt.execute.default_generations =
          flag_number<std::uint64_t>("--generations", v);
    } else if (opt_value(args[i], "--threads-per-job", v)) {
      opt.execute.threads_per_job =
          flag_number<unsigned>("--threads-per-job", v);
    } else if (opt_value(args[i], "--island-endpoints", v)) {
      opt.execute.island_endpoints = split_csv(v);
    } else if (opt_value(args[i], "--metrics-out", v)) {
      metrics_path = v;
    } else if (opt_value(args[i], "--cache", cache_path)) {
      // value captured
    } else if (i == 0 && args[i][0] != '-') {
      manifest_path = args[i]; // positional manifest
    } else {
      std::fprintf(stderr, "batch: unknown option %s\n", args[i].c_str());
      usage_error = true;
    }
  }
  if (manifest_path.empty()) {
    usage_error = true;
  }
  if (usage_error) {
    std::fprintf(stderr,
                 "usage: rcgp batch <manifest.jsonl> [--manifest=FILE] "
                 "[--jobs=N] [--out-dir=DIR] [--resume]\n"
                 "                  [--deadline=SECONDS] [--retries=N] "
                 "[--checkpoint-interval=N]\n"
                 "                  [--generations=N] [--threads-per-job=N] "
                 "[--cache=store.rcc]\n"
                 "                  [--island-endpoints=ADDR,ADDR,...]\n"
                 "                  [--metrics-out=m.json] "
                 "[--trace-out=t.jsonl]\n"
                 "                  [--profile-out=p.json] [--prom-out=m.prom] "
                 "[--metrics-snapshot-every=SECONDS]\n");
    return 2;
  }
  // First SIGINT/SIGTERM interrupts the batch cooperatively (running jobs
  // checkpoint and are re-run by --resume); a second one force-kills.
  static robust::StopToken signal_token;
  opt.budget.stop = &robust::install_signal_stop(signal_token);

  // One shared store across the worker pool; the runner saves it once
  // after the batch so concurrent jobs never race on the file.
  std::optional<cache::Store> store;
  if (!cache_path.empty()) {
    store.emplace(cache_path);
    opt.execute.cache = &*store;
    std::printf("cache: %s (%zu entries)\n", cache_path.c_str(),
                store->size());
  }

  const auto trace = open_trace(trace_path);
  opt.trace = trace.get();

  const auto manifest = batch::parse_manifest_file(manifest_path);
  const unsigned total = static_cast<unsigned>(manifest.jobs.size());
  opt.on_record = [total](const batch::JobRecord& rec) {
    std::printf("%s: %s%s%s (gates=%u garbage=%u jjs=%llu, %.2fs, "
                "worker %u)\n",
                rec.id.c_str(),
                rec.ok          ? "ok"
                : rec.final_record ? "FAILED"
                                   : "interrupted",
                rec.cached   ? " [cached]"
                : rec.seeded ? " [seeded]"
                             : "",
                rec.error.empty() ? "" : (" — " + rec.error).c_str(),
                rec.n_r, rec.n_g, static_cast<unsigned long long>(rec.jjs),
                rec.seconds, rec.worker);
    std::fflush(stdout);
  };
  prof.begin(metrics_path);
  const auto summary = batch::run_batch(manifest, opt);
  if (trace) {
    trace->event("batch_end")
        .field("total", summary.total)
        .field("done", summary.done)
        .field("failed", summary.failed)
        .field("skipped", summary.skipped)
        .field("unrun", summary.unrun)
        .field("seconds", summary.seconds)
        .field("stop_reason", robust::to_string(summary.stop_reason));
  }
  const bool prof_ok = prof.finish("batch");

  std::printf("batch: %u jobs — %u done, %u failed, %u skipped, %u unrun "
              "(%.2fs)\n",
              summary.total, summary.done, summary.failed, summary.skipped,
              summary.unrun, summary.seconds);
  std::printf("results: %s\n", summary.results_path.c_str());
  if (store) {
    std::printf("cache: %llu hits, %llu misses — %zu entries in %s\n",
                static_cast<unsigned long long>(
                    obs::registry().counter("cache.hits").value()),
                static_cast<unsigned long long>(
                    obs::registry().counter("cache.misses").value()),
                store->size(), store->path().c_str());
  }
  if (summary.stop_reason != robust::StopReason::kCompleted) {
    std::fprintf(stderr, "batch: stopped early (%s) — rerun with --resume "
                         "to finish the remaining jobs\n",
                 robust::to_string(summary.stop_reason).c_str());
  }
  if (!metrics_path.empty()) {
    if (!obs::registry().write_json(metrics_path)) {
      std::fprintf(stderr, "batch: cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  if (trace) {
    std::printf("wrote %s (%llu events)\n", trace_path.c_str(),
                static_cast<unsigned long long>(trace->lines_written()));
  }
  if (summary.stop_reason != robust::StopReason::kCompleted) {
    return 3;
  }
  return summary.failed == 0 && prof_ok ? 0 : 1;
}

int cmd_fuzz(const std::vector<std::string>& args) {
  fuzz::FuzzOptions opt;
  std::string metrics_path;
  ProfileFlags prof;
  bool usage_error = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string v;
    if (prof.parse(args[i])) {
      // value captured
    } else if (opt_value(args[i], "--targets", v)) {
      opt.targets.clear();
      for (const std::string& name : split_csv(v)) {
        opt.targets.push_back(fuzz::parse_target(name));
      }
    } else if (opt_value(args[i], "--seed", v)) {
      opt.seed = flag_number<std::uint64_t>("--seed", v);
    } else if (opt_value(args[i], "--cases", v)) {
      opt.cases = flag_number<std::uint64_t>("--cases", v);
    } else if (opt_value(args[i], "--case", v)) {
      opt.only_case = flag_number<std::uint64_t>("--case", v);
    } else if (opt_value(args[i], "--out-dir", v)) {
      opt.out_dir = v;
    } else if (opt_value(args[i], "--log", v)) {
      opt.log_path = v;
    } else if (opt_value(args[i], "--deadline", v)) {
      opt.budget.deadline_seconds = flag_number<double>("--deadline", v);
    } else if (args[i] == "--no-shrink") {
      opt.shrink = false;
    } else if (opt_value(args[i], "--metrics-out", v)) {
      metrics_path = v;
    } else {
      std::fprintf(stderr, "fuzz: unknown option %s\n", args[i].c_str());
      usage_error = true;
    }
  }
  if (usage_error) {
    std::fprintf(stderr,
                 "usage: rcgp fuzz [--targets=T1,T2,...] [--seed=S] "
                 "[--cases=N] [--case=K]\n"
                 "                 [--out-dir=DIR] [--log=findings.jsonl] "
                 "[--deadline=SECONDS] [--no-shrink]\n"
                 "                 [--metrics-out=m.json] "
                 "[--profile-out=p.json] [--prom-out=m.prom]\n"
                 "  targets: io-roundtrip parser-corruption "
                 "manifest-corruption optimizer-differential\n"
                 "           cec-cross simd-differential selftest "
                 "(default: all but selftest)\n"
                 "  Every case is reproducible from (--seed, --case) alone; "
                 "findings print their exact\n"
                 "  repro command and ship a minimized reproducer under "
                 "--out-dir (docs/FUZZING.md).\n");
    return 2;
  }
  static robust::StopToken signal_token;
  opt.budget.stop = &robust::install_signal_stop(signal_token);

  opt.on_finding = [](const fuzz::Finding& f) {
    std::printf("FINDING %s case %llu [%s]: %s\n  reproducer: %s\n"
                "  repro: %s\n",
                f.target.c_str(),
                static_cast<unsigned long long>(f.case_index), f.kind.c_str(),
                f.detail.c_str(),
                f.reproducer_path.empty() ? "(none)"
                                          : f.reproducer_path.c_str(),
                f.repro_command.c_str());
    std::fflush(stdout);
  };

  prof.begin(metrics_path);
  const fuzz::FuzzSummary summary = fuzz::run_fuzz(opt);
  const bool prof_ok = prof.finish("fuzz");

  std::printf("fuzz: %llu cases, %llu findings (%.2fs, %s)\n",
              static_cast<unsigned long long>(summary.cases_run),
              static_cast<unsigned long long>(summary.findings),
              summary.seconds,
              robust::to_string(summary.stop_reason).c_str());
  std::printf("findings log: %s\n", summary.log_path.c_str());
  if (!metrics_path.empty()) {
    if (!obs::registry().write_json(metrics_path)) {
      std::fprintf(stderr, "fuzz: cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  if (summary.stop_reason == robust::StopReason::kStopRequested) {
    return 3;
  }
  return (summary.findings == 0 && prof_ok) ? 0 : 1;
}

int cmd_serve(const std::vector<std::string>& args) {
  serve::ServeOptions opt;
  std::string cache_path;
  std::string trace_path;
  std::string metrics_path;
  bool usage_error = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string v;
    if (opt_value(args[i], "--socket", opt.socket_path) ||
        opt_value(args[i], "--listen", opt.listen) ||
        opt_value(args[i], "--checkpoint-dir", opt.checkpoint_dir) ||
        opt_value(args[i], "--cache", cache_path) ||
        opt_value(args[i], "--metrics-out", metrics_path) ||
        opt_value(args[i], "--trace-out", trace_path)) {
      // value captured
    } else if (opt_value(args[i], "--workers", v)) {
      opt.workers = flag_number<unsigned>("--workers", v);
    } else if (opt_value(args[i], "--generations", v)) {
      opt.execute.default_generations =
          flag_number<std::uint64_t>("--generations", v);
    } else if (opt_value(args[i], "--threads-per-job", v)) {
      opt.execute.threads_per_job =
          flag_number<unsigned>("--threads-per-job", v);
    } else {
      std::fprintf(stderr, "serve: unknown option %s\n", args[i].c_str());
      usage_error = true;
    }
  }
  if (usage_error) {
    std::fprintf(stderr,
                 "usage: rcgp serve [--socket=rcgp.sock] "
                 "[--listen=HOST:PORT] [--cache=store.rcc] [--workers=N]\n"
                 "                  [--checkpoint-dir=DIR] [--generations=N] "
                 "[--threads-per-job=N]\n"
                 "                  [--trace-out=t.jsonl] "
                 "[--metrics-out=m.json]\n"
                 "  NDJSON over a Unix socket (or TCP with --listen; port 0 "
                 "binds an ephemeral\n"
                 "  port and prints it): one SynthesisRequest line in, one "
                 "SynthesisResponse line\n"
                 "  out per connection (docs/SERVICE.md). --checkpoint-dir "
                 "gives every evolve job\n"
                 "  a resumable <dir>/<id>.ckpt — the island-worker contract "
                 "(docs/ISLANDS.md).\n"
                 "  SIGINT/SIGTERM shut down cleanly.\n");
    return 2;
  }
  // First SIGINT/SIGTERM drains connections and persists the cache; a
  // second one force-kills (the store survives — saves are atomic).
  static robust::StopToken signal_token;
  opt.stop = &robust::install_signal_stop(signal_token);

  std::optional<cache::Store> store;
  if (!cache_path.empty()) {
    store.emplace(cache_path);
    opt.execute.cache = &*store;
    // Persist after every insert so a SIGKILL loses at most the job that
    // was in flight.
    opt.execute.save_cache_on_insert = true;
  }

  const auto trace = open_trace(trace_path);
  opt.trace = trace.get();

  serve::Server server(opt);
  server.start();
  // bound_address() resolves an ephemeral --listen port to the real one.
  std::printf("serve: listening on %s", server.bound_address().c_str());
  if (opt.workers == 0) {
    std::printf(" (hardware-concurrency worker slots)");
  } else {
    std::printf(" (%u worker slot%s)", opt.workers,
                opt.workers == 1 ? "" : "s");
  }
  if (store) {
    std::printf(", cache %s (%zu entries)", store->path().c_str(),
                store->size());
  }
  std::printf("\n");
  std::fflush(stdout);
  server.run(); // blocks until SIGINT/SIGTERM
  if (store) {
    store->save();
  }
  if (!metrics_path.empty()) {
    if (!obs::registry().write_json(metrics_path)) {
      std::fprintf(stderr, "serve: cannot write %s\n", metrics_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  std::printf("serve: shut down — %llu requests, %llu ok, %llu errors\n",
              static_cast<unsigned long long>(
                  obs::registry().counter("serve.requests").value()),
              static_cast<unsigned long long>(
                  obs::registry().counter("serve.responses.ok").value()),
              static_cast<unsigned long long>(
                  obs::registry().counter("serve.errors").value()));
  return 0;
}

int cmd_client(const std::vector<std::string>& args) {
  std::string address = "rcgp.sock";
  std::string input_path;
  bool usage_error = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (opt_value(args[i], "--socket", address) ||
        opt_value(args[i], "--connect", address)) {
      // value captured (--connect accepts host:port or a socket path)
    } else if (args[i][0] != '-' && input_path.empty()) {
      input_path = args[i];
    } else {
      std::fprintf(stderr, "client: unknown option %s\n", args[i].c_str());
      usage_error = true;
    }
  }
  if (usage_error) {
    std::fprintf(stderr,
                 "usage: rcgp client [requests.jsonl] [--socket=rcgp.sock] "
                 "[--connect=HOST:PORT]\n"
                 "  Submits each request line (from the file, or stdin) to a "
                 "running daemon and\n"
                 "  prints one response line per request on stdout. --connect "
                 "takes a TCP\n"
                 "  endpoint or a Unix socket path interchangeably.\n");
    return 2;
  }
  std::ifstream file;
  std::istream* in = &std::cin;
  if (!input_path.empty()) {
    file.open(input_path);
    if (!file) {
      std::fprintf(stderr, "client: cannot read %s\n", input_path.c_str());
      return 1;
    }
    in = &file;
  }
  serve::Client client(address);
  std::string line;
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  while (std::getline(*in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    const core::SynthesisResponse resp = client.submit_line(line);
    ++sent;
    if (!resp.ok) {
      ++failed;
    }
    std::printf("%s\n", core::to_json(resp).c_str());
    std::fflush(stdout);
  }
  std::fprintf(stderr, "client: %llu requests, %llu failed\n",
               static_cast<unsigned long long>(sent),
               static_cast<unsigned long long>(failed));
  return failed == 0 ? 0 : 1;
}

int cmd_cache(const std::vector<std::string>& args) {
  const char* usage =
      "usage: rcgp cache warm   --store=FILE [--max-vars=N] [--max-gates=N]\n"
      "                         [--time-limit=SECONDS] [--save-every=N] "
      "[--refresh]\n"
      "       rcgp cache stats  --store=FILE [--json]\n"
      "       rcgp cache verify --store=FILE\n"
      "  warm fills the store with exact-synthesis results for every\n"
      "  single-output NPN class of <= max-vars inputs (docs/SERVICE.md).\n";
  if (args.empty()) {
    std::fputs(usage, stderr);
    return 2;
  }
  const std::string sub = args[0];
  std::string store_path;
  cache::WarmOptions wopt;
  bool json = false;
  for (std::size_t i = 1; i < args.size(); ++i) {
    std::string v;
    if (opt_value(args[i], "--store", store_path)) {
      // value captured
    } else if (opt_value(args[i], "--max-vars", v)) {
      wopt.max_vars = flag_number<unsigned>("--max-vars", v);
    } else if (opt_value(args[i], "--max-gates", v)) {
      wopt.exact.max_gates = flag_number<std::uint32_t>("--max-gates", v);
    } else if (opt_value(args[i], "--time-limit", v)) {
      wopt.exact.time_limit_seconds = flag_number<double>("--time-limit", v);
    } else if (opt_value(args[i], "--save-every", v)) {
      wopt.save_every = flag_number<std::uint64_t>("--save-every", v);
    } else if (args[i] == "--refresh") {
      wopt.skip_existing = false; // re-derive classes that already exist
    } else if (args[i] == "--json") {
      json = true;
    } else {
      std::fprintf(stderr, "cache: unknown option %s\n", args[i].c_str());
      return 2;
    }
  }
  if (store_path.empty()) {
    std::fputs(usage, stderr);
    return 2;
  }
  cache::Store store(store_path);

  if (sub == "warm") {
    wopt.progress = [](std::uint64_t done, std::uint64_t total) {
      std::fprintf(stderr, "\rwarm: %llu/%llu classes",
                   static_cast<unsigned long long>(done),
                   static_cast<unsigned long long>(total));
      if (done == total) {
        std::fputc('\n', stderr);
      }
    };
    const cache::WarmResult r = cache::warm(store, wopt);
    std::printf("warm: %llu classes — %llu solved, %llu already present, "
                "%llu over budget (%.2fs)\n",
                static_cast<unsigned long long>(r.classes),
                static_cast<unsigned long long>(r.solved),
                static_cast<unsigned long long>(r.skipped),
                static_cast<unsigned long long>(r.timeouts), r.seconds);
    std::printf("store: %zu entries in %s\n", store.size(),
                store.path().c_str());
    if (r.timeouts > 0) {
      std::fprintf(stderr, "warm: rerun with a larger --time-limit/"
                           "--max-gates to fill the remaining classes\n");
    }
    return 0;
  }

  if (sub == "stats") {
    const auto entries = store.entries();
    std::map<std::string, std::uint64_t> by_shape;
    std::map<std::string, std::uint64_t> by_origin;
    for (const auto& [key, e] : entries) {
      const unsigned nv = e.tables.empty() ? 0 : e.tables[0].num_vars();
      by_shape[std::to_string(nv) + "x" + std::to_string(e.tables.size())]++;
      by_origin[e.origin]++;
    }
    if (json) {
      obs::json::Writer w;
      w.begin_object();
      w.field("path", store.path());
      w.field("entries", static_cast<std::uint64_t>(entries.size()));
      w.key("by_shape").begin_object();
      for (const auto& [k, n] : by_shape) {
        w.field(k, n);
      }
      w.end_object();
      w.key("by_origin").begin_object();
      for (const auto& [k, n] : by_origin) {
        w.field(k, n);
      }
      w.end_object();
      w.end_object();
      std::printf("%s\n", w.str().c_str());
      return 0;
    }
    std::printf("store: %zu entries in %s\n", entries.size(),
                store.path().c_str());
    for (const auto& [k, n] : by_shape) {
      std::printf("  %s (vars x outputs): %llu\n", k.c_str(),
                  static_cast<unsigned long long>(n));
    }
    for (const auto& [k, n] : by_origin) {
      std::printf("  origin %s: %llu\n", k.c_str(),
                  static_cast<unsigned long long>(n));
    }
    return 0;
  }

  if (sub == "verify") {
    const auto problems = store.verify();
    if (problems.empty()) {
      std::printf("cache: %zu entries verified ok\n", store.size());
      return 0;
    }
    for (const auto& p : problems) {
      std::fprintf(stderr, "cache: %s\n", p.c_str());
    }
    std::fprintf(stderr, "cache: %zu problem%s in %s\n", problems.size(),
                 problems.size() == 1 ? "" : "s", store.path().c_str());
    return 4;
  }

  std::fprintf(stderr, "cache: unknown subcommand %s\n", sub.c_str());
  std::fputs(usage, stderr);
  return 2;
}

int cmd_exact(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::fprintf(stderr,
                 "usage: rcgp exact <input> [-m max_gates] [-t seconds]\n");
    return 2;
  }
  exact::ExactParams params;
  params.max_gates = 5;
  params.time_limit_seconds = 60;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "-m" && i + 1 < args.size()) {
      params.max_gates = flag_number<std::uint32_t>("-m", args[++i]);
    } else if (args[i] == "-t" && i + 1 < args.size()) {
      params.time_limit_seconds = flag_number<double>("-t", args[++i]);
    } else {
      std::fprintf(stderr, "exact: unknown option %s\n", args[i].c_str());
      return 2;
    }
  }
  const auto spec = batch::resolve_circuit(args[0]).spec;
  const auto r = exact::exact_synthesize(spec, params);
  switch (r.status) {
    case exact::ExactStatus::kSolved:
      std::printf("optimal: %u gates, %u garbage (%.2fs, %llu SAT calls)\n",
                  r.gates, r.garbage, r.seconds,
                  static_cast<unsigned long long>(r.sat_calls));
      std::printf("%s", io::write_rqfp_string(*r.netlist).c_str());
      return 0;
    case exact::ExactStatus::kUnsat:
      std::printf("no realization within %u gates\n", params.max_gates);
      return 1;
    case exact::ExactStatus::kTimeout:
      std::printf("timeout after %.2fs\n", r.seconds);
      return 1;
  }
  return 1;
}

int cmd_cec(const std::vector<std::string>& args) {
  std::vector<std::string> files;
  bool json = false;
  for (const auto& a : args) {
    if (a == "--json") {
      json = true;
    } else {
      files.push_back(a);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr, "usage: rcgp cec <a.rqfp> <b.rqfp> [--json]\n");
    return 2;
  }
  const auto a = *io::read_network(files[0], io::Format::kRqfp).rqfp;
  const auto b = *io::read_network(files[1], io::Format::kRqfp).rqfp;
  const auto sat = cec::sat_check(a, b);
  const auto bdd = cec::bdd_check(a, b);
  const bool equal = sat.verdict == cec::CecVerdict::kEquivalent;
  if (json) {
    obs::json::Writer w;
    w.begin_object();
    w.field("a", files[0]);
    w.field("b", files[1]);
    w.field("equivalent", equal);
    w.field("sat_verdict",
            sat.verdict == cec::CecVerdict::kEquivalent      ? "equivalent"
            : sat.verdict == cec::CecVerdict::kNotEquivalent ? "not_equivalent"
                                                             : "undecided");
    w.field("bdd_equivalent", bdd.equivalent);
    w.field("sat_conflicts", sat.conflicts);
    w.key("counterexample");
    if (sat.counterexample) {
      w.value(static_cast<std::uint64_t>(*sat.counterexample));
    } else {
      w.null();
    }
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return equal ? 0 : 1;
  }
  std::printf("SAT: %s, BDD: %s\n",
              equal ? "equivalent" : "NOT equivalent",
              bdd.equivalent ? "equivalent" : "NOT equivalent");
  if (!equal && sat.counterexample) {
    std::printf("counterexample: input %llu\n",
                static_cast<unsigned long long>(*sat.counterexample));
  }
  return equal ? 0 : 1;
}

int cmd_report(const std::vector<std::string>& args) {
  // Run-report mode: ingest any subset of a run's exported artifacts.
  obs::RunReportInputs run_inputs;
  bool run_mode = false;
  std::vector<std::string> positional;
  for (const auto& a : args) {
    if (opt_value(a, "--profile", run_inputs.profile_path) ||
        opt_value(a, "--trace", run_inputs.trace_path) ||
        opt_value(a, "--metrics", run_inputs.metrics_path)) {
      run_mode = true;
    } else {
      positional.push_back(a);
    }
  }
  if (run_mode) {
    if (!positional.empty()) {
      std::fprintf(stderr, "report: run-report mode takes no netlist\n");
      return 2;
    }
    std::fputs(obs::run_report(run_inputs).c_str(), stdout);
    return 0;
  }
  if (positional.size() != 1) {
    std::fprintf(stderr,
                 "usage: rcgp report <x.rqfp|benchmark>\n"
                 "       rcgp report [--profile=p.json] [--trace=t.jsonl] "
                 "[--metrics=m.json]\n");
    return 2;
  }
  rqfp::Netlist net;
  const std::string& input = positional[0];
  if (io::format_from_extension(input) == io::Format::kRqfp) {
    net = *io::read_network(input, io::Format::kRqfp).rqfp;
  } else {
    // Synthesize the benchmark's initialization baseline for reporting.
    core::FlowOptions opt;
    opt.run_cgp = false;
    net = core::synthesize(batch::resolve_circuit(input).flow_input(), opt)
              .initial;
  }
  const auto cost = rqfp::cost_of(net);
  std::printf("%s\n", cost.to_string().c_str());
  const auto cells = aqfp::expand(net);
  std::printf("AQFP cells: %u splitters, %u majorities, %u buffers "
              "(%u JJs, %u half-phases, %s)\n",
              cells.count(aqfp::CellKind::kSplitter),
              cells.count(aqfp::CellKind::kMajority),
              cells.count(aqfp::CellKind::kBuffer), cells.total_jjs(),
              cells.max_phase(),
              cells.validate().empty() ? "valid" : "INVALID");
  const auto rev = rqfp::analyze_reversibility(net);
  std::printf("reversibility: %s (%.3f bits erased, %u boundary outputs)\n",
              rev.information_preserving ? "information preserving"
                                         : "lossy",
              rev.erased_bits, rev.boundary_outputs);
  const auto energy = rqfp::estimate_energy(net);
  std::printf("energy @%.1fK: Landauer floor %.3e J, switching %.3e J\n",
              energy.temperature_kelvin, energy.landauer_floor,
              energy.switching_estimate);
  return 0;
}

int cmd_stats(const std::vector<std::string>& args) {
  std::vector<std::string> files;
  bool json = false;
  for (const auto& a : args) {
    if (a == "--json") {
      json = true;
    } else {
      files.push_back(a);
    }
  }
  if (files.size() != 1) {
    std::fprintf(stderr, "usage: rcgp stats <x.rqfp> [--json]\n");
    return 2;
  }
  const auto net = *io::read_network(files[0], io::Format::kRqfp).rqfp;
  const auto problem = net.validate();
  const auto cost = rqfp::cost_of(net);
  if (json) {
    obs::json::Writer w;
    w.begin_object();
    w.field("file", files[0]);
    w.field("pis", net.num_pis());
    w.field("pos", net.num_pos());
    w.field("gates", net.num_gates());
    w.key("cost").begin_object();
    w.field("n_r", cost.n_r);
    w.field("n_b", cost.n_b);
    w.field("jjs", cost.jjs);
    w.field("n_d", cost.n_d);
    w.field("n_g", cost.n_g);
    w.end_object();
    w.field("legal", problem.empty());
    if (!problem.empty()) {
      w.field("problem", problem);
    }
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  std::printf("pis=%u pos=%u gates=%u\n", net.num_pis(), net.num_pos(),
              net.num_gates());
  std::printf("%s\n", cost.to_string().c_str());
  std::printf("legal: %s%s\n", problem.empty() ? "yes" : "NO — ",
              problem.c_str());
  return 0;
}

int cmd_version(const std::vector<std::string>& args) {
  const bool json = !args.empty() && args[0] == "--json";
  if (json) {
    obs::json::Writer w;
    w.begin_object();
    w.field("name", "rcgp");
    w.field("version", kVersionString);
    w.field("major", kVersionMajor);
    w.field("minor", kVersionMinor);
    w.field("patch", kVersionPatch);
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    return 0;
  }
  std::printf("rcgp %s\n", kVersionString);
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: rcgp <synth|batch|serve|client|cache|fuzz|exact|cec|"
                 "stats|report|list|version> [args...]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "list") {
      return cmd_list();
    }
    if (cmd == "synth") {
      return cmd_synth(args);
    }
    if (cmd == "batch") {
      return cmd_batch(args);
    }
    if (cmd == "serve") {
      return cmd_serve(args);
    }
    if (cmd == "client") {
      return cmd_client(args);
    }
    if (cmd == "cache") {
      return cmd_cache(args);
    }
    if (cmd == "fuzz") {
      return cmd_fuzz(args);
    }
    if (cmd == "exact") {
      return cmd_exact(args);
    }
    if (cmd == "cec") {
      return cmd_cec(args);
    }
    if (cmd == "stats") {
      return cmd_stats(args);
    }
    if (cmd == "report") {
      return cmd_report(args);
    }
    if (cmd == "version" || cmd == "--version") {
      return cmd_version(args);
    }
    std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
    return 2;
  } catch (const UsageError& e) {
    std::fprintf(stderr, "%s: %s\n", cmd.c_str(), e.what());
    return 2;
  } catch (const robust::IntegrityError& e) {
    std::fprintf(stderr, "integrity error: %s\n", e.what());
    if (!e.netlist_dump().empty()) {
      std::fprintf(stderr, "offending netlist:\n%s",
                   e.netlist_dump().c_str());
    }
    return 4;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
