// bench_flow — the end-to-end and per-layer benchmark of the RCGP system
// (README.md in this directory has the workloads, metrics and bounds).
//
//   bench_flow --workload=W --seed=S [--passes=N | --seconds=T] [--traced]
//              [--smoke] [--out=FILE] [--workdir=DIR]
//
// A run sets the workload up, runs one reference pass (warm-up), then
// either timed passes (untraced: the end-to-end metrics) or the per-layer
// instrumentation (--traced). Every pass runs every job of the workload,
// so drift on the machine hits every job equally; each timing is the best
// of the timed passes (see add_timings). Every netlist is checked here by
// an exhaustive reference interpreter against its specification, and
// every pass must reproduce the reference pass bit for bit. The last
// stdout line is the result:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Only public entry points are called: core::synthesize for flows,
// island::run_fleet for fleets, serve::Server + serve::Client for the
// service; the per-layer numbers come from timing calls into each layer.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "batch/execute.hpp"
#include "benchmarks/benchmarks.hpp"
#include "cache/key.hpp"
#include "cache/store.hpp"
#include "core/flow.hpp"
#include "core/optimizer.hpp"
#include "core/request.hpp"
#include "io/rqfp_writer.hpp"
#include "island/island.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "robust/checkpoint.hpp"
#include "rqfp/cost.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

#include "layers.hpp"
#include "support.hpp"

namespace flowbench {
namespace {

namespace fs = std::filesystem;
namespace benchmarks = rcgp::benchmarks;
namespace cache = rcgp::cache;
namespace island = rcgp::island;
namespace serve = rcgp::serve;
using rcgp::util::Rng;
using rcgp::util::Stopwatch;

// CGP seeds of the table and island workloads. They are fixed so that a
// cost sum is an exact function of the code: across seeds the Table 1
// n_b sum alone spreads by ~25% (IQR over 20 seeds), more than any usable
// bound. 2024 is the paper-reproduction seed, 7 the held-out one.
constexpr std::uint64_t kPaperSeed = 2024;
constexpr std::uint64_t kHeldOutSeed = 7;
constexpr unsigned kLambda = 4;

struct Flags {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t passes = 0; // 0 = time-driven (--seconds)
  double seconds = 0.0;
  bool traced = false;
  bool smoke = false;
  std::string out;
  std::string workdir;
};

Flags parse_flags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&](std::string_view name) -> std::optional<std::string_view> {
      if (arg.size() > name.size() + 1 && arg.substr(0, name.size()) == name &&
          arg[name.size()] == '=') {
        return arg.substr(name.size() + 1);
      }
      return std::nullopt;
    };
    if (auto v = value("--workload")) {
      f.workload = *v;
    } else if (auto v = value("--seed")) {
      f.seed = parse_u64(*v, "--seed");
    } else if (auto v = value("--passes")) {
      f.passes = parse_u64(*v, "--passes");
    } else if (auto v = value("--seconds")) {
      f.seconds = parse_f64(*v, "--seconds");
    } else if (auto v = value("--out")) {
      f.out = *v;
    } else if (auto v = value("--workdir")) {
      f.workdir = *v;
    } else if (arg == "--traced") {
      f.traced = true;
    } else if (arg == "--smoke") {
      f.smoke = true;
    } else {
      throw std::invalid_argument("unknown argument '" + std::string(arg) +
                                  "'");
    }
  }
  if (f.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  if (f.passes == 0 && f.seconds == 0.0) {
    f.passes = 5;
  }
  if (f.workdir.empty()) {
    f.workdir = ".bench_build/flowbench-work/" + f.workload + "-" +
                std::to_string(::getpid());
  }
  return f;
}

/// Offspring evaluations counted by every evolve run in this process.
std::uint64_t evaluations_so_far() {
  return rcgp::obs::registry().counter("evolve.evaluations").value();
}

struct CostSums {
  std::uint64_t n_r = 0;
  std::uint64_t n_g = 0;
  std::uint64_t n_b = 0;
  std::uint64_t jjs = 0;
  void add(const rqfp::Cost& c) {
    n_r += c.n_r;
    n_g += c.n_g;
    n_b += c.n_b;
    jjs += c.jjs;
  }
};

/// What one pass measured.
struct PassStats {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t evaluations = 0;
  /// Latency of every job, in the same job order on every pass.
  std::vector<double> job_ms;
  /// True when jobs run concurrently, so their latencies overlap in time.
  bool jobs_overlap = false;
  /// Table workloads only: summed time to reach each job's target cost.
  double time_to_target_s = 0.0;
  std::uint64_t targets_missed = 0;
};

/// Per-job record of the reference pass (rich --out file).
struct JobCost {
  std::string name;
  std::uint64_t seed = 0;
  rqfp::Cost cost;
};

/// Island and service layers; every traced run reports them, as zero on
/// workloads that do not exercise the layer.
struct IslandLayers {
  double fleet_s = 0.0;
  double fleet_mem_s = 0.0;
  double serial_fleet_s = 0.0;
  double parallel_efficiency = 0.0;
  std::uint64_t epochs = 0;
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  double save_checkpoint_ms = 0.0;
  double load_checkpoint_ms = 0.0;
};

struct ServeLayers {
  double requests_per_s = 0.0;
  double hit_p50_ms = 0.0;
  double hit_p90_ms = 0.0;
  double miss_p50_ms = 0.0;
  double miss_p90_ms = 0.0;
  double transport_us = 0.0;
  double parse_us = 0.0;
  double encode_us = 0.0;
  double lookup_hit_us = 0.0;
  double lookup_miss_us = 0.0;
  double insert_us = 0.0;
  double save_ms = 0.0;
  double execute_hit_us = 0.0;
  double execute_miss_ms = 0.0;
  std::uint64_t entries = 0;
  double hit_share = 0.0;
};

struct LayerReport {
  FrontEndLayers front;
  CgpLayers cgp;
  bool replay_identical = true;
  double time_to_target_s = 0.0;
  std::uint64_t targets_missed = 0;
  IslandLayers island;
  ServeLayers serve;
};

class Workload {
public:
  virtual ~Workload() = default;
  /// Builds everything a pass needs before its first job starts; run()
  /// times it as setup_s.
  virtual void setup() = 0;
  /// Runs every job once. The reference pass stores the outputs; later
  /// passes must reproduce them. Checks run after the timed window.
  virtual PassStats run_pass(Ops& ops, bool reference) = 0;
  /// Releases what setup() acquired (servers, sockets); untimed.
  virtual void teardown() {}
  /// Per-layer measurement, right after the reference pass (whose stats
  /// are `reference`), before teardown().
  virtual void trace(Ops& ops, const PassStats& reference,
                     LayerReport& report) = 0;
  /// Cost sums over the reference pass's results.
  virtual CostSums costs() const = 0;
  virtual std::vector<JobCost> job_costs() const { return {}; }
};

/// Deterministic permutation of [0, n) drawn from the workload seed: the
/// order jobs run in within every pass.
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

/// The output check, by a reference interpreter written here instead of the
/// library's simulators, so a bug in those cannot vouch for itself: every
/// gate reads only earlier ports, every port except constant 1 feeds at
/// most one consumer, and on every input assignment each primary output
/// equals its specification. Port numbering is the paper's: 0 is constant
/// 1, then one port per PI, then three per gate, y_k = MAJ(a ^ inv(k,0),
/// b ^ inv(k,1), c ^ inv(k,2)).
bool netlist_implements(const rqfp::Netlist& net,
                        std::span<const tt::TruthTable> spec) {
  const unsigned n = net.num_pis();
  if (spec.size() != net.num_pos() || n > 16) {
    return false;
  }
  for (const tt::TruthTable& t : spec) {
    if (t.num_vars() != n) {
      return false;
    }
  }
  const std::uint32_t ports = n + 1 + 3 * net.num_gates();
  std::vector<std::uint8_t> uses(ports, 0);
  const auto consume = [&](rqfp::Port p, std::uint32_t below) {
    return p < below && (p == 0 || ++uses[p] == 1);
  };
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    for (const rqfp::Port p : net.gate(g).in) {
      if (!consume(p, n + 1 + 3 * g)) {
        return false;
      }
    }
  }
  for (std::uint32_t o = 0; o < net.num_pos(); ++o) {
    if (!consume(net.po_at(o), ports)) {
      return false;
    }
  }
  std::vector<std::uint8_t> value(ports, 0);
  value[0] = 1;
  for (std::uint64_t x = 0; x < (std::uint64_t{1} << n); ++x) {
    for (unsigned i = 0; i < n; ++i) {
      value[1 + i] = (x >> i) & 1;
    }
    for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
      const rqfp::Netlist::Gate& gate = net.gate(g);
      for (unsigned k = 0; k < 3; ++k) {
        unsigned ones = 0;
        for (unsigned i = 0; i < 3; ++i) {
          ones += value[gate.in[i]] ^ (gate.config.inverts(k, i) ? 1 : 0);
        }
        value[n + 1 + 3 * g + k] = ones >= 2 ? 1 : 0;
      }
    }
    for (std::uint32_t o = 0; o < net.num_pos(); ++o) {
      if ((value[net.po_at(o)] != 0) != spec[o].bit(x)) {
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------
// table1_small / table2_large: one core::synthesize flow per (row, seed).
// ---------------------------------------------------------------------

struct TableRow {
  std::string name;
  std::uint64_t generations = 0;
  double mu = 1.0;
};

/// Final cost the benchmark's first commit reaches on each (row, seed) at
/// the standard budgets; time_to_target measures how fast a commit gets
/// at least this good.
struct Target {
  const char* name;
  std::uint64_t seed;
  std::uint32_t n_r, n_g, n_b;
};
constexpr Target kTargets[] = {
#include "targets.inc"
};

std::optional<core::Fitness> target_for(const std::string& name,
                                        std::uint64_t seed) {
  for (const Target& t : kTargets) {
    if (name == t.name && seed == t.seed) {
      core::Fitness f;
      f.success_rate = 1.0;
      f.n_r = t.n_r;
      f.n_g = t.n_g;
      f.n_b = t.n_b;
      return f;
    }
  }
  return std::nullopt;
}

class TableWorkload : public Workload {
public:
  TableWorkload(std::vector<TableRow> rows, std::uint64_t seed,
                bool with_targets)
      : rows_(std::move(rows)), seed_(seed), with_targets_(with_targets) {}

  void setup() override {
    jobs_.clear();
    for (const TableRow& row : rows_) {
      const benchmarks::Benchmark b = benchmarks::get(row.name);
      for (const std::uint64_t s : {kPaperSeed, kHeldOutSeed}) {
        Job j;
        j.row = &row;
        j.seed = s;
        j.spec = b.spec;
        if (with_targets_) {
          j.target = target_for(row.name, s);
        }
        jobs_.push_back(std::move(j));
      }
    }
    order_ = seeded_order(jobs_.size(), seed_);
  }

  PassStats run_pass(Ops& ops, bool reference) override {
    PassStats st;
    std::vector<Outcome> out(jobs_.size());
    const std::uint64_t evals0 = evaluations_so_far();
    const double cpu0 = cpu_seconds();
    Stopwatch pass;
    for (const std::size_t j : order_) {
      out[j] = run_job(jobs_[j]);
    }
    st.wall_s = pass.seconds();
    st.cpu_s = cpu_seconds() - cpu0;
    st.evaluations = evaluations_so_far() - evals0;

    if (reference) {
      reference_.assign(jobs_.size(), {});
    }
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      const Job& job = jobs_[j];
      Outcome& o = out[j];
      const std::string what = job.row->name + " seed " +
                               std::to_string(job.seed);
      st.job_ms.push_back(o.seconds * 1e3);
      if (!o.error.empty()) {
        ops.record(false, what + ": " + o.error);
        continue;
      }
      const rcgp::core::FlowResult& r = *o.result;
      bool ok = netlist_implements(r.optimized, job.spec) &&
                r.optimized_cost == rqfp::cost_of(r.optimized);
      if (reference) {
        reference_[j] = o.result;
      } else {
        ok = ok && reference_[j] && r.optimized == reference_[j]->optimized;
      }
      ops.record(ok, what);
      if (job.target) {
        st.time_to_target_s += o.to_target_s;
        st.targets_missed += o.reached ? 0 : 1;
      }
    }
    return st;
  }

  void trace(Ops& ops, const PassStats& reference,
             LayerReport& rep) override {
    rep.time_to_target_s = reference.time_to_target_s;
    rep.targets_missed = reference.targets_missed;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      const Job& job = jobs_[j];
      if (!reference_[j]) {
        continue; // the reference run already counted this job as failed
      }
      const rcgp::core::FlowResult& ref = *reference_[j];
      const FrontEndResult fe = replay_front_end(job.spec, rep.front);
      const rqfp::Netlist best = replay_cgp(fe.initial, fe.cgp_spec,
                                            evolve_params(job),
                                            job.row->generations, rep.cgp);
      const bool same = fe.initial == ref.initial && best == ref.optimized;
      ops.record(same, "replay of " + job.row->name + " seed " +
                           std::to_string(job.seed));
      rep.replay_identical = rep.replay_identical && same;
    }
    rep.replay_identical = rep.replay_identical && rep.cgp.pool_identical;
  }

  CostSums costs() const override {
    CostSums c;
    for (const auto& r : reference_) {
      if (r) {
        c.add(r->optimized_cost);
      }
    }
    return c;
  }

  std::vector<JobCost> job_costs() const override {
    std::vector<JobCost> out;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      if (reference_[j]) {
        out.push_back({jobs_[j].row->name, jobs_[j].seed,
                       reference_[j]->optimized_cost});
      }
    }
    return out;
  }

private:
  struct Job {
    const TableRow* row = nullptr;
    std::uint64_t seed = 0;
    std::vector<tt::TruthTable> spec;
    std::optional<core::Fitness> target;
  };
  struct Outcome {
    std::shared_ptr<const rcgp::core::FlowResult> result;
    double seconds = 0.0;
    double to_target_s = 0.0;
    bool reached = false;
    std::string error;
  };

  static core::EvolveParams evolve_params(const Job& job) {
    core::EvolveParams p;
    p.generations = job.row->generations;
    p.lambda = kLambda;
    p.mutation.mu = job.row->mu;
    p.seed = job.seed;
    p.threads = 0; // hardware concurrency, clamped to λ
    return p;
  }

  static Outcome run_job(const Job& job) {
    Outcome o;
    rcgp::core::FlowOptions opt;
    opt.evolve = evolve_params(job);
    Stopwatch watch;
    if (job.target) {
      opt.evolve.on_improvement = [&](std::uint64_t, const core::Fitness& f) {
        if (!o.reached && f.better_or_equal(*job.target)) {
          o.reached = true;
          o.to_target_s = watch.seconds();
        }
      };
    }
    try {
      auto r = std::make_shared<rcgp::core::FlowResult>(
          rcgp::core::synthesize(job.spec, opt));
      o.seconds = watch.seconds();
      if (job.target && !o.reached) {
        core::Fitness final_fit;
        final_fit.success_rate = 1.0;
        final_fit.n_r = r->optimized_cost.n_r;
        final_fit.n_g = r->optimized_cost.n_g;
        final_fit.n_b = r->optimized_cost.n_b;
        if (final_fit.better_or_equal(*job.target)) {
          // No improvement was needed: the shrunk baseline already met the
          // target when CGP started, after the front-end phases.
          o.reached = true;
          for (const auto& ph : r->phases) {
            if (ph.depth == 0 && ph.path == "cgp") {
              break;
            }
            o.to_target_s += ph.depth == 0 ? ph.seconds : 0.0;
          }
        } else {
          o.to_target_s = o.seconds; // censored at the job's end
        }
      }
      o.result = std::move(r);
    } catch (const std::exception& e) {
      o.seconds = watch.seconds();
      o.error = e.what();
    }
    return o;
  }

  std::vector<TableRow> rows_;
  std::uint64_t seed_;
  bool with_targets_;
  std::vector<Job> jobs_;
  std::vector<std::size_t> order_;
  std::vector<std::shared_ptr<const rcgp::core::FlowResult>> reference_;
};

std::vector<TableRow> table1_rows(bool smoke) {
  std::vector<TableRow> rows;
  for (const std::string& name : benchmarks::table1_names()) {
    rows.push_back({name, smoke ? 300u : 5000u, 1.0});
  }
  return rows;
}

/// bench_table2's sizing at a budget of 6e6 gate-evaluations: generations
/// = 6e6 / (λ n_r) and μ = 12 / n_L of the initialization baseline
/// (n_r = 1198, 167, 400; n_L = 4 n_r + n_po). Stored rather than derived
/// so that a front-end change cannot change the amount of CGP work.
std::vector<TableRow> table2_rows(bool smoke) {
  std::vector<TableRow> rows = {
      {"hwb8", 1252, 12.0 / 4800},
      {"intdiv8", 8982, 12.0 / 676},
      {"intdiv10", 3750, 12.0 / 1610},
  };
  if (smoke) {
    for (TableRow& r : rows) {
      r.generations /= 40;
    }
  }
  return rows;
}

// ---------------------------------------------------------------------
// island_fleet: 4-island ring fleets, one serial lineage per island.
// ---------------------------------------------------------------------

class IslandWorkload : public Workload {
public:
  IslandWorkload(std::uint64_t seed, bool smoke, std::string workdir)
      : seed_(seed), workdir_(std::move(workdir)) {
    generations_ = smoke ? 600 : 10000;
    interval_ = smoke ? 200 : 1000;
    const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    parallelism_ = std::min(kIslands, cpus);
  }

  void setup() override {
    fleets_.clear();
    for (const char* name : {"decoder_3_8", "alu", "graycode4", "mux4"}) {
      Fleet f;
      f.name = name;
      f.spec = benchmarks::get(name).spec;
      rcgp::core::FlowOptions front;
      front.run_cgp = false;
      f.initial = rcgp::core::synthesize(f.spec, front).initial;
      f.state_dir = workdir_ + "/island/" + f.name;
      fs::create_directories(f.state_dir);
      fleets_.push_back(std::move(f));
    }
    order_ = seeded_order(fleets_.size(), seed_);
  }

  PassStats run_pass(Ops& ops, bool reference) override {
    PassStats st;
    std::vector<std::optional<core::EvolveResult>> out(fleets_.size());
    std::vector<std::string> errors(fleets_.size());
    std::vector<double> secs(fleets_.size(), 0.0);
    const double cpu0 = cpu_seconds();
    Stopwatch pass;
    for (const std::size_t i : order_) {
      Stopwatch watch;
      try {
        out[i] = island::run_fleet(fleets_[i].initial, fleets_[i].spec,
                                   params(), fleet_options(fleets_[i]));
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
      secs[i] = watch.seconds();
    }
    st.wall_s = pass.seconds();
    st.cpu_s = cpu_seconds() - cpu0;

    if (reference) {
      reference_.assign(fleets_.size(), std::nullopt);
    }
    for (std::size_t i = 0; i < fleets_.size(); ++i) {
      const std::string what = "fleet " + fleets_[i].name;
      st.job_ms.push_back(secs[i] * 1e3);
      if (!out[i]) {
        ops.record(false, what + ": " + errors[i]);
        continue;
      }
      st.evaluations += out[i]->evaluations;
      bool ok = netlist_implements(out[i]->best, fleets_[i].spec);
      if (reference) {
        reference_[i] = out[i]->best;
      } else {
        ok = ok && reference_[i] && out[i]->best == *reference_[i];
      }
      ops.record(ok, what);
    }
    return st;
  }

  void trace(Ops& ops, const PassStats& reference,
             LayerReport& rep) override {
    IslandLayers& L = rep.island;
    L.fleet_s = reference.wall_s;
    // The same fleets in memory (no state_dir) and with one slice at a
    // time; both must reproduce the file-backed parallel result.
    for (const bool in_memory : {true, false}) {
      Stopwatch watch;
      for (std::size_t i = 0; i < fleets_.size(); ++i) {
        island::FleetOptions fo = fleet_options(fleets_[i]);
        if (in_memory) {
          fo.state_dir.clear();
        } else {
          fo.parallelism = 1;
        }
        const core::EvolveResult r =
            island::run_fleet(fleets_[i].initial, fleets_[i].spec, params(), fo);
        ops.record(reference_[i] && r.best == *reference_[i],
                   std::string(in_memory ? "in-memory" : "serial") +
                       " fleet " + fleets_[i].name);
      }
      (in_memory ? L.fleet_mem_s : L.serial_fleet_s) = watch.seconds();
    }
    L.parallel_efficiency =
        L.fleet_s > 0.0 ? L.serial_fleet_s / (L.fleet_s * parallelism_) : 0.0;

    // Fleet manifests and island checkpoints the serial file-backed runs
    // just left in each state_dir.
    std::vector<double> save_ms;
    std::vector<double> load_ms;
    const std::string probe = workdir_ + "/island/probe.ckpt";
    for (const Fleet& f : fleets_) {
      std::ifstream in(island::fleet_manifest_path(f.state_dir));
      std::stringstream text;
      text << in.rdbuf();
      const auto manifest = rcgp::obs::json::parse(text.str());
      if (manifest && manifest->is_object()) {
        L.epochs += static_cast<std::uint64_t>(manifest->number_or("epoch", 0));
        L.offered += static_cast<std::uint64_t>(
            manifest->number_or("migrations_offered", 0));
        L.accepted += static_cast<std::uint64_t>(
            manifest->number_or("migrations_accepted", 0));
      }
      ops.record(manifest.has_value(), "fleet manifest of " + f.name);
      for (unsigned i = 0; i < kIslands; ++i) {
        Stopwatch load;
        const rcgp::robust::EvolveCheckpoint ck = rcgp::robust::load_checkpoint(
            island::island_state_path(f.state_dir, i));
        load_ms.push_back(load.milliseconds());
        Stopwatch save;
        rcgp::robust::save_checkpoint(ck, probe);
        save_ms.push_back(save.milliseconds());
      }
    }
    L.load_checkpoint_ms = mean(load_ms);
    L.save_checkpoint_ms = mean(save_ms);

    // Front end of each circuit, and the CGP layers of every island's
    // first epoch — the slice each island runs before its first
    // migration, checked against the same slice through core::Optimizer.
    for (const Fleet& f : fleets_) {
      const FrontEndResult fe = replay_front_end(f.spec, rep.front);
      bool same = fe.initial == f.initial;
      for (unsigned i = 0; i < kIslands; ++i) {
        core::EvolveParams p = params();
        p.seed = kPaperSeed + i;
        const rqfp::Netlist best =
            replay_cgp(f.initial, f.spec, p, interval_, rep.cgp);
        rcgp::core::OptimizerOptions oo;
        oo.evolve = p;
        oo.limits.max_generations = interval_;
        same = same &&
               rcgp::core::Optimizer(oo).run(f.initial, f.spec).best == best;
      }
      ops.record(same, "replay of fleet " + f.name);
      rep.replay_identical = rep.replay_identical && same;
    }
    rep.replay_identical = rep.replay_identical && rep.cgp.pool_identical;
  }

  CostSums costs() const override {
    CostSums c;
    for (const auto& r : reference_) {
      if (r) {
        c.add(rqfp::cost_of(*r));
      }
    }
    return c;
  }

  std::vector<JobCost> job_costs() const override {
    std::vector<JobCost> out;
    for (std::size_t i = 0; i < fleets_.size(); ++i) {
      if (reference_[i]) {
        out.push_back({fleets_[i].name, kPaperSeed, rqfp::cost_of(*reference_[i])});
      }
    }
    return out;
  }

private:
  static constexpr unsigned kIslands = 4;

  struct Fleet {
    std::string name;
    std::vector<tt::TruthTable> spec;
    rqfp::Netlist initial;
    std::string state_dir;
  };

  core::EvolveParams params() const {
    core::EvolveParams p;
    p.generations = generations_;
    p.lambda = kLambda;
    p.seed = kPaperSeed;
    p.threads = 1; // islands, not offspring, are the parallel unit
    return p;
  }

  island::FleetOptions fleet_options(const Fleet& f) const {
    island::FleetOptions fo;
    fo.islands = kIslands;
    fo.topology = core::Topology::kRing;
    fo.migration_interval = interval_;
    fo.state_dir = f.state_dir;
    fo.parallelism = parallelism_;
    return fo;
  }

  std::uint64_t seed_;
  std::string workdir_;
  std::uint64_t generations_ = 0;
  std::uint64_t interval_ = 0;
  unsigned parallelism_ = 1;
  std::vector<Fleet> fleets_;
  std::vector<std::size_t> order_;
  std::vector<std::optional<rqfp::Netlist>> reference_;
};

// ---------------------------------------------------------------------
// serve_mixed: closed-loop clients against an in-process daemon with a
// file-backed result cache saved on every insert.
// ---------------------------------------------------------------------

class ServeWorkload : public Workload {
public:
  ServeWorkload(std::uint64_t seed, bool smoke, std::string workdir)
      : seed_(seed), workdir_(std::move(workdir)) {
    per_connection_ = smoke ? 8 : 80;
    generations_ = smoke ? 300 : 5000;
  }

  void setup() override {
    make_requests();
    fs::create_directories(workdir_);
    const std::string store_path = workdir_ + "/store.rcc";
    fs::remove(store_path);
    store_ = std::make_unique<cache::Store>(store_path);
    serve::ServeOptions so;
    so.socket_path = workdir_ + "/serve.sock";
    so.workers = kConnections;
    so.execute = execute_options();
    server_ = std::make_unique<serve::Server>(std::move(so));
    server_->start();
    clients_.clear();
    for (unsigned c = 0; c < kConnections; ++c) {
      clients_.push_back(std::make_unique<serve::Client>(server_->bound_address()));
    }
  }

  void teardown() override {
    clients_.clear();
    if (server_) {
      server_->stop();
    }
    server_.reset();
    store_.reset();
  }

  PassStats run_pass(Ops& ops, bool reference) override {
    PassStats st;
    std::vector<std::vector<Reply>> replies(kConnections);
    const std::uint64_t evals0 = evaluations_so_far();
    const double cpu0 = cpu_seconds();
    Stopwatch pass;
    {
      std::vector<std::thread> threads;
      for (unsigned c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] { replies[c] = drive(c); });
      }
      for (std::thread& t : threads) {
        t.join();
      }
    }
    st.wall_s = pass.seconds();
    st.cpu_s = cpu_seconds() - cpu0;
    st.evaluations = evaluations_so_far() - evals0;
    st.jobs_overlap = true;

    if (reference) {
      reference_ = replies;
    }
    for (unsigned c = 0; c < kConnections; ++c) {
      for (std::size_t i = 0; i < requests_[c].size(); ++i) {
        const Request& rq = requests_[c][i];
        const Reply& rp = replies[c][i];
        bool ok = rp.error.empty() && check(rq, rp.resp);
        if (ok && !reference) {
          ok = reference_[c][i].resp.netlist == rp.resp.netlist;
        }
        ops.record(ok, "request " + rq.id + (rp.error.empty() ? "" : ": " + rp.error));
        st.job_ms.push_back(rp.seconds * 1e3);
      }
    }
    return st;
  }

  void trace(Ops& ops, const PassStats& reference,
             LayerReport& rep) override {
    ServeLayers& L = rep.serve;
    std::vector<double> hit_ms;
    std::vector<double> miss_ms;
    std::vector<double> transport_us;
    std::vector<double> execute_miss_ms;
    std::size_t total = 0;
    for (unsigned c = 0; c < kConnections; ++c) {
      for (std::size_t i = 0; i < requests_[c].size(); ++i) {
        const Reply& rp = reference_[c][i];
        (requests_[c][i].fresh ? miss_ms : hit_ms).push_back(rp.seconds * 1e3);
        transport_us.push_back((rp.seconds - rp.resp.seconds) * 1e6);
        if (requests_[c][i].fresh) {
          execute_miss_ms.push_back(rp.resp.seconds * 1e3);
        }
        ++total;
      }
    }
    L.requests_per_s = static_cast<double>(total) / reference.wall_s;
    L.hit_p50_ms = quantile(hit_ms, 0.5);
    L.hit_p90_ms = quantile(hit_ms, 0.9);
    L.miss_p50_ms = quantile(miss_ms, 0.5);
    L.miss_p90_ms = quantile(miss_ms, 0.9);
    L.transport_us = mean(transport_us);
    L.execute_miss_ms = mean(execute_miss_ms);
    L.entries = store_->size();
    L.hit_share = static_cast<double>(hit_ms.size()) / static_cast<double>(total);

    // Direct calls into each layer on the reference pass's inputs and the
    // store it filled.
    std::vector<double> parse_us;
    std::vector<double> encode_us;
    std::vector<double> lookup_hit_us;
    std::vector<double> execute_hit_us;
    std::vector<double> insert_us;
    cache::Store scratch; // unbound: inserts never touch the disk
    rcgp::batch::ExecuteOptions eo = execute_options();
    eo.save_cache_on_insert = false;
    for (unsigned c = 0; c < kConnections; ++c) {
      for (std::size_t i = 0; i < requests_[c].size(); ++i) {
        const Request& rq = requests_[c][i];
        const rcgp::core::SynthesisResponse& resp = reference_[c][i].resp;
        Stopwatch parse;
        const rcgp::core::SynthesisRequest job = rcgp::core::parse_request(rq.line);
        parse_us.push_back(parse.seconds() * 1e6);
        Stopwatch encode;
        const std::string encoded = rcgp::core::to_json(resp);
        encode_us.push_back(encode.seconds() * 1e6);
        if (rq.fresh) {
          const rqfp::Netlist net = rcgp::io::parse_rqfp_string(resp.netlist);
          Stopwatch insert;
          scratch.insert(rq.spec, net, "cgp");
          insert_us.push_back(insert.seconds() * 1e6);
          continue;
        }
        Stopwatch lookup;
        const bool hit = store_->lookup(rq.spec).has_value();
        lookup_hit_us.push_back(lookup.seconds() * 1e6);
        Stopwatch execute;
        const rcgp::batch::JobExecution exec =
            rcgp::batch::execute_request(job, rcgp::batch::JobContext{}, eo);
        execute_hit_us.push_back(execute.seconds() * 1e6);
        ops.record(hit && exec.cached && exec.verified && !encoded.empty(),
                   "direct hit of " + rq.id);
      }
    }
    L.parse_us = mean(parse_us);
    L.encode_us = mean(encode_us);
    L.lookup_hit_us = mean(lookup_hit_us);
    L.execute_hit_us = mean(execute_hit_us);
    L.insert_us = mean(insert_us);

    // Misses: fresh classes the store has never seen.
    std::vector<double> lookup_miss_us;
    Rng rng(seed_ ^ 0x5eedf00dULL);
    while (lookup_miss_us.size() < 32) {
      const std::vector<tt::TruthTable> spec = random_spec(rng);
      if (store_->contains(cache::canonicalize(spec).key)) {
        continue;
      }
      Stopwatch lookup;
      const bool hit = store_->lookup(spec).has_value();
      lookup_miss_us.push_back(lookup.seconds() * 1e6);
      ops.record(!hit, "direct miss lookup");
    }
    L.lookup_miss_us = mean(lookup_miss_us);

    std::vector<double> save_ms;
    for (int rep_i = 0; rep_i < 3; ++rep_i) {
      Stopwatch save;
      store_->save();
      save_ms.push_back(save.milliseconds());
    }
    L.save_ms = mean(save_ms);

    // Front end and CGP layers of every miss, replayed and checked
    // against the netlist the daemon returned.
    for (unsigned c = 0; c < kConnections; ++c) {
      for (std::size_t i = 0; i < requests_[c].size(); ++i) {
        const Request& rq = requests_[c][i];
        if (!rq.fresh) {
          continue;
        }
        const FrontEndResult fe = replay_front_end(rq.spec, rep.front);
        core::EvolveParams p;
        p.generations = generations_;
        p.lambda = kLambda;
        p.seed = kPaperSeed;
        p.threads = 1; // the daemon's threads_per_job
        const rqfp::Netlist best =
            replay_cgp(fe.initial, fe.cgp_spec, p, generations_, rep.cgp);
        const bool same = rcgp::io::write_rqfp_string(best) ==
                          reference_[c][i].resp.netlist;
        ops.record(same, "replay of " + rq.id);
        rep.replay_identical = rep.replay_identical && same;
      }
    }
    rep.replay_identical = rep.replay_identical && rep.cgp.pool_identical;
  }

  CostSums costs() const override {
    CostSums c;
    for (unsigned conn = 0; conn < kConnections; ++conn) {
      for (std::size_t i = 0; i < requests_[conn].size(); ++i) {
        if (requests_[conn][i].fresh) {
          c.add(reference_[conn][i].resp.cost);
        }
      }
    }
    return c;
  }

private:
  static constexpr unsigned kConnections = 2;
  static constexpr unsigned kInputs = 4;
  static constexpr unsigned kOutputs = 2;

  struct Request {
    std::string id;
    std::vector<tt::TruthTable> spec;
    std::string line; // the JSON line sent on the wire
    bool fresh = false;
  };
  struct Reply {
    rcgp::core::SynthesisResponse resp;
    double seconds = 0.0; // client round trip
    std::string error;
  };

  rcgp::batch::ExecuteOptions execute_options() {
    rcgp::batch::ExecuteOptions o;
    o.default_generations = generations_;
    o.threads_per_job = 1;
    o.cache = store_.get();
    o.save_cache_on_insert = true;
    return o;
  }

  static std::vector<tt::TruthTable> random_spec(Rng& rng) {
    std::vector<tt::TruthTable> spec;
    while (spec.size() < kOutputs) {
      tt::TruthTable t(kInputs);
      t.set_word(0, rng.next());
      if (!t.is_constant0() && !t.is_constant1()) {
        spec.push_back(std::move(t));
      }
    }
    return spec;
  }

  static cache::SpecTransform random_transform(Rng& rng) {
    cache::SpecTransform t;
    for (unsigned i = kInputs; i > 1; --i) {
      std::swap(t.perm[i - 1], t.perm[rng.below(i)]);
    }
    t.input_phase = static_cast<unsigned>(rng.below(1u << kInputs));
    t.output_phase = static_cast<std::uint32_t>(rng.below(1u << kOutputs));
    return t;
  }

  /// The request streams. The fresh functions are one fixed set of
  /// distinct classes (by canonical key), drawn from a constant seed, so
  /// the misses — and with them the cost sums — are the same for every
  /// workload seed. The seed deals them out to the connections and draws
  /// the rest: every fourth request of a connection is its next fresh
  /// function, the others are random NPN variants of a fresh function this
  /// connection already got an answer for, so they hit the cache.
  void make_requests() {
    const unsigned fresh_per_connection = (per_connection_ + 3) / 4;
    std::vector<std::vector<tt::TruthTable>> pool;
    std::vector<std::string> keys;
    Rng pool_rng(kPaperSeed);
    while (pool.size() < kConnections * fresh_per_connection) {
      std::vector<tt::TruthTable> spec = random_spec(pool_rng);
      std::string key = cache::canonicalize(spec).key;
      if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
        keys.push_back(std::move(key));
        pool.push_back(std::move(spec));
      }
    }
    const std::vector<std::size_t> deal = seeded_order(pool.size(), seed_);
    Rng rng(seed_);
    requests_.assign(kConnections, {});
    for (unsigned c = 0; c < kConnections; ++c) {
      std::vector<std::size_t> fresh_at;
      for (unsigned i = 0; i < per_connection_; ++i) {
        Request rq;
        rq.id = "c" + std::to_string(c) + "-" + std::to_string(i);
        if (i % 4 == 0) {
          rq.spec = pool[deal[c * fresh_per_connection + i / 4]];
          rq.fresh = true;
          fresh_at.push_back(i);
        } else {
          const Request& base = requests_[c][fresh_at[rng.below(fresh_at.size())]];
          rq.spec = cache::apply(base.spec, random_transform(rng));
        }
        rcgp::core::SynthesisRequest r;
        r.id = rq.id;
        r.spec = rq.spec;
        r.generations = generations_;
        r.seed = kPaperSeed;
        rq.line = rcgp::core::to_json(r);
        requests_[c].push_back(std::move(rq));
      }
    }
  }

  std::vector<Reply> drive(unsigned c) {
    std::vector<Reply> out(requests_[c].size());
    for (std::size_t i = 0; i < requests_[c].size(); ++i) {
      Stopwatch watch;
      try {
        out[i].resp = clients_[c]->submit_line(requests_[c][i].line);
      } catch (const std::exception& e) {
        out[i].error = e.what();
      }
      out[i].seconds = watch.seconds();
    }
    return out;
  }

  static bool check(const Request& rq, const rcgp::core::SynthesisResponse& r) {
    if (!r.ok || r.id != rq.id || r.cached == rq.fresh) {
      return false;
    }
    try {
      const rqfp::Netlist net = rcgp::io::parse_rqfp_string(r.netlist);
      return netlist_implements(net, rq.spec) && rqfp::cost_of(net) == r.cost;
    } catch (const std::exception&) {
      return false;
    }
  }

  std::uint64_t seed_;
  std::string workdir_;
  unsigned per_connection_ = 0;
  std::uint64_t generations_ = 0;
  std::vector<std::vector<Request>> requests_;
  std::unique_ptr<cache::Store> store_;
  std::unique_ptr<serve::Server> server_;
  std::vector<std::unique_ptr<serve::Client>> clients_;
  std::vector<std::vector<Reply>> reference_;
};

// ---------------------------------------------------------------------
// The run: reference pass, then timed passes or the traced layers.
// ---------------------------------------------------------------------

std::unique_ptr<Workload> make_workload(const Flags& f) {
  if (f.workload == "table1_small") {
    return std::make_unique<TableWorkload>(table1_rows(f.smoke), f.seed,
                                           !f.smoke);
  }
  if (f.workload == "table2_large") {
    return std::make_unique<TableWorkload>(table2_rows(f.smoke), f.seed,
                                           !f.smoke);
  }
  if (f.workload == "island_fleet") {
    return std::make_unique<IslandWorkload>(f.seed, f.smoke, f.workdir);
  }
  if (f.workload == "serve_mixed") {
    return std::make_unique<ServeWorkload>(f.seed, f.smoke, f.workdir);
  }
  throw std::invalid_argument("unknown workload '" + f.workload + "'");
}

/// Interference from other tenants of a shared machine only ever slows a
/// job down, and it comes in bursts that can cover several passes; so
/// every timing is the best of the timed passes, per job. When jobs run
/// one after another, a pass's time is the sum of its jobs' best times.
void add_timings(Sheet& s, const std::vector<PassStats>& passes) {
  const PassStats& first = passes.front();
  std::vector<double> best_ms = first.job_ms;
  double wall = first.wall_s;
  double cpu = first.cpu_s;
  for (const PassStats& p : passes) {
    for (std::size_t j = 0; j < best_ms.size(); ++j) {
      best_ms[j] = std::min(best_ms[j], p.job_ms[j]);
    }
    wall = std::min(wall, p.wall_s);
    cpu = std::min(cpu, p.cpu_s);
  }
  double sum_ms = 0.0;
  for (const double ms : best_ms) {
    sum_ms += ms;
  }
  const double suite = first.jobs_overlap ? wall : sum_ms / 1e3;
  s.add("suite_s", suite, "s");
  s.add("cpu_s", cpu, "s");
  s.add("evals_per_s", static_cast<double>(first.evaluations) / suite, "1/s");
  s.add("job_p50_ms", quantile(best_ms, 0.5), "ms");
  s.add("job_p90_ms", quantile(best_ms, 0.9), "ms");
}

void add_costs(Sheet& s, const CostSums& c) {
  s.add("n_r_sum", static_cast<double>(c.n_r), "count");
  s.add("n_g_sum", static_cast<double>(c.n_g), "count");
  s.add("n_b_sum", static_cast<double>(c.n_b), "count");
  s.add("jjs_sum", static_cast<double>(c.jjs), "count");
}

void add_layers(Sheet& s, const LayerReport& r) {
  const FrontEndLayers& fe = r.front;
  s.add("aig.resyn2_s", fe.resyn2_s, "s");
  s.add("mig.map_s", fe.mig_map_s, "s");
  s.add("mig.opt_s", fe.mig_opt_s, "s");
  s.add("rqfp.map_s", fe.rqfp_map_s, "s");
  s.add("aig.nodes_out", static_cast<double>(fe.aig_nodes), "count");
  s.add("mig.nodes_out", static_cast<double>(fe.mig_nodes), "count");
  s.add("rqfp.gates_initial", static_cast<double>(fe.rqfp_gates), "count");
  s.add("flow.time_to_target_s", r.time_to_target_s, "s");
  s.add("flow.targets_missed", static_cast<double>(r.targets_missed), "count");

  const CgpLayers& c = r.cgp;
  const double gens = static_cast<double>(std::max<std::uint64_t>(1, c.generations));
  const double offspring = static_cast<double>(std::max<std::uint64_t>(1, c.offspring));
  const auto per_gen_us = [&](double seconds) { return seconds * 1e6 / gens; };
  s.add("cgp.copy_us", per_gen_us(c.copy_s), "us");
  s.add("cgp.mutate_us", per_gen_us(c.mutate_s), "us");
  s.add("cgp.delta_sim_us", per_gen_us(c.delta_sim_s), "us");
  s.add("cgp.compare_us", per_gen_us(c.compare_s), "us");
  s.add("cgp.delta_cost_us", per_gen_us(c.delta_cost_s), "us");
  s.add("cgp.cache_sync_us", per_gen_us(c.cache_sync_s), "us");
  s.add("cgp.select_shrink_us", per_gen_us(c.select_shrink_s), "us");
  s.add("cgp.pool_us", per_gen_us(c.pool_s), "us");
  s.add("cgp.handoff_us", per_gen_us(c.pool_s - c.evaluation_s()), "us");
  s.add("cgp.pool_utilization", c.pool_s > 0.0 ? c.pool_busy_s / c.pool_s : 0.0,
        "ratio");
  s.add("cgp.threads", c.threads, "count");
  s.add("cgp.generations", static_cast<double>(c.generations), "count");
  s.add("cgp.correct_share", static_cast<double>(c.correct) / offspring, "ratio");
  s.add("cgp.accept_share", static_cast<double>(c.accepted) / gens, "ratio");
  s.add("cgp.genes_per_mutation",
        static_cast<double>(c.genes_changed) / offspring, "count");
  s.add("cgp.sim_words_per_gen", static_cast<double>(c.sim_words) / gens,
        "count");
  s.add("trace.coverage",
        c.serial_wall_s > 0.0 ? c.layer_sum_s() / c.serial_wall_s : 0.0,
        "ratio");
  s.add("trace.replay_identical", r.replay_identical ? 1.0 : 0.0, "bool");

  const IslandLayers& il = r.island;
  s.add("island.fleet_s", il.fleet_s, "s");
  s.add("island.fleet_mem_s", il.fleet_mem_s, "s");
  s.add("island.persist_s", il.fleet_s - il.fleet_mem_s, "s");
  s.add("island.serial_fleet_s", il.serial_fleet_s, "s");
  s.add("island.parallel_efficiency", il.parallel_efficiency, "ratio");
  s.add("island.epochs", static_cast<double>(il.epochs), "count");
  s.add("island.migration_accept_share",
        il.offered ? static_cast<double>(il.accepted) /
                         static_cast<double>(il.offered)
                   : 0.0,
        "ratio");
  s.add("robust.save_checkpoint_ms", il.save_checkpoint_ms, "ms");
  s.add("robust.load_checkpoint_ms", il.load_checkpoint_ms, "ms");

  const ServeLayers& sv = r.serve;
  s.add("serve.requests_per_s", sv.requests_per_s, "1/s");
  s.add("serve.hit_p50_ms", sv.hit_p50_ms, "ms");
  s.add("serve.hit_p90_ms", sv.hit_p90_ms, "ms");
  s.add("serve.miss_p50_ms", sv.miss_p50_ms, "ms");
  s.add("serve.miss_p90_ms", sv.miss_p90_ms, "ms");
  s.add("serve.transport_us", sv.transport_us, "us");
  s.add("request.parse_us", sv.parse_us, "us");
  s.add("request.encode_us", sv.encode_us, "us");
  s.add("cache.lookup_hit_us", sv.lookup_hit_us, "us");
  s.add("cache.lookup_miss_us", sv.lookup_miss_us, "us");
  s.add("cache.insert_us", sv.insert_us, "us");
  s.add("cache.save_ms", sv.save_ms, "ms");
  s.add("batch.execute_hit_us", sv.execute_hit_us, "us");
  s.add("batch.execute_miss_ms", sv.execute_miss_ms, "ms");
  s.add("cache.entries", static_cast<double>(sv.entries), "count");
  s.add("cache.hit_share", sv.hit_share, "ratio");
}

void write_job_costs(rcgp::obs::json::Writer& w, const std::vector<JobCost>& jobs) {
  w.key("jobs").begin_array();
  for (const JobCost& j : jobs) {
    w.begin_object();
    w.field("name", j.name);
    w.field("seed", j.seed);
    w.field("n_r", j.cost.n_r);
    w.field("n_g", j.cost.n_g);
    w.field("n_b", j.cost.n_b);
    w.field("jjs", j.cost.jjs);
    w.end_object();
  }
  w.end_array();
}

int run(const Flags& f) {
  Ops ops;
  std::unique_ptr<Workload> w = make_workload(f);
  std::vector<double> setup_s;
  // A set-up of a few microseconds (the table workloads) is repeated until
  // a millisecond has been spent, so its median is not one cold sample.
  const auto timed_setup = [&] {
    double spent = 0.0;
    for (;;) {
      Stopwatch watch;
      w->setup();
      setup_s.push_back(watch.seconds());
      spent += setup_s.back();
      if (spent >= 1e-3) {
        break;
      }
      w->teardown();
    }
  };

  timed_setup();
  const PassStats ref = w->run_pass(ops, /*reference=*/true);

  Sheet sheet;
  std::vector<PassStats> passes;
  if (f.traced) {
    LayerReport report;
    w->trace(ops, ref, report);
    w->teardown();
    add_layers(sheet, report);
  } else {
    w->teardown();
    Stopwatch timed;
    while (f.passes ? passes.size() < f.passes
                    : passes.size() < 3 || timed.seconds() < f.seconds) {
      timed_setup();
      passes.push_back(w->run_pass(ops, /*reference=*/false));
      w->teardown();
    }
    sheet.add("setup_s", median(setup_s), "s");
    add_timings(sheet, passes);
    sheet.add("peak_rss_mb", peak_rss_mb(), "MB");
    add_costs(sheet, w->costs());
  }

  const auto write_outcome = [&](rcgp::obs::json::Writer& w) {
    w.field("correct", ops.failed() == 0);
    w.field("attempted", ops.attempted());
    w.field("failed", ops.failed());
    w.key("metrics");
    sheet.write(w);
  };
  if (!f.out.empty()) {
    rcgp::obs::json::Writer rich;
    rich.begin_object();
    rich.field("workload", f.workload);
    rich.field("seed", f.seed);
    rich.field("traced", f.traced);
    rich.field("smoke", f.smoke);
    rich.field("passes", static_cast<std::uint64_t>(passes.size()));
    write_outcome(rich);
    if (ref.time_to_target_s > 0.0 && !passes.empty()) {
      double best = passes.front().time_to_target_s;
      for (const PassStats& p : passes) {
        best = std::min(best, p.time_to_target_s);
      }
      rich.field("time_to_target_s", best);
    }
    write_job_costs(rich, w->job_costs());
    rich.end_object();
    std::ofstream out(f.out);
    out << rich.str() << "\n";
    if (!out) {
      throw std::runtime_error("cannot write " + f.out);
    }
  }

  rcgp::obs::json::Writer result;
  result.begin_object();
  write_outcome(result);
  result.end_object();
  std::printf("%s\n", result.str().c_str());
  return 0;
}

} // namespace
} // namespace flowbench

int main(int argc, char** argv) {
  try {
    const flowbench::Flags flags = flowbench::parse_flags(argc, argv);
    struct WorkdirGuard {
      std::string path;
      ~WorkdirGuard() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
      }
    } guard{flags.workdir};
    std::filesystem::create_directories(flags.workdir);
    return flowbench::run(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_flow: %s\n", e.what());
    return 1;
  }
}
