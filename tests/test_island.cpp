// Tests for the island-model evolution layer (docs/ISLANDS.md): topology
// donor schedules, placement/parallelism bit-identity, the schema-1
// multistart request spelling, and crash-safe epoch-wise resume of a
// file-backed fleet.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "cec/sim_cec.hpp"
#include "core/eval_pool.hpp"
#include "core/flow.hpp"
#include "core/optimizer.hpp"
#include "core/request.hpp"
#include "io/rqfp_writer.hpp"
#include "island/island.hpp"
#include "obs/metrics.hpp"
#include "robust/stop.hpp"
#include "serve/server.hpp"
#include "util/stopwatch.hpp"

namespace rcgp {
namespace {

using core::EvolveParams;
using core::EvolveResult;
using core::Topology;
using island::FleetOptions;

/// Builds the initialization netlist of a named benchmark.
rqfp::Netlist init_netlist(const std::string& name) {
  const auto b = benchmarks::get(name);
  core::FlowOptions opt;
  opt.run_cgp = false;
  return core::synthesize(b.spec, opt).initial;
}

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "rcgp_island_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

void expect_same_result(const EvolveResult& a, const EvolveResult& b) {
  EXPECT_EQ(io::write_rqfp_string(a.best), io::write_rqfp_string(b.best));
  EXPECT_EQ(a.best_fitness.n_r, b.best_fitness.n_r);
  EXPECT_EQ(a.best_fitness.n_g, b.best_fitness.n_g);
  EXPECT_EQ(a.best_fitness.n_b, b.best_fitness.n_b);
  EXPECT_EQ(a.generations_run, b.generations_run);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.improvements, b.improvements);
}

EvolveParams small_params(std::uint64_t generations = 600,
                          std::uint64_t seed = 17) {
  EvolveParams p;
  p.generations = generations;
  p.seed = seed;
  return p;
}

// ---------- Topology donor schedules ----------

TEST(IslandTopology, RingDonatesFromLeftNeighbor) {
  EXPECT_EQ(island::donors_for(Topology::kRing, 0, 4),
            (std::vector<unsigned>{3}));
  EXPECT_EQ(island::donors_for(Topology::kRing, 1, 4),
            (std::vector<unsigned>{0}));
  EXPECT_EQ(island::donors_for(Topology::kRing, 3, 4),
            (std::vector<unsigned>{2}));
}

TEST(IslandTopology, StarRoutesThroughHub) {
  EXPECT_EQ(island::donors_for(Topology::kStar, 0, 4),
            (std::vector<unsigned>{1, 2, 3}));
  EXPECT_EQ(island::donors_for(Topology::kStar, 2, 4),
            (std::vector<unsigned>{0}));
}

TEST(IslandTopology, FullConnectsEveryPair) {
  EXPECT_EQ(island::donors_for(Topology::kFull, 1, 4),
            (std::vector<unsigned>{0, 2, 3}));
  EXPECT_EQ(island::donors_for(Topology::kFull, 0, 3),
            (std::vector<unsigned>{1, 2}));
}

TEST(IslandTopology, NoneAndSingletonHaveNoDonors) {
  EXPECT_TRUE(island::donors_for(Topology::kNone, 1, 4).empty());
  EXPECT_TRUE(island::donors_for(Topology::kRing, 0, 1).empty());
}

// ---------- Single-island and multistart equivalence ----------

TEST(IslandFleet, OneIslandMatchesPlainEvolve) {
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  const EvolveParams p = small_params();

  core::OptimizerOptions oo;
  oo.evolve = p;
  const EvolveResult plain = core::Optimizer(oo).run(init, b.spec).evolve;

  FleetOptions fleet;
  fleet.islands = 1;
  fleet.migration_interval = 100;
  const EvolveResult one = island::run_fleet(init, b.spec, p, fleet);
  expect_same_result(plain, one);
}

TEST(IslandFleet, SchemaOneMultistartRequestRunsANoneTopologyFleet) {
  // 2000 = 3*666 + 2: the remainder split is exercised too.
  const core::SynthesisRequest r = core::parse_request(
      "{\"schema\":1,\"id\":\"ms\",\"circuit\":\"decoder_2_4\","
      "\"algorithm\":\"multistart\",\"restarts\":3,"
      "\"generations\":2000,\"seed\":5}");
  EXPECT_EQ(r.algorithm, core::Algorithm::kEvolve);
  EXPECT_EQ(r.islands, 3u);
  EXPECT_EQ(r.topology, Topology::kNone);

  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  const core::OptimizerOptions oo = core::optimizer_options_for(r);
  const EvolveResult via_request =
      core::Optimizer(oo).run(init, b.spec).evolve;
  const EvolveResult direct =
      island::run_fleet(init, b.spec, oo.evolve, oo.island);
  expect_same_result(via_request, direct);
  // What the retired multistart algorithm (restarts = 3) produced for
  // this request.
  EXPECT_EQ(via_request.best_fitness.n_r, 6u);
  EXPECT_EQ(via_request.best_fitness.n_g, 5u);
  EXPECT_EQ(via_request.best_fitness.n_b, 5u);
  EXPECT_EQ(via_request.generations_run, 2000u);
  EXPECT_EQ(via_request.evaluations, 8003u);
}

// ---------- Placement / parallelism bit-identity ----------

TEST(IslandFleet, ParallelismDoesNotChangeResults) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  const EvolveParams p = small_params(500, 29);

  FleetOptions fleet;
  fleet.islands = 3;
  fleet.topology = Topology::kRing;
  fleet.migration_interval = 100;
  fleet.parallelism = 1;
  const EvolveResult serial = island::run_fleet(init, b.spec, p, fleet);
  fleet.parallelism = 4;
  const EvolveResult wide = island::run_fleet(init, b.spec, p, fleet);
  expect_same_result(serial, wide);
}

/// Local executor that records the widest pool any slice resolved to.
class PoolWidthProbe : public island::LocalSliceExecutor {
public:
  EvolveResult run(const island::Slice& slice,
                   std::span<const tt::TruthTable> spec,
                   const EvolveParams& params,
                   const robust::EvolveCheckpoint& state) override {
    const unsigned width =
        core::EvalPool::resolve_threads(params.threads, params.lambda);
    unsigned seen = widest.load();
    while (seen < width && !widest.compare_exchange_weak(seen, width)) {
    }
    return LocalSliceExecutor::run(slice, spec, params, state);
  }
  std::atomic<unsigned> widest{0};
};

TEST(IslandFleet, ConcurrentIslandsSplitTheCores) {
  // At λ = 16 a lone lineage would resolve threads = 0 to up to 4 pool
  // threads; 4 concurrent islands must share the cores instead.
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  EvolveParams p = small_params(300, 41);
  p.lambda = 16;
  p.threads = 1;

  FleetOptions fleet;
  fleet.islands = 4;
  fleet.migration_interval = 100;
  fleet.parallelism = 4;
  const EvolveResult pinned = island::run_fleet(init, b.spec, p, fleet);

  PoolWidthProbe probe;
  fleet.executor = &probe;
  p.threads = 0;
  const EvolveResult automatic = island::run_fleet(init, b.spec, p, fleet);
  expect_same_result(pinned, automatic);
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_GE(probe.widest.load(), 1u);
  EXPECT_LE(probe.widest.load(), std::max(1u, hw / fleet.parallelism));
}

TEST(IslandFleet, FileBackedMatchesInMemory) {
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  const EvolveParams p = small_params(400, 5);

  FleetOptions fleet;
  fleet.islands = 2;
  fleet.topology = Topology::kRing;
  fleet.migration_interval = 100;
  const EvolveResult memory = island::run_fleet(init, b.spec, p, fleet);

  fleet.state_dir = temp_dir("filebacked");
  const EvolveResult disk = island::run_fleet(init, b.spec, p, fleet);
  expect_same_result(memory, disk);
  std::filesystem::remove_all(fleet.state_dir);
}

TEST(IslandFleet, TopologiesDivergeButAreDeterministic) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  const EvolveParams p = small_params(500, 29);

  FleetOptions fleet;
  fleet.islands = 4;
  fleet.migration_interval = 50;
  for (const Topology t :
       {Topology::kRing, Topology::kStar, Topology::kFull}) {
    fleet.topology = t;
    const EvolveResult a = island::run_fleet(init, b.spec, p, fleet);
    const EvolveResult c = island::run_fleet(init, b.spec, p, fleet);
    expect_same_result(a, c);
  }
}

// ---------- Epoch-wise resume ----------

TEST(IslandFleet, EpochSteppingResumeIsBitIdentical) {
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  const EvolveParams p = small_params(600, 13);

  FleetOptions fleet;
  fleet.islands = 3;
  fleet.topology = Topology::kRing;
  fleet.migration_interval = 100;
  const EvolveResult whole = island::run_fleet(init, b.spec, p, fleet);

  // Same run, but interrupted after every epoch and resumed from disk —
  // the killed-fleet recovery path, without the SIGKILL.
  fleet.state_dir = temp_dir("stepping");
  fleet.max_epochs = 1;
  EvolveResult stepped;
  for (int step = 0; step < 64; ++step) {
    stepped = island::run_fleet(init, b.spec, p, fleet);
    fleet.resume = true;
    if (stepped.stop_reason == robust::StopReason::kCompleted) {
      break;
    }
  }
  EXPECT_EQ(stepped.stop_reason, robust::StopReason::kCompleted);
  EXPECT_TRUE(stepped.resumed);
  EXPECT_EQ(io::write_rqfp_string(whole.best),
            io::write_rqfp_string(stepped.best));
  EXPECT_EQ(whole.generations_run, stepped.generations_run);
  EXPECT_EQ(whole.evaluations, stepped.evaluations);
  EXPECT_EQ(whole.improvements, stepped.improvements);
  std::filesystem::remove_all(fleet.state_dir);
}

/// Replaces directory `to` with a copy of directory `from`.
void copy_dir(const std::string& from, const std::string& to) {
  std::filesystem::remove_all(to);
  std::filesystem::create_directories(to);
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive);
}

/// The bytes of file `path`.
std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), {});
}

/// Writes the first half of `from` to `to`: an unfinished durable write.
void plant_torn_copy(const std::string& from, const std::string& to) {
  const std::string bytes = read_file(from);
  std::ofstream(to, std::ios::binary) << bytes.substr(0, bytes.size() / 2);
}

TEST(IslandFleet, ResumeFromEveryCrashPointMatchesUninterrupted) {
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");

  // Fleets that migrate every epoch; the one-epoch fleet without
  // migration (each island runs its third of the budget in one slice);
  // and a migrating fleet whose periodic saves land halfway through every
  // slice.
  struct Shape {
    const char* name;
    Topology topology;
    std::uint64_t interval;
    std::uint64_t checkpoint_interval;
    std::size_t epochs;
  };
  for (const Shape shape : {Shape{"ring", Topology::kRing, 100, 1000, 6},
                            Shape{"none", Topology::kNone, 0, 1000, 1},
                            Shape{"periodic", Topology::kRing, 100, 50, 6}}) {
    SCOPED_TRACE(std::string("shape ") + shape.name);
    EvolveParams p = small_params(600, 13);
    p.checkpoint_interval = shape.checkpoint_interval;
    FleetOptions fleet;
    fleet.islands = 3;
    fleet.topology = shape.topology;
    fleet.migration_interval = shape.interval;
    const EvolveResult whole = island::run_fleet(init, b.spec, p, fleet);

    // committed[k] is the state_dir after epoch k committed; committed[0]
    // holds only the manifest a fresh fleet writes before its first slice.
    const std::string root = temp_dir(std::string("crash_points_") +
                                      shape.name);
    fleet.state_dir = root + "/live";
    {
      robust::StopToken stop;
      stop.request_stop();
      EvolveParams stopped = p;
      stopped.budget.stop = &stop;
      (void)island::run_fleet(init, b.spec, stopped, fleet);
    }
    std::vector<std::string> committed{root + "/epoch0"};
    copy_dir(fleet.state_dir, committed.back());
    fleet.resume = true;
    fleet.max_epochs = 1;
    for (int step = 1; step < 64; ++step) {
      const EvolveResult r = island::run_fleet(init, b.spec, p, fleet);
      committed.push_back(root + "/epoch" + std::to_string(step));
      copy_dir(fleet.state_dir, committed.back());
      if (r.stop_reason == robust::StopReason::kCompleted) break;
    }
    ASSERT_EQ(committed.size(), shape.epochs + 1);

    // halfway[k] holds the island files the periodic saves halfway through
    // epoch k+1 leave: resumed from committed[k] under a generation cap
    // there, each island's last slice saves the same state at the cap.
    std::vector<std::string> halfway;
    fleet.max_epochs = 0;
    if (shape.checkpoint_interval < shape.interval) {
      for (std::size_t k = 0; k + 1 < committed.size(); ++k) {
        halfway.push_back(root + "/halfway" + std::to_string(k));
        copy_dir(committed[k], halfway.back());
        fleet.state_dir = halfway.back();
        EvolveParams capped = p;
        capped.budget.max_generations =
            k * shape.interval + shape.checkpoint_interval;
        (void)island::run_fleet(init, b.spec, capped, fleet);
      }
    }

    // A kill during epoch k+1 leaves the epoch-k manifest with each
    // island's file as epoch k left it, saved halfway, or saved by the
    // island's last slice; or the epoch-(k+1) manifest once the commit
    // went through. Either may carry the temp file of a write that never
    // finished.
    const std::string crashed = root + "/crashed";
    const std::string manifest = island::fleet_manifest_path(crashed);
    for (std::size_t k = 0; k + 1 < committed.size(); ++k) {
      const std::string& before = committed[k];
      const std::string& after = committed[k + 1];
      std::vector<std::string> sources{before};
      if (k < halfway.size()) sources.push_back(halfway[k]);
      sources.push_back(after);
      // versions[i]: the sources whose file of island i a crash can leave
      // (`before` stands for its file or for none).
      std::vector<std::vector<std::string>> versions(fleet.islands);
      std::size_t states = 1;
      for (unsigned i = 0; i < fleet.islands; ++i) {
        versions[i].push_back(before);
        for (std::size_t v = 1; v < sources.size(); ++v) {
          if (std::filesystem::exists(
                  island::island_state_path(sources[v], i))) {
            versions[i].push_back(sources[v]);
          }
        }
        states *= versions[i].size();
      }
      // Island files come only from the periodic saves inside a slice and
      // from each island's last slice.
      const bool last_epoch = k + 2 == committed.size();
      EXPECT_EQ(states, halfway.empty() ? (last_epoch ? 8u : 1u) : 27u)
          << "epoch " << k + 1;
      for (std::size_t point = 0; point <= states; ++point) {
        for (const bool torn : {false, true}) {
          SCOPED_TRACE("epoch " + std::to_string(k + 1) + ", crash point " +
                       std::to_string(point) + " of " +
                       std::to_string(states) + (torn ? ", torn write" : ""));
          if (point == states) {
            copy_dir(after, crashed);
          } else {
            copy_dir(before, crashed);
            std::size_t rest = point;
            for (unsigned i = 0; i < fleet.islands; ++i) {
              const std::string& from =
                  versions[i][rest % versions[i].size()];
              rest /= versions[i].size();
              if (from != before) {
                std::filesystem::copy_file(
                    island::island_state_path(from, i),
                    island::island_state_path(crashed, i),
                    std::filesystem::copy_options::overwrite_existing);
              }
            }
          }
          if (torn) {
            plant_torn_copy(island::fleet_manifest_path(after),
                            manifest + ".tmp.1.0");
            if (std::filesystem::exists(island::island_state_path(after, 0))) {
              plant_torn_copy(island::island_state_path(after, 0),
                              island::island_state_path(crashed, 0) +
                                  ".tmp.1.1");
            }
          }
          fleet.state_dir = crashed;
          const EvolveResult resumed =
              island::run_fleet(init, b.spec, p, fleet);
          EXPECT_EQ(resumed.stop_reason, robust::StopReason::kCompleted);
          expect_same_result(whole, resumed);
          EXPECT_EQ(resumed.mutations_attempted.mutations,
                    whole.mutations_attempted.mutations);
          EXPECT_EQ(resumed.mutations_accepted.mutations,
                    whole.mutations_accepted.mutations);
        }
      }
    }
    std::filesystem::remove_all(root);
  }
}

TEST(IslandFleet, AnEpochCommitsInTheManifestAlone) {
  // Every slice but each island's last leaves its state to the epoch
  // commit in fleet.json: 10 epochs of 4 islands save 4 island files.
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  EvolveParams p = small_params(1000, 11);
  p.checkpoint_interval = 100;

  FleetOptions fleet;
  fleet.islands = 4;
  fleet.topology = Topology::kRing;
  fleet.migration_interval = 100;
  fleet.state_dir = temp_dir("one_commit");
  obs::Counter& saves = obs::registry().counter("robust.checkpoint_saves");
  const std::uint64_t saved_before = saves.value();
  const EvolveResult r = island::run_fleet(init, b.spec, p, fleet);
  EXPECT_EQ(r.stop_reason, robust::StopReason::kCompleted);
  EXPECT_EQ(saves.value() - saved_before, 4u);

  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(fleet.state_dir)) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{"fleet.json", "island-0.ckpt",
                                             "island-1.ckpt", "island-2.ckpt",
                                             "island-3.ckpt"}));
  std::filesystem::remove_all(fleet.state_dir);
}

TEST(IslandFleet, ResumeRefusesASchemaOneManifest) {
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  const EvolveParams p = small_params(200, 3);

  FleetOptions fleet;
  fleet.islands = 2;
  fleet.migration_interval = 50;
  fleet.state_dir = temp_dir("schema1");
  fleet.max_epochs = 1;
  (void)island::run_fleet(init, b.spec, p, fleet);

  // Rewrite the manifest as a schema-1 or schema-2 fleet would have left
  // it: schema 2 kept only the adopters' states in the manifest.
  const std::string manifest = island::fleet_manifest_path(fleet.state_dir);
  const std::string text = read_file(manifest);
  const std::string schema3 = "\"schema\":3";
  ASSERT_NE(text.find(schema3), std::string::npos);
  fleet.resume = true;
  for (const char* old : {"\"schema\":1", "\"schema\":2"}) {
    SCOPED_TRACE(old);
    std::string damaged = text;
    damaged.replace(damaged.find(schema3), schema3.size(), old);
    std::ofstream(manifest, std::ios::trunc) << damaged;
    try {
      (void)island::run_fleet(init, b.spec, p, fleet);
      ADD_FAILURE() << "an old manifest was resumed";
    } catch (const robust::IntegrityError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(manifest), std::string::npos) << what;
      EXPECT_NE(what.find("rerun the fleet"), std::string::npos) << what;
    }
  }
  std::filesystem::remove_all(fleet.state_dir);
}

TEST(IslandFleet, ResumeRefusesAManifestWhoseCountsAreNotExactIntegers) {
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  const EvolveParams p = small_params(200, 3);

  FleetOptions fleet;
  fleet.islands = 2;
  fleet.migration_interval = 50;
  fleet.state_dir = temp_dir("bad_counts");
  fleet.max_epochs = 1;
  (void)island::run_fleet(init, b.spec, p, fleet);

  const std::string manifest = island::fleet_manifest_path(fleet.state_dir);
  std::string text;
  {
    std::ifstream in(manifest);
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  // No integer field holds these exactly; converting them would be
  // undefined behaviour.
  const std::pair<std::string, std::string> damage[] = {
      {"\"islands\":2,", "\"islands\":-1,"},
      {"\"epoch\":1,", "\"epoch\":1e300,"},
      {"\"migration_size\":1,", "\"migration_size\":2.5,"}};
  fleet.resume = true;
  for (const auto& [good, bad] : damage) {
    SCOPED_TRACE(bad);
    std::string damaged = text;
    ASSERT_NE(damaged.find(good), std::string::npos);
    damaged.replace(damaged.find(good), good.size(), bad);
    std::ofstream(manifest, std::ios::trunc) << damaged;
    try {
      (void)island::run_fleet(init, b.spec, p, fleet);
      ADD_FAILURE() << "a damaged manifest was resumed";
    } catch (const robust::IntegrityError& e) {
      EXPECT_EQ(e.kind(), robust::IntegrityError::Kind::kFormat);
      const std::string what = e.what();
      EXPECT_NE(what.find(manifest), std::string::npos) << what;
      EXPECT_NE(what.find(bad.substr(0, bad.find(':'))), std::string::npos)
          << what;
    }
  }
  std::filesystem::remove_all(fleet.state_dir);
}

TEST(IslandFleet, ResumeOfFinishedFleetReturnsSameResult) {
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  const EvolveParams p = small_params(300, 23);

  FleetOptions fleet;
  fleet.islands = 2;
  fleet.migration_interval = 100;
  fleet.state_dir = temp_dir("finished");
  const EvolveResult first = island::run_fleet(init, b.spec, p, fleet);
  fleet.resume = true;
  const EvolveResult again = island::run_fleet(init, b.spec, p, fleet);
  expect_same_result(first, again);
  std::filesystem::remove_all(fleet.state_dir);
}

TEST(IslandFleet, ResumeRejectsMismatchedConfiguration) {
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  EvolveParams p = small_params(200, 3);

  FleetOptions fleet;
  fleet.islands = 2;
  fleet.migration_interval = 50;
  fleet.state_dir = temp_dir("mismatch");
  fleet.max_epochs = 1;
  (void)island::run_fleet(init, b.spec, p, fleet);

  fleet.resume = true;
  p.seed = 4; // different lineage seeds than the manifest records
  EXPECT_THROW(island::run_fleet(init, b.spec, p, fleet),
               std::invalid_argument);
  std::filesystem::remove_all(fleet.state_dir);
}

TEST(IslandFleet, DeadlineBindsTheFleetWhateverItsParallelism) {
  // One epoch far longer than the deadline, run one island at a time: the
  // islands still waiting when the fleet's time is up must not start.
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  EvolveParams p = small_params(100'000'000, 3);
  p.budget.deadline_seconds = 0.3;

  FleetOptions fleet;
  fleet.islands = 4;
  fleet.topology = Topology::kRing;
  fleet.migration_interval = p.generations;
  fleet.parallelism = 1;
  fleet.max_epochs = 1;
  util::Stopwatch watch;
  const EvolveResult r = island::run_fleet(init, b.spec, p, fleet);
  EXPECT_LT(watch.seconds(), 2 * p.budget.deadline_seconds);
  EXPECT_EQ(r.stop_reason, robust::StopReason::kTimeLimit);
  EXPECT_TRUE(cec::sim_check(r.best, b.spec).all_match);
}

TEST(IslandFleet, ResultsAreFunctionallyCorrect) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  FleetOptions fleet;
  fleet.islands = 3;
  fleet.topology = Topology::kFull;
  fleet.migration_interval = 100;
  const EvolveResult r =
      island::run_fleet(init, b.spec, small_params(400, 41), fleet);
  EXPECT_TRUE(cec::sim_check(r.best, b.spec).all_match);
  EXPECT_EQ(r.stop_reason, robust::StopReason::kCompleted);
}

// ---------- Optimizer facade routing ----------

TEST(IslandFleet, OptimizerFacadeRunsFleets) {
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  const EvolveParams p = small_params(400, 19);

  FleetOptions fleet;
  fleet.islands = 2;
  fleet.topology = Topology::kRing;
  fleet.migration_interval = 100;
  const EvolveResult direct = island::run_fleet(init, b.spec, p, fleet);

  core::OptimizerOptions oo;
  oo.evolve = p;
  oo.island.islands = 2;
  oo.island.topology = Topology::kRing;
  oo.island.migration_interval = 100;
  const EvolveResult facade = core::Optimizer(oo).run(init, b.spec).evolve;
  expect_same_result(direct, facade);
}

// ---------- Remote executor preconditions ----------

TEST(IslandRemote, RejectsEmptyEndpointList) {
  EXPECT_THROW(island::RemoteSliceExecutor({}), std::invalid_argument);
}

TEST(IslandRemote, RemotePlacementIsBitIdenticalToLocal) {
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  const EvolveParams p = small_params(400, 7);

  FleetOptions fleet;
  fleet.islands = 2;
  fleet.topology = Topology::kRing;
  fleet.migration_interval = 100;
  fleet.state_dir = temp_dir("placement_local");
  const EvolveResult local = island::run_fleet(init, b.spec, p, fleet);
  std::filesystem::remove_all(fleet.state_dir);

  // Same fleet, but every slice runs on one of two real daemons over TCP,
  // sharing the fleet's state directory as their --checkpoint-dir.
  fleet.state_dir = temp_dir("placement_remote");
  std::filesystem::create_directories(fleet.state_dir);
  std::vector<std::unique_ptr<serve::Server>> daemons;
  std::vector<std::string> endpoints;
  for (int d = 0; d < 2; ++d) {
    serve::ServeOptions so;
    so.listen = "127.0.0.1:0";
    so.checkpoint_dir = fleet.state_dir;
    so.workers = 1;
    daemons.push_back(std::make_unique<serve::Server>(std::move(so)));
    daemons.back()->start();
    endpoints.push_back(daemons.back()->bound_address());
  }
  island::RemoteSliceExecutor remote(endpoints);
  fleet.executor = &remote;
  const EvolveResult distributed = island::run_fleet(init, b.spec, p, fleet);
  for (auto& d : daemons) {
    d->stop();
  }
  expect_same_result(local, distributed);
  std::filesystem::remove_all(fleet.state_dir);
}

TEST(IslandRemote, DaemonWithoutCheckpointDirIsDetected) {
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  const EvolveParams p = small_params(200, 7);

  FleetOptions fleet;
  fleet.islands = 2;
  fleet.topology = Topology::kRing;
  fleet.migration_interval = 100;
  fleet.state_dir = temp_dir("no_ckpt_daemon");
  std::filesystem::create_directories(fleet.state_dir);

  // A daemon started without --checkpoint-dir evolves from scratch
  // in-memory and never opens the fleet's state files. The coordinator's
  // progress guard must surface that as an error, not a silently
  // "completed" fleet stuck at its pre-slice generations.
  serve::ServeOptions so;
  so.listen = "127.0.0.1:0";
  so.workers = 1;
  serve::Server daemon(std::move(so));
  daemon.start();
  island::RemoteSliceExecutor remote({daemon.bound_address()});
  fleet.executor = &remote;
  EXPECT_THROW(island::run_fleet(init, b.spec, p, fleet),
               std::runtime_error);
  daemon.stop();
  std::filesystem::remove_all(fleet.state_dir);
}

TEST(IslandRemote, RequiresFileBackedFleet) {
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  island::RemoteSliceExecutor remote({"/tmp/nonexistent-rcgp.sock"});
  FleetOptions fleet;
  fleet.islands = 2;
  fleet.migration_interval = 50;
  fleet.executor = &remote; // no state_dir: the daemons have no shared state
  EXPECT_THROW(island::run_fleet(init, b.spec, small_params(100, 1), fleet),
               std::invalid_argument);
}

// A request carries no mutation or fitness settings, so a daemon would run
// such a slice under its defaults: the executor refuses before connecting.
TEST(IslandRemote, RejectsMutationAndFitnessSettingsARequestCannotCarry) {
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  island::RemoteSliceExecutor remote({"/tmp/nonexistent-rcgp.sock"});
  const auto expect_rejected = [&](const EvolveParams& p,
                                   const std::string& name) {
    FleetOptions fleet;
    fleet.islands = 2;
    fleet.migration_interval = 50;
    fleet.executor = &remote;
    fleet.state_dir = temp_dir(name);
    EXPECT_THROW(island::run_fleet(init, b.spec, p, fleet),
                 std::invalid_argument)
        << name;
    std::filesystem::remove_all(fleet.state_dir);
  };

  EvolveParams permissive = small_params(100, 1);
  permissive.mutation.strict_po_swap = false;
  expect_rejected(permissive, "remote_po_swap");

  EvolveParams jj = small_params(100, 1);
  jj.fitness.objective = core::Objective::kJjCount;
  expect_rejected(jj, "remote_objective");
}

} // namespace
} // namespace rcgp
