// bench_island — best-cost-vs-wallclock scaling of the island model
// (docs/ISLANDS.md).
//
// For each circuit and each fleet size in {1, 2, 4, 8}, runs an island
// fleet where EVERY island gets the same per-island generation budget.
// A fleet of N islands therefore does N× the search work of a single
// lineage — but since islands advance independently between migrations,
// that work parallelizes across N workers. The fleet is measured SERIALLY
// (one island slice at a time, one pool thread per island), so the
// MODELED wall clock at full placement — N islands on N cores — is
// measured_wall / N (the model leaves out epoch-barrier waits and the
// serial migration step). The interesting question the JSON
// answers: at equal modeled wall clock, does a wider fleet find a better
// circuit than a single lineage? (Paper Table 1 circuits; the CI smoke
// keeps budgets small — raise the env vars for the real experiment.)
//
//   RCGP_ISLAND_GENERATIONS  per-island generation budget (default 3000)
//   RCGP_ISLAND_SEED         base seed (default 2024)
//   RCGP_ISLAND_CIRCUITS     comma list (default full_adder,decoder_2_4)
//   RCGP_ISLAND_COUNTS       comma list of fleet sizes (default 1,2,4,8)
//   RCGP_ISLAND_MIGRATION    migration interval (default budget/10)
//   RCGP_ISLAND_OUT          output JSON path (default BENCH_island.json)
//   RCGP_METRICS_OUT         optional metrics registry dump

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "table_common.hpp"
#include "cec/sim_cec.hpp"
#include "core/flow.hpp"
#include "core/optimizer.hpp"
#include "island/island.hpp"
#include "obs/json.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace rcgp;

std::vector<std::string> split_csv(const std::string& value) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= value.size()) {
    const std::size_t comma = value.find(',', start);
    const std::string piece =
        value.substr(start, comma == std::string::npos ? std::string::npos
                                                       : comma - start);
    if (!piece.empty()) {
      out.push_back(piece);
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return out;
}

std::string env_str(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return (v && *v) ? v : fallback;
}

struct Cell {
  std::string circuit;
  unsigned islands = 0;
  rqfp::Cost best;
  double wall_seconds = 0.0;
  double modeled_parallel_seconds = 0.0;
  bool equivalent = false;
};

} // namespace

int main() {
  const std::uint64_t generations =
      benchtool::env_u64("RCGP_ISLAND_GENERATIONS", 3000);
  const std::uint64_t seed = benchtool::env_u64("RCGP_ISLAND_SEED", 2024);
  const std::uint64_t interval = benchtool::env_u64(
      "RCGP_ISLAND_MIGRATION", std::max<std::uint64_t>(1, generations / 10));
  const std::string out_path =
      env_str("RCGP_ISLAND_OUT", "BENCH_island.json");
  const auto circuits =
      split_csv(env_str("RCGP_ISLAND_CIRCUITS", "full_adder,decoder_2_4"));
  std::vector<unsigned> counts;
  for (const auto& c : split_csv(env_str("RCGP_ISLAND_COUNTS", "1,2,4,8"))) {
    counts.push_back(static_cast<unsigned>(std::stoul(c)));
  }

  std::printf("island scaling: %llu generations/island, migration every "
              "%llu, seed %llu\n\n",
              static_cast<unsigned long long>(generations),
              static_cast<unsigned long long>(interval),
              static_cast<unsigned long long>(seed));
  std::printf("%-12s %8s | %5s %5s %6s %5s | %9s %11s %3s\n", "circuit",
              "islands", "n_r", "n_b", "JJs", "n_g", "wall(s)", "modeled(s)",
              "eq");

  std::vector<Cell> cells;
  for (const auto& name : circuits) {
    const auto b = benchmarks::get(name);
    core::FlowOptions init_opt;
    init_opt.run_cgp = false;
    const rqfp::Netlist initial = core::synthesize(b.spec, init_opt).initial;

    for (const unsigned n : counts) {
      core::EvolveParams p;
      p.generations = generations;
      p.seed = seed;
      p.lambda = 4;
      p.threads = 1;
      island::FleetOptions fleet;
      fleet.islands = n;
      fleet.topology = core::Topology::kRing;
      fleet.migration_interval = interval;
      fleet.parallelism = 1; // serial measurement; see the header comment

      util::Stopwatch watch;
      const core::EvolveResult r =
          island::run_fleet(initial, b.spec, p, fleet);
      Cell cell;
      cell.circuit = name;
      cell.islands = n;
      cell.best = rqfp::cost_of(r.best);
      cell.wall_seconds = watch.seconds();
      cell.modeled_parallel_seconds = cell.wall_seconds / n;
      cell.equivalent = cec::sim_check(r.best, b.spec).all_match;
      cells.push_back(cell);
      std::printf("%-12s %8u | %5u %5u %6u %5u | %9.3f %11.3f %3s\n",
                  name.c_str(), n, cell.best.n_r, cell.best.n_b,
                  cell.best.jjs, cell.best.n_g, cell.wall_seconds,
                  cell.modeled_parallel_seconds,
                  cell.equivalent ? "yes" : "NO");
    }
    std::printf("\n");
  }

  obs::json::Writer w;
  w.begin_object();
  w.field("bench", "island");
  w.field("generations_per_island", generations);
  w.field("migration_interval", interval);
  w.field("seed", seed);
  w.field("topology", "ring");
  w.key("cells").begin_array();
  for (const auto& c : cells) {
    w.begin_object();
    w.field("circuit", c.circuit);
    w.field("islands", c.islands);
    w.field("n_r", c.best.n_r);
    w.field("n_b", c.best.n_b);
    w.field("jjs", c.best.jjs);
    w.field("n_d", c.best.n_d);
    w.field("n_g", c.best.n_g);
    w.field("wall_seconds", c.wall_seconds);
    w.field("modeled_parallel_seconds", c.modeled_parallel_seconds);
    w.field("equivalent", c.equivalent);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_island: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  out << w.str() << "\n";
  std::printf("wrote %s (%zu cells)\n", out_path.c_str(), cells.size());
  benchtool::maybe_write_metrics("RCGP_METRICS_OUT");

  for (const auto& c : cells) {
    if (!c.equivalent) {
      std::fprintf(stderr, "bench_island: %s x%u result not equivalent\n",
                   c.circuit.c_str(), c.islands);
      return 1;
    }
  }
  return 0;
}
