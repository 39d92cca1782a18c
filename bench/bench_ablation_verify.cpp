// Ablation C: fitness-evaluation strategy. The paper combines circuit
// simulation with formal verification (§3.2.1); this bench measures what
// each costs and sweeps the (1+lambda) offspring count.
//
// Env overrides: RCGP_AB_GENERATIONS (default 10000), RCGP_AB_SEEDS (3).

#include <cstdio>

#include "cec/sat_cec.hpp"
#include "core/optimizer.hpp"
#include "table_common.hpp"
#include "util/stopwatch.hpp"

int main() {
  using namespace rcgp;
  using namespace rcgp::benchtool;

  const std::uint64_t generations = env_u64("RCGP_AB_GENERATIONS", 10000);
  const std::uint64_t num_seeds = env_u64("RCGP_AB_SEEDS", 3);

  std::printf("Ablation: verification strategy and lambda sweep "
              "(%llu generations, %llu seeds)\n\n",
              static_cast<unsigned long long>(generations),
              static_cast<unsigned long long>(num_seeds));

  // Part 1: simulation-only vs simulation+SAT confirmation of accepted
  // improvements.
  std::printf("-- verification strategy --\n");
  std::printf("%-12s %-14s | %8s %8s %8s %10s\n", "testcase", "strategy",
              "n_r", "n_g", "T(s)", "SAT calls");
  for (const char* name : {"decoder_2_4", "c17"}) {
    const auto b = benchmarks::get(name);
    for (const bool sat : {false, true}) {
      double sum_r = 0;
      double sum_g = 0;
      double sum_t = 0;
      std::uint64_t sat_calls = 0;
      for (std::uint64_t s = 0; s < num_seeds; ++s) {
        core::FlowOptions opt;
        opt.evolve.generations = generations;
        opt.evolve.sat_verify_improvements = sat;
        opt.evolve.seed = 3000 + s;
        const auto r = core::synthesize(b.spec, opt);
        sum_r += r.optimized_cost.n_r;
        sum_g += r.optimized_cost.n_g;
        sum_t += r.optimization.evolve.seconds;
        sat_calls += r.optimization.evolve.sat_confirmations;
      }
      std::printf("%-12s %-14s | %8.2f %8.2f %8.3f %10llu\n", name,
                  sat ? "sim+SAT" : "sim only", sum_r / num_seeds,
                  sum_g / num_seeds, sum_t / num_seeds,
                  static_cast<unsigned long long>(sat_calls));
    }
  }

  // Part 2: lambda sweep at a fixed offspring budget (generations scale
  // inversely so total evaluations stay constant).
  std::printf("\n-- (1+lambda) sweep at constant evaluation budget --\n");
  std::printf("%-12s %6s | %8s %8s %8s\n", "testcase", "lambda", "n_r",
              "n_g", "T(s)");
  const std::uint64_t eval_budget = generations * 4;
  for (const char* name : {"decoder_2_4", "graycode4"}) {
    const auto b = benchmarks::get(name);
    for (const unsigned lambda : {1u, 2u, 4u, 8u, 16u}) {
      double sum_r = 0;
      double sum_g = 0;
      double sum_t = 0;
      for (std::uint64_t s = 0; s < num_seeds; ++s) {
        core::FlowOptions opt;
        opt.evolve.lambda = lambda;
        opt.evolve.generations = eval_budget / lambda;
        opt.evolve.seed = 4000 + s;
        const auto r = core::synthesize(b.spec, opt);
        sum_r += r.optimized_cost.n_r;
        sum_g += r.optimized_cost.n_g;
        sum_t += r.optimization.evolve.seconds;
      }
      std::printf("%-12s %6u | %8.2f %8.2f %8.3f\n", name, lambda,
                  sum_r / num_seeds, sum_g / num_seeds, sum_t / num_seeds);
    }
    std::printf("\n");
  }

  // Part 2b: restart sweep (our extension) at constant total budget.
  std::printf("-- multistart sweep at constant total budget --\n");
  std::printf("%-12s %8s | %8s %8s\n", "testcase", "islands", "n_r", "n_g");
  for (const char* name : {"decoder_2_4", "full_adder"}) {
    const auto b = benchmarks::get(name);
    core::FlowOptions probe;
    probe.run_cgp = false;
    const auto init = core::synthesize(b.spec, probe).initial;
    for (const unsigned islands : {1u, 2u, 4u, 8u}) {
      double sum_r = 0;
      double sum_g = 0;
      for (std::uint64_t s = 0; s < num_seeds; ++s) {
        core::OptimizerOptions oo;
        oo.island.islands = islands; // independent lineages, no migration
        oo.island.topology = core::Topology::kNone;
        oo.evolve.generations = generations * 4;
        oo.evolve.seed = 5000 + s;
        const auto r = core::Optimizer(oo).run(init, b.spec);
        sum_r += r.best_fitness.n_r;
        sum_g += r.best_fitness.n_g;
      }
      std::printf("%-12s %8u | %8.2f %8.2f\n", name, islands,
                  sum_r / num_seeds, sum_g / num_seeds);
    }
    std::printf("\n");
  }

  // Part 3: raw cost of one SAT equivalence proof vs one exhaustive
  // simulation on a mid-size netlist.
  std::printf("-- single-check microcost (graycode4 final circuit) --\n");
  {
    const auto b = benchmarks::get("graycode4");
    core::FlowOptions opt;
    opt.evolve.generations = generations;
    const auto r = core::synthesize(b.spec, opt);
    util::Stopwatch w;
    for (int i = 0; i < 1000; ++i) {
      (void)cec::sim_check(r.optimized, b.spec);
    }
    const double sim_us = w.seconds() * 1e3; // ms per 1000 = us each
    w.restart();
    for (int i = 0; i < 50; ++i) {
      (void)cec::sat_check(r.optimized, b.spec);
    }
    const double sat_us = w.seconds() * 1e6 / 50;
    std::printf("exhaustive simulation: %.1f us/check, SAT proof: %.1f "
                "us/check\n",
                sim_us, sat_us);
  }
  return 0;
}
