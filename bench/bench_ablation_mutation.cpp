// Ablation A: mutation-rate sweep. The paper fixes mu = 1; this bench
// shows how the final gate/garbage counts depend on mu at a fixed budget,
// justifying that choice for the netlist-sized chromosomes RCGP evolves.
//
// Env overrides: RCGP_AB_GENERATIONS (default 20000), RCGP_AB_SEEDS (3).

#include <cstdio>

#include "table_common.hpp"

int main() {
  using namespace rcgp;
  using namespace rcgp::benchtool;

  const std::uint64_t generations = env_u64("RCGP_AB_GENERATIONS", 20000);
  const std::uint64_t num_seeds = env_u64("RCGP_AB_SEEDS", 3);
  const double mus[] = {0.05, 0.1, 0.3, 0.6, 1.0};

  std::printf("Ablation: mutation rate sweep "
              "(%llu generations, %llu seeds averaged)\n\n",
              static_cast<unsigned long long>(generations),
              static_cast<unsigned long long>(num_seeds));
  std::printf("%-12s %6s | %8s %8s %8s\n", "testcase", "mu", "n_r", "n_g",
              "T(s)");

  for (const char* name : {"decoder_2_4", "graycode4", "c17"}) {
    const auto b = benchmarks::get(name);
    for (const double mu : mus) {
      double sum_r = 0;
      double sum_g = 0;
      double sum_t = 0;
      for (std::uint64_t s = 0; s < num_seeds; ++s) {
        core::FlowOptions opt;
        opt.evolve.generations = generations;
        opt.evolve.mutation.mu = mu;
        opt.evolve.seed = 1000 + s;
        const auto r = core::synthesize(b.spec, opt);
        sum_r += r.optimized_cost.n_r;
        sum_g += r.optimized_cost.n_g;
        sum_t += r.optimization.evolve.seconds;
      }
      std::printf("%-12s %6.2f | %8.2f %8.2f %8.2f\n", name, mu,
                  sum_r / num_seeds, sum_g / num_seeds, sum_t / num_seeds);
    }
    std::printf("\n");
  }
  return 0;
}
