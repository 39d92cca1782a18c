// Ablation D (ours): optimizer comparison at a fixed evaluation budget —
// the paper's (1+lambda) evolutionary strategy vs simulated annealing vs
// multistart ES vs the hybrid ES + SAT-exact window polish.
//
// Env overrides: RCGP_AB_GENERATIONS (default 15000), RCGP_AB_SEEDS (3).

#include <cstdio>

#include "core/optimizer.hpp"
#include "core/window.hpp"
#include "table_common.hpp"

int main() {
  using namespace rcgp;
  using namespace rcgp::benchtool;

  const std::uint64_t generations = env_u64("RCGP_AB_GENERATIONS", 15000);
  const std::uint64_t num_seeds = env_u64("RCGP_AB_SEEDS", 3);
  // The ES evaluates lambda=4 offspring per generation; annealing one.
  const std::uint64_t eval_budget = generations * 4;

  std::printf("Ablation: optimizer comparison "
              "(~%llu fitness evaluations per run, %llu seeds)\n\n",
              static_cast<unsigned long long>(eval_budget),
              static_cast<unsigned long long>(num_seeds));
  std::printf("%-12s %-16s | %8s %8s %8s\n", "testcase", "optimizer", "n_r",
              "n_g", "T(s)");

  for (const char* name : {"decoder_2_4", "full_adder", "graycode4"}) {
    const auto b = benchmarks::get(name);
    core::FlowOptions probe;
    probe.run_cgp = false;
    const auto init = core::synthesize(b.spec, probe).initial;

    struct Acc {
      double r = 0;
      double g = 0;
      double t = 0;
    };
    auto report = [&](const char* label, const Acc& acc) {
      std::printf("%-12s %-16s | %8.2f %8.2f %8.2f\n", name, label,
                  acc.r / num_seeds, acc.g / num_seeds, acc.t / num_seeds);
    };

    Acc es;
    Acc sa;
    Acc multi;
    Acc hybrid;
    for (std::uint64_t s = 0; s < num_seeds; ++s) {
      // All four optimizers run through the unified core::Optimizer
      // facade, which also gives the ES variants λ-parallel evaluation
      // (RCGP_THREADS env, 0 = hardware concurrency).
      core::OptimizerOptions eo;
      eo.evolve.generations = generations;
      eo.evolve.seed = 7000 + s;
      eo.evolve.threads =
          static_cast<unsigned>(env_u64("RCGP_THREADS", 0));
      const auto res_es = core::Optimizer(eo).run(init, b.spec);
      es.r += res_es.best_fitness.n_r;
      es.g += res_es.best_fitness.n_g;
      es.t += res_es.seconds;

      core::OptimizerOptions so;
      so.algorithm = core::Algorithm::kAnneal;
      so.anneal.steps = eval_budget;
      so.anneal.seed = 7000 + s;
      so.anneal.mutation.mu = 0.2;
      const auto res_sa = core::Optimizer(so).run(init, b.spec);
      sa.r += res_sa.best_fitness.n_r;
      sa.g += res_sa.best_fitness.n_g;
      sa.t += res_sa.seconds;

      core::OptimizerOptions mo = eo;
      mo.island.islands = 4; // independent lineages, no migration
      mo.island.topology = core::Topology::kNone;
      const auto res_multi = core::Optimizer(mo).run(init, b.spec);
      multi.r += res_multi.best_fitness.n_r;
      multi.g += res_multi.best_fitness.n_g;
      multi.t += res_multi.seconds;

      const auto polished = core::exact_polish(res_es.best);
      const auto cost = rqfp::cost_of(polished);
      hybrid.r += cost.n_r;
      hybrid.g += cost.n_g;
      hybrid.t += res_es.seconds;
    }
    report("(1+4) ES (paper)", es);
    report("annealing", sa);
    report("multistart x4", multi);
    report("ES + polish", hybrid);
    std::printf("\n");
  }
  return 0;
}
