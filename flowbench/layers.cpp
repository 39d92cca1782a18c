#include "layers.hpp"

#include <chrono>

#include "aig/aig_simulate.hpp"
#include "aig/resyn.hpp"
#include "cec/sim_cec.hpp"
#include "core/eval_pool.hpp"
#include "core/fitness.hpp"
#include "core/flow.hpp"
#include "core/mutation.hpp"
#include "core/shrink.hpp"
#include "mig/mig_from_aig.hpp"
#include "mig/mig_rewrite.hpp"
#include "obs/metrics.hpp"
#include "rqfp/cost.hpp"
#include "rqfp/map_from_mig.hpp"
#include "rqfp/simulate.hpp"
#include "rqfp/splitter.hpp"
#include "util/rng.hpp"

namespace flowbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

bool same_fitness(const core::Fitness& a, const core::Fitness& b) {
  return a.success_rate == b.success_rate && a.n_r == b.n_r &&
         a.n_g == b.n_g && a.n_b == b.n_b;
}

} // namespace

FrontEndResult replay_front_end(std::span<const tt::TruthTable> spec,
                                FrontEndLayers& layers) {
  // core::synthesize(spec) enters through aig_from_tables and cleans the
  // AIG once more before the first phase.
  rcgp::aig::Aig net = core::aig_from_tables(spec).cleanup();
  auto t0 = Clock::now();
  net = rcgp::aig::resyn2(net);
  auto t1 = Clock::now();
  rcgp::mig::Mig m = rcgp::mig::mig_from_aig(net);
  auto t2 = Clock::now();
  m = rcgp::mig::optimize_mig(m);
  auto t3 = Clock::now();
  FrontEndResult out;
  out.initial = rqfp::insert_splitters(rqfp::map_from_mig(m));
  auto t4 = Clock::now();
  layers.resyn2_s += since(t0, t1);
  layers.mig_map_s += since(t1, t2);
  layers.mig_opt_s += since(t2, t3);
  layers.rqfp_map_s += since(t3, t4);
  layers.aig_nodes += net.count_live_ands();
  layers.mig_nodes += m.count_live_majs();
  layers.rqfp_gates += out.initial.num_gates();
  out.cgp_spec = rcgp::aig::simulate(net);
  return out;
}

rqfp::Netlist replay_cgp(const rqfp::Netlist& initial,
                         std::span<const tt::TruthTable> spec,
                         const core::EvolveParams& params,
                         std::uint64_t generations, CgpLayers& layers) {
  const unsigned lambda = params.lambda;
  const rqfp::BufferSchedule schedule = params.fitness.schedule;
  rcgp::obs::Counter& sim_words = rcgp::obs::registry().counter("sim.words");

  // Start state of evolve: the shrunk initial netlist, evaluated once.
  rqfp::Netlist parent = core::shrink(initial);
  core::Fitness parent_fit = core::evaluate(parent, spec, params.fitness);

  // Every parent the run had, with the generation it took over, and every
  // offspring fitness: the second sweep feeds the same parents to EvalPool
  // and must get the same fitnesses back.
  std::vector<std::pair<std::uint64_t, rqfp::Netlist>> parents{{0, parent}};
  std::vector<core::Fitness> split(generations * lambda);

  // The serial split of EvalPool::evaluate_block: one worker's caches, the
  // offspring of one block, and the λ-batch scratch.
  rqfp::Netlist base;
  rqfp::SimCache cache;
  rqfp::CostCache cost;
  bool cache_valid = false;
  std::vector<rqfp::Netlist> children(lambda);
  std::vector<core::MutationStats> stats(lambda);
  std::vector<const rqfp::Netlist*> child_ptrs;
  for (const rqfp::Netlist& c : children) {
    child_ptrs.push_back(&c);
  }
  std::vector<core::Fitness> fitness(lambda);
  rqfp::DeltaBatch batch;

  for (std::uint64_t gen = 0; gen < generations; ++gen) {
    const auto start = Clock::now();

    // Cache sync, in the tiers evaluate_block uses.
    if (!cache_valid || base.num_gates() != parent.num_gates() ||
        base.num_pis() != parent.num_pis()) {
      rqfp::build_sim_cache(parent, cache);
      rqfp::build_cost_cache(parent, schedule, cost);
      base = parent;
      cache_valid = true;
    } else if (!(base == parent)) {
      rqfp::update_sim_cache(base, parent, cache);
      if (cost.valid && cost.schedule == schedule &&
          base.num_pos() == parent.num_pos()) {
        rqfp::update_cost_cache(base, parent, cost);
      } else {
        rqfp::build_cost_cache(parent, schedule, cost);
      }
      base = parent;
    } else if (!cost.valid || cost.schedule != schedule) {
      rqfp::build_cost_cache(parent, schedule, cost);
    }
    // Each interval starts where the previous one ended, so the glue
    // between calls is charged to the neighbouring layer, not lost.
    auto t = Clock::now();
    auto u = t;
    layers.cache_sync_s += since(start, t);

    for (unsigned k = 0; k < lambda; ++k) {
      children[k] = parent;
      u = Clock::now();
      layers.copy_s += since(t, u);
      t = u;
      rcgp::util::Rng rng = rcgp::util::Rng::stream(params.seed, gen, k);
      stats[k] = core::mutate(children[k], rng, params.mutation);
      u = Clock::now();
      layers.mutate_s += since(t, u);
      t = u;
    }

    const std::uint64_t words_before = sim_words.value();
    t = Clock::now();
    rqfp::simulate_delta_batch(base, child_ptrs, cache, batch);
    u = Clock::now();
    layers.delta_sim_s += since(t, u);
    t = u;
    layers.sim_words += sim_words.value() - words_before;

    for (unsigned k = 0; k < lambda; ++k) {
      const rcgp::cec::SimResult sim =
          rcgp::cec::sim_compare(batch.children[k].po, spec);
      u = Clock::now();
      layers.compare_s += since(t, u);
      t = u;
      core::Fitness f;
      f.objective = params.fitness.objective;
      f.success_rate = sim.success_rate;
      if (sim.all_match) {
        f.success_rate = 1.0;
        const rqfp::Cost c = rqfp::cost_of_delta(base, children[k], cost);
        f.n_r = c.n_r;
        f.n_g = c.n_g;
        f.n_b = c.n_b;
        u = Clock::now();
        layers.delta_cost_s += since(t, u);
        t = u;
      }
      fitness[k] = f;
    }

    // Selection in offspring-index order (later ties win), then shrink of
    // an accepted child, exactly as evolve decides.
    unsigned best = 0;
    for (unsigned k = 1; k < lambda; ++k) {
      if (fitness[k].better_or_equal(fitness[best])) {
        best = k;
      }
    }
    const bool accept = fitness[best].better_or_equal(parent_fit);
    if (accept) {
      parent = core::shrink(children[best]);
      parent_fit = fitness[best];
    }
    const auto end = Clock::now();
    layers.select_shrink_s += since(t, end);
    layers.serial_wall_s += since(start, end);

    // Bookkeeping outside the timed window.
    if (accept) {
      ++layers.accepted;
      parents.emplace_back(gen + 1, parent);
    }
    for (unsigned k = 0; k < lambda; ++k) {
      layers.correct += fitness[k].functionally_correct() ? 1 : 0;
      layers.genes_changed += stats[k].genes_changed;
      split[gen * lambda + k] = fitness[k];
    }
  }
  layers.generations += generations;
  layers.offspring += generations * lambda;

  // Production path: EvalPool at the run's thread count, generations back
  // to back as evolve runs them, on the parents recorded above.
  core::EvalPool pool(core::EvalPool::resolve_threads(params.threads, lambda));
  std::vector<core::OffspringResult> pooled(lambda);
  std::size_t current = 0;
  double pool_s = 0.0;
  for (std::uint64_t gen = 0; gen < generations; ++gen) {
    while (current + 1 < parents.size() && parents[current + 1].first <= gen) {
      ++current;
    }
    core::EvalJob job;
    job.parent = &parents[current].second;
    job.spec = spec;
    job.mutation = params.mutation;
    job.fitness = params.fitness;
    job.seed = params.seed;
    job.generation = gen;
    job.lambda = lambda;
    const auto a = Clock::now();
    pool.evaluate_generation(job, pooled);
    pool_s += since(a, Clock::now());
    for (unsigned k = 0; k < lambda; ++k) {
      if (!same_fitness(pooled[k].fitness, split[gen * lambda + k])) {
        layers.pool_identical = false;
      }
    }
  }
  layers.threads = pool.threads();
  layers.pool_s += pool_s;
  layers.pool_busy_s += pool.utilization() * pool_s;
  return parent;
}

} // namespace flowbench
