#include <gtest/gtest.h>

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "cec/sim_cec.hpp"
#include "core/chromosome.hpp"
#include "core/eval_pool.hpp"
#include "core/flow.hpp"
#include "core/optimizer.hpp"
#include "core/shrink.hpp"
#include "obs/metrics.hpp"
#include "rqfp/simd.hpp"
#include "util/rng.hpp"

// Determinism contract of λ-parallel offspring evaluation
// (docs/PARALLELISM.md): because offspring k of generation g draws from
// the counter-based stream Rng::stream(seed, g, k) and selection scans
// offspring in index order, an evolve run is bit-identical for EVERY
// thread count — including through a checkpoint/resume cycle that
// changes the thread count mid-run.

namespace rcgp::core {
namespace {

rqfp::Netlist init_netlist(const std::string& name) {
  const auto b = benchmarks::get(name);
  FlowOptions opt;
  opt.run_cgp = false;
  return synthesize(b.spec, opt).initial;
}

// λ = 4 is the paper's setting; at that λ the pool resolves every thread
// count to the inline path. λ = 9 resolves to real workers claiming ragged
// blocks (2 threads: 5/4, 3 threads: 3/3/3), so every multi-thread check
// below runs at both.
constexpr unsigned kLambdas[] = {4, 9};

EvolveParams small_params(std::uint64_t seed, unsigned threads,
                          unsigned lambda = 4) {
  EvolveParams p;
  p.generations = 400;
  p.lambda = lambda;
  p.seed = seed;
  p.threads = threads;
  return p;
}

OptimizeResult run_evolve(const rqfp::Netlist& initial,
                          std::span<const tt::TruthTable> spec,
                          const EvolveParams& p,
                          const robust::RunBudget& limits = {}) {
  OptimizerOptions oo;
  oo.algorithm = Algorithm::kEvolve;
  oo.evolve = p;
  oo.limits = limits;
  return Optimizer(oo).run(initial, spec);
}

void expect_mix_eq(const MutationMix& a, const MutationMix& b,
                   const std::string& what) {
  EXPECT_EQ(a.mutations, b.mutations) << what;
  EXPECT_EQ(a.genes_changed, b.genes_changed) << what;
  EXPECT_EQ(a.swaps, b.swaps) << what;
  EXPECT_EQ(a.direct_assigns, b.direct_assigns) << what;
  EXPECT_EQ(a.config_flips, b.config_flips) << what;
  EXPECT_EQ(a.po_moves, b.po_moves) << what;
  EXPECT_EQ(a.skipped_infeasible, b.skipped_infeasible) << what;
}

// Everything except wall-clock `seconds` must match bit for bit.
void expect_bit_identical(const EvolveResult& a, const EvolveResult& b,
                          const std::string& what) {
  EXPECT_EQ(a.best, b.best) << what;
  EXPECT_EQ(a.best_fitness.success_rate, b.best_fitness.success_rate) << what;
  EXPECT_EQ(a.best_fitness.n_r, b.best_fitness.n_r) << what;
  EXPECT_EQ(a.best_fitness.n_g, b.best_fitness.n_g) << what;
  EXPECT_EQ(a.best_fitness.n_b, b.best_fitness.n_b) << what;
  EXPECT_EQ(a.generations_run, b.generations_run) << what;
  EXPECT_EQ(a.evaluations, b.evaluations) << what;
  EXPECT_EQ(a.improvements, b.improvements) << what;
  EXPECT_EQ(a.stop_reason, b.stop_reason) << what;
  expect_mix_eq(a.mutations_attempted, b.mutations_attempted, what);
  expect_mix_eq(a.mutations_accepted, b.mutations_accepted, what);
}

TEST(Determinism, RngStreamIsAPureFunctionOfItsCounters) {
  util::Rng a = util::Rng::stream(42, 7, 3);
  util::Rng b = util::Rng::stream(42, 7, 3);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
  // Neighbouring streams must be decorrelated, not merely distinct.
  util::Rng k0 = util::Rng::stream(42, 7, 0);
  util::Rng k1 = util::Rng::stream(42, 7, 1);
  util::Rng g1 = util::Rng::stream(42, 8, 0);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    const auto x = k0.next();
    equal += static_cast<int>(x == k1.next());
    equal += static_cast<int>(x == g1.next());
  }
  EXPECT_EQ(equal, 0);
}

TEST(Determinism, ThreadCountDoesNotChangeEvolveResult) {
  const auto initial = init_netlist("graycode4");
  const auto b = benchmarks::get("graycode4");
  for (const unsigned lambda : kLambdas) {
    for (const std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
      const auto at = [&](unsigned threads) {
        return run_evolve(initial, b.spec, small_params(seed, threads, lambda));
      };
      const auto r1 = at(1);
      const auto r2 = at(2);
      const auto r8 = at(8);
      const std::string what =
          "lambda " + std::to_string(lambda) + ", seed " + std::to_string(seed);
      expect_bit_identical(r1.evolve, r2.evolve, what + ", 1 vs 2 threads");
      expect_bit_identical(r1.evolve, r8.evolve, what + ", 1 vs 8 threads");
      // The facade-level summary fields must agree too.
      EXPECT_EQ(r1.best, r8.best) << what;
      EXPECT_EQ(r1.evaluations, r8.evaluations) << what;
      EXPECT_EQ(r1.stop_reason, r8.stop_reason) << what;
      // And the search must still have done real work on a real problem.
      EXPECT_TRUE(cec::sim_check(r1.best, b.spec).all_match) << what;
    }
  }
}

TEST(Determinism, PoolWidthIsCappedAtOneThreadPerBlock) {
  struct Case {
    unsigned requested, lambda, expected;
  };
  // 0 = hardware concurrency, which the λ = 4 cap brings to 1 anywhere.
  for (const Case c : {Case{0, 4, 1}, Case{8, 4, 1}, Case{8, 8, 2},
                       Case{2, 9, 2}, Case{8, 9, 3}, Case{1, 0, 1}}) {
    EXPECT_EQ(EvalPool::resolve_threads(c.requested, c.lambda), c.expected)
        << "requested " << c.requested << ", lambda " << c.lambda;
  }
}

TEST(Determinism, DefaultThreadCountMatchesExplicitSingleThread) {
  // threads = 0 resolves to hardware concurrency; whatever that resolves
  // to on this machine, the result must equal the threads = 1 run.
  const auto initial = init_netlist("decoder_2_4");
  const auto b = benchmarks::get("decoder_2_4");
  const auto pinned = run_evolve(initial, b.spec, small_params(11, 1));
  const auto automatic = run_evolve(initial, b.spec, small_params(11, 0));
  expect_bit_identical(pinned.evolve, automatic.evolve, "threads 1 vs auto");
}

TEST(Determinism, MultistartIsThreadCountInvariant) {
  const auto initial = init_netlist("full_adder");
  const auto b = benchmarks::get("full_adder");
  OptimizerOptions oo;
  oo.island.islands = 3;
  oo.island.topology = Topology::kNone;
  oo.evolve = small_params(9, 1);
  oo.evolve.generations = 300;
  const auto r1 = Optimizer(oo).run(initial, b.spec);
  oo.evolve.threads = 8;
  const auto r8 = Optimizer(oo).run(initial, b.spec);
  expect_bit_identical(r1.evolve, r8.evolve, "multistart 1 vs 8 threads");
}

TEST(Determinism, ResumeAtDifferentThreadCountMatchesUninterrupted) {
  const auto initial = init_netlist("graycode4");
  const auto b = benchmarks::get("graycode4");

  for (const unsigned lambda : kLambdas) {
    const std::string what = "lambda " + std::to_string(lambda);
    EvolveParams p = small_params(23, 0, lambda);
    p.generations = 600;

    // Reference: one uninterrupted single-threaded run.
    EvolveParams ref = p;
    ref.threads = 1;
    const auto uninterrupted = run_evolve(initial, b.spec, ref);

    // Interrupted: run the first 250 generations with 2 threads, writing
    // checkpoints; then resume the remaining 350 with 8 threads. The
    // checkpoint stores no RNG engine state, so the thread-count switch is
    // free: streams are re-derived from (seed, generation, k).
    const std::string path = ::testing::TempDir() + "determinism_resume_" +
                             std::to_string(lambda) + ".ckpt";
    std::remove(path.c_str());

    EvolveParams chunk = p;
    chunk.threads = 2;
    chunk.checkpoint_path = path;
    chunk.checkpoint_interval = 100;
    robust::RunBudget first_leg;
    first_leg.max_generations = 250;
    const auto partial = run_evolve(initial, b.spec, chunk, first_leg);
    ASSERT_EQ(partial.stop_reason, robust::StopReason::kGenerationBudget)
        << what;
    ASSERT_LT(partial.evolve.generations_run, p.generations) << what;

    OptimizerOptions resume_opts;
    resume_opts.algorithm = Algorithm::kEvolve;
    resume_opts.evolve = chunk;
    resume_opts.evolve.threads = 8;
    resume_opts.island.resume = true;
    const auto resumed = Optimizer(resume_opts).run(initial, b.spec);

    EXPECT_TRUE(resumed.evolve.resumed) << what;
    EvolveResult final = resumed.evolve;
    final.resumed = false; // the only field allowed to differ
    expect_bit_identical(
        uninterrupted.evolve, final,
        what + ", resumed(2->8 threads) vs uninterrupted(1 thread)");
    std::remove(path.c_str());
  }
}

TEST(Determinism, SimdTierDoesNotChangeEvolveResult) {
  // All kernel tiers are bit-identical by construction (docs/SIMD.md), so
  // forcing any available tier — across thread counts — must reproduce the
  // scalar single-threaded run exactly.
  struct TierGuard {
    rqfp::simd::Tier saved = rqfp::simd::active_tier();
    ~TierGuard() { rqfp::simd::force_tier(saved); }
  } guard;
  const auto initial = init_netlist("graycode4");
  const auto b = benchmarks::get("graycode4");

  for (const unsigned lambda : kLambdas) {
    rqfp::simd::force_tier(rqfp::simd::Tier::kScalar);
    const auto ref = run_evolve(initial, b.spec, small_params(17, 1, lambda));
    for (const rqfp::simd::Tier tier : rqfp::simd::available_tiers()) {
      rqfp::simd::force_tier(tier);
      const std::string what =
          "lambda " + std::to_string(lambda) + ", tier " +
          std::string(rqfp::simd::to_string(tier));
      const auto r1 = run_evolve(initial, b.spec, small_params(17, 1, lambda));
      const auto r4 = run_evolve(initial, b.spec, small_params(17, 4, lambda));
      expect_bit_identical(ref.evolve, r1.evolve, what + ", 1 thread");
      expect_bit_identical(ref.evolve, r4.evolve, what + ", 4 threads");
    }
  }
}

/// evolve's generation loop written out over an EvalPool that simulates
/// every child in full (EvalJob::early_reject off) and numbers no parent
/// (EvalJob::parent_version 0): the same jobs, the selection scan in
/// offspring order with later ties winning, acceptance of a
/// better-or-equal child, shrink, and every counter of the result.
/// Each pooled child must also be the one the 3-argument mutate makes
/// from the parent, so the worker's consumer map cannot go stale.
EvolveResult full_rate_lineage(const rqfp::Netlist& initial,
                               std::span<const tt::TruthTable> spec,
                               const EvolveParams& p) {
  EvolveResult r;
  r.best = shrink(initial);
  r.best_fitness = evaluate(r.best, spec, p.fitness);
  r.evaluations = 1;
  EvalPool pool(1);
  std::vector<OffspringResult> offspring(p.lambda);
  for (std::uint64_t gen = 0; gen < p.generations; ++gen) {
    EvalJob job;
    job.parent = &r.best;
    job.spec = spec;
    job.mutation = p.mutation;
    job.fitness = p.fitness;
    job.seed = p.seed;
    job.generation = gen;
    job.lambda = p.lambda;
    EXPECT_TRUE(pool.evaluate_generation(job, offspring));
    r.evaluations += p.lambda;
    unsigned best = 0;
    for (unsigned k = 0; k < p.lambda; ++k) {
      rqfp::Netlist refilled = r.best;
      util::Rng rng = util::Rng::stream(p.seed, gen, k);
      const MutationStats stats = mutate(refilled, rng, p.mutation);
      EXPECT_EQ(offspring[k].child, refilled) << "gen " << gen << ", k " << k;
      EXPECT_EQ(offspring[k].stats.genes_changed, stats.genes_changed);
      r.mutations_attempted.add(offspring[k].stats);
      if (offspring[k].fitness.better_or_equal(offspring[best].fitness)) {
        best = k;
      }
    }
    ++r.since_improvement;
    if (offspring[best].fitness.better_or_equal(r.best_fitness)) {
      if (offspring[best].fitness.strictly_better(r.best_fitness)) {
        ++r.improvements;
        r.since_improvement = 0;
        r.last_improvement_gen = gen;
      }
      r.best = shrink(offspring[best].child);
      r.best_fitness = offspring[best].fitness;
      r.mutations_accepted.add(offspring[best].stats);
    }
  }
  r.generations_run = p.generations;
  return r;
}

TEST(Determinism, EarlyRejectKeepsTheLineage) {
  // evolve stops simulating a child at its first output wrong in word 0;
  // intdiv8 and intdiv10 have rows of 4 and 16 words, alu rows of one
  // word, where a child is rejected exactly when it is wrong. Selection
  // never takes a wrong child over the correct parent, so every field of
  // the result must equal the full-rate loop. That loop sends jobs
  // without a parent version, so its workers compare the parent gene by
  // gene where evolve's skip the compare for a parent they hold.
  obs::Counter& rejects = obs::registry().counter("evolve.pool.early_rejects");
  for (const std::string row : {"intdiv8", "intdiv10", "alu"}) {
    const auto b = benchmarks::get(row);
    const auto initial = init_netlist(row);
    for (const unsigned lambda : kLambdas) {
      EvolveParams p = small_params(3, 1, lambda);
      p.generations = 1000;
      p.mutation.mu = 12.0 / num_genes(shrink(initial));
      const EvolveResult want = full_rate_lineage(initial, b.spec, p);
      EXPECT_GT(want.improvements, 0u) << row;
      for (const unsigned threads : {1u, 2u, 8u}) {
        const std::string what = row + ", lambda " + std::to_string(lambda) +
                                 ", " + std::to_string(threads) + " threads";
        p.threads = threads;
        const std::uint64_t before = rejects.value();
        const EvolveResult got = run_evolve(initial, b.spec, p).evolve;
        EXPECT_GT(rejects.value(), before) << what << ": nothing rejected";
        expect_bit_identical(want, got, what);
        EXPECT_EQ(got.since_improvement, want.since_improvement) << what;
        EXPECT_EQ(got.last_improvement_gen, want.last_improvement_gen)
            << what;
        EXPECT_EQ(got.sat_confirmations, 0u) << what;
        EXPECT_EQ(got.sat_cec_conflicts, 0u) << what;
        EXPECT_FALSE(got.resumed) << what;
      }
    }
  }
}

TEST(Determinism, EvaluationBudgetIsThreadCountInvariant) {
  // The evaluation budget is decided only at generation boundaries
  // (evaluations + λ > max_evaluations), so the exact stopping point —
  // the subtlest thread-count hazard — must not depend on `threads`.
  const auto initial = init_netlist("decoder_2_4");
  const auto b = benchmarks::get("decoder_2_4");
  for (const unsigned lambda : kLambdas) {
    const std::string what = "lambda " + std::to_string(lambda);
    EvolveParams p = small_params(5, 1, lambda);
    p.generations = 100000;
    // 400 whole generations after the initial evaluation fit; the 401st
    // would overshoot the 3 spare evaluations.
    robust::RunBudget limits;
    limits.max_evaluations = 1 + 400 * lambda + 3;
    const auto r1 = run_evolve(initial, b.spec, p, limits);
    p.threads = 8;
    const auto r8 = run_evolve(initial, b.spec, p, limits);
    EXPECT_EQ(r1.stop_reason, robust::StopReason::kEvaluationBudget) << what;
    EXPECT_EQ(r1.evolve.evaluations, 1 + 400 * lambda) << what;
    EXPECT_EQ(r1.evolve.generations_run, 400u) << what;
    expect_bit_identical(r1.evolve, r8.evolve,
                         what + ", eval budget 1 vs 8 threads");
  }
}

} // namespace
} // namespace rcgp::core
