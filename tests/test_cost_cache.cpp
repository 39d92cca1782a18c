#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "core/flow.hpp"
#include "core/mutation.hpp"
#include "core/optimizer.hpp"
#include "rqfp/cost.hpp"
#include "util/rng.hpp"

// Property suite for the incremental cost path (docs/COST_EVAL.md):
// cost_of_delta against a CostCache must equal cost_of, which in turn
// must equal the historical remove_dead_gates()-copy formulation, for
// every field and every BufferSchedule, across randomized mutation
// chains — and wiring the cache into the eval pool must leave evolve
// trajectories bit-identical at any thread count.

namespace rcgp::rqfp {
namespace {

constexpr std::array<BufferSchedule, 4> kAllSchedules = {
    BufferSchedule::kAsap, BufferSchedule::kAlap, BufferSchedule::kBest,
    BufferSchedule::kOptimized};

const char* schedule_name(BufferSchedule s) {
  switch (s) {
  case BufferSchedule::kAsap:
    return "kAsap";
  case BufferSchedule::kAlap:
    return "kAlap";
  case BufferSchedule::kBest:
    return "kBest";
  case BufferSchedule::kOptimized:
    return "kOptimized";
  }
  return "?";
}

/// The pre-cache formulation: materialize the dead-gate-free copy and
/// plan buffers on it from scratch. cost_of must keep matching this.
Cost reference_cost(const Netlist& net, BufferSchedule schedule) {
  const Netlist live = net.remove_dead_gates();
  Cost c;
  c.n_r = live.num_gates();
  c.n_g = live.count_garbage_outputs();
  const BufferPlan plan = plan_buffers(live, schedule);
  c.n_b = plan.total;
  c.n_d = plan.depth;
  c.jjs = kJjsPerGate * c.n_r + kJjsPerBuffer * c.n_b;
  return c;
}

void expect_cost_eq(const Cost& a, const Cost& b, const std::string& what) {
  EXPECT_EQ(a.n_r, b.n_r) << what;
  EXPECT_EQ(a.n_g, b.n_g) << what;
  EXPECT_EQ(a.n_b, b.n_b) << what;
  EXPECT_EQ(a.n_d, b.n_d) << what;
  EXPECT_EQ(a.jjs, b.jjs) << what;
}

/// Random feed-forward netlist with plenty of dead gates (fan-out above
/// one is fine here: the cost functions accept raw netlists).
Netlist random_netlist(std::uint64_t seed) {
  util::Rng rng(seed);
  const unsigned num_pis = 2 + static_cast<unsigned>(rng.below(4));
  Netlist net(num_pis);
  std::vector<Port> avail;
  for (Port p = 1; p <= num_pis; ++p) {
    avail.push_back(p);
  }
  const unsigned gates = 3 + static_cast<unsigned>(rng.below(12));
  for (unsigned g = 0; g < gates; ++g) {
    std::array<Port, 3> in{};
    for (auto& p : in) {
      const auto pick = rng.below(avail.size() + 1);
      p = pick == avail.size() ? kConstPort : avail[pick];
    }
    const auto id = net.add_gate(
        in, InvConfig(static_cast<std::uint16_t>(rng.below(512))));
    for (unsigned k = 0; k < 3; ++k) {
      avail.push_back(net.port_of(id, k));
    }
  }
  const unsigned pos = 1 + static_cast<unsigned>(rng.below(3));
  for (unsigned o = 0; o < pos; ++o) {
    net.add_po(avail[rng.below(avail.size())]);
  }
  return net;
}

/// A legal CGP phenotype to drive mutation chains from.
Netlist init_netlist(const std::string& name) {
  const auto b = benchmarks::get(name);
  core::FlowOptions opt;
  opt.run_cgp = false;
  return core::synthesize(b.spec, opt).initial;
}

TEST(CostCache, CostOfMatchesReferenceOnRandomNetlists) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const Netlist net = random_netlist(seed);
    for (const auto s : kAllSchedules) {
      expect_cost_eq(cost_of(net, s), reference_cost(net, s),
                     "seed=" + std::to_string(seed) + " " + schedule_name(s));
    }
  }
}

TEST(CostCache, DepthOverloadAgreesWithDepth) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const Netlist net = random_netlist(seed + 1000);
    EXPECT_EQ(net.depth(net.gate_levels()), net.depth());
  }
}

TEST(CostCache, DeltaMatchesFullAcrossMutationChains) {
  for (const char* name : {"full_adder", "decoder_2_4"}) {
    const Netlist initial = init_netlist(name);
    for (const auto s : kAllSchedules) {
      CostCache cache;
      Netlist current = initial;
      Cost base = build_cost_cache(current, s, cache);
      expect_cost_eq(base, reference_cost(current, s),
                     std::string(name) + " " + schedule_name(s) + " base");
      util::Rng rng(42);
      core::MutationParams mp;
      for (unsigned step = 0; step < 120; ++step) {
        Netlist child = current;
        core::mutate(child, rng, mp);
        const std::string what = std::string(name) + " " + schedule_name(s) +
                                 " step=" + std::to_string(step);
        const Cost expect = reference_cost(child, s);
        const Cost got = cost_of_delta(current, child, cache);
        expect_cost_eq(got, expect, what);
        expect_cost_eq(cost_of(child, s), expect, what + " (cost_of)");
        // A transient delta must not re-base the cache: the same query
        // answers identically and the cached base cost is untouched.
        expect_cost_eq(cost_of_delta(current, child, cache), expect,
                       what + " (repeat)");
        expect_cost_eq(cache.base_cost, base, what + " (cache intact)");
        if (step % 3 == 0) { // follow an accepted-offspring trajectory
          base = update_cost_cache(current, child, cache);
          expect_cost_eq(base, expect, what + " (commit)");
          current = std::move(child);
        }
      }
    }
  }
}

TEST(CostCache, TouchedGatesOverloadAgrees) {
  const Netlist initial = init_netlist("full_adder");
  CostCache cache;
  build_cost_cache(initial, BufferSchedule::kOptimized, cache);

  util::Rng rng(7);
  Netlist child = initial;
  core::mutate(child, rng, {});
  // Trusting an exhaustive touched list is the same as scanning.
  std::vector<std::uint32_t> all(initial.num_gates());
  for (std::uint32_t g = 0; g < initial.num_gates(); ++g) {
    all[g] = g;
  }
  expect_cost_eq(
      cost_of_delta(initial, child, std::span<const std::uint32_t>(all),
                    cache),
      cost_of_delta(initial, child, cache), "touched == scan");

  // A config-only edit with an (accurate) empty touched list short-cuts
  // to the cached base cost.
  Netlist flipped = initial;
  flipped.gate(0).config = InvConfig(
      static_cast<std::uint16_t>(flipped.gate(0).config.bits() ^ 0x1));
  expect_cost_eq(cost_of_delta(initial, flipped,
                               std::span<const std::uint32_t>(), cache),
                 cache.base_cost, "config-only");
}

TEST(CostCache, ThrowsOnUnbuiltCacheOrShapeMismatch) {
  const Netlist a = init_netlist("full_adder");
  const Netlist b = init_netlist("decoder_2_4");
  CostCache cache;
  EXPECT_THROW(cost_of_delta(a, a, cache), std::invalid_argument);
  build_cost_cache(a, BufferSchedule::kBest, cache);
  EXPECT_THROW(cost_of_delta(a, b, cache), std::invalid_argument);
  EXPECT_THROW(cost_of_delta(b, b, cache), std::invalid_argument);
  EXPECT_THROW(update_cost_cache(a, b, cache), std::invalid_argument);
}

TEST(CostCache, ScratchBytesStabilize) {
  const Netlist initial = init_netlist("decoder_2_4");
  CostCache cache;
  build_cost_cache(initial, BufferSchedule::kOptimized, cache);
  util::Rng rng(3);
  Netlist current = initial;
  // Warm-up: let every scratch vector reach steady-state capacity.
  for (unsigned step = 0; step < 10; ++step) {
    Netlist child = current;
    core::mutate(child, rng, {});
    cost_of_delta(current, child, cache);
    update_cost_cache(current, child, cache);
    current = std::move(child);
  }
  const std::size_t warm = cache.scratch_bytes();
  EXPECT_GT(warm, 0u);
  // Steady state: no allocation growth across further evaluations.
  for (unsigned step = 0; step < 200; ++step) {
    Netlist child = current;
    core::mutate(child, rng, {});
    cost_of_delta(current, child, cache);
    EXPECT_EQ(cache.scratch_bytes(), warm) << "step=" << step;
  }
}

// Wiring the cost cache through the eval pool must not move a single bit
// of the search trajectory, at any thread count and any schedule.
TEST(CostCache, EvolveBitIdenticalAcrossThreadCounts) {
  const auto b = benchmarks::get("graycode4");
  const Netlist initial = init_netlist("graycode4");
  // λ = 4 resolves 8 threads to the inline path; λ = 9 to 3 real workers,
  // each syncing its own CostCache scratch.
  for (const unsigned lambda : {4u, 9u}) {
    core::OptimizerOptions oo;
    oo.algorithm = core::Algorithm::kEvolve;
    oo.evolve.generations = 300;
    oo.evolve.lambda = lambda;
    oo.evolve.seed = 5;
    oo.evolve.fitness.schedule = BufferSchedule::kOptimized;
    oo.evolve.threads = 1;
    const auto r1 = core::Optimizer(oo).run(initial, b.spec);
    oo.evolve.threads = 8;
    const auto r8 = core::Optimizer(oo).run(initial, b.spec);
    EXPECT_EQ(r1.evolve.best, r8.evolve.best) << "lambda " << lambda;
    EXPECT_EQ(r1.evolve.best_fitness.n_r, r8.evolve.best_fitness.n_r);
    EXPECT_EQ(r1.evolve.best_fitness.n_g, r8.evolve.best_fitness.n_g);
    EXPECT_EQ(r1.evolve.best_fitness.n_b, r8.evolve.best_fitness.n_b);
    EXPECT_EQ(r1.evolve.evaluations, r8.evolve.evaluations);
    EXPECT_EQ(r1.evolve.improvements, r8.evolve.improvements);
  }
}

} // namespace
} // namespace rcgp::rqfp
