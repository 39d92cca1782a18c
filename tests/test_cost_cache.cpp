#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "core/flow.hpp"
#include "core/mutation.hpp"
#include "core/optimizer.hpp"
#include "fuzz/generator.hpp"
#include "rqfp/cost.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

// Property suite for the incremental cost path (docs/COST_EVAL.md):
// cost_of_delta against a CostCache must equal cost_of, which in turn
// must equal the historical remove_dead_gates()-copy formulation, for
// every field, across randomized mutation chains — and wiring the cache
// into the eval pool must leave evolve trajectories bit-identical at any
// thread count.

namespace rcgp::rqfp {
namespace {

/// The pre-cache formulation: materialize the dead-gate-free copy and
/// plan buffers on it from scratch. cost_of must keep matching this.
Cost reference_cost(const Netlist& net) {
  const Netlist live = net.remove_dead_gates();
  Cost c;
  c.n_r = live.num_gates();
  c.n_g = live.count_garbage_outputs();
  const BufferPlan plan = plan_buffers(live);
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
    expect_cost_eq(cost_of(net), reference_cost(net),
                   "seed=" + std::to_string(seed));
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
    CostCache cache;
    Netlist current = initial;
    Cost base = build_cost_cache(current, BufferSchedule::kAsap, cache);
    expect_cost_eq(base, reference_cost(current), std::string(name) + " base");
    util::Rng rng(42);
    core::MutationParams mp;
    for (unsigned step = 0; step < 120; ++step) {
      Netlist child = current;
      core::mutate(child, rng, mp);
      const std::string what =
          std::string(name) + " step=" + std::to_string(step);
      const Cost expect = reference_cost(child);
      const Cost got = cost_of_delta(current, child, cache);
      expect_cost_eq(got, expect, what);
      expect_cost_eq(cost_of(child), expect, what + " (cost_of)");
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

TEST(CostCache, ConfigOnlyEditKeepsTheBaseCost) {
  const Netlist initial = init_netlist("full_adder");
  CostCache cache;
  build_cost_cache(initial, BufferSchedule::kAsap, cache);
  // The cost is topology-only, so an inverter-config edit short-cuts to
  // the cached base cost.
  Netlist flipped = initial;
  flipped.gate(0).config = InvConfig(
      static_cast<std::uint16_t>(flipped.gate(0).config.bits() ^ 0x1));
  const Cost got = cost_of_delta(initial, flipped, cache);
  expect_cost_eq(got, cache.base_cost, "config-only");
  expect_cost_eq(got, cost_of(flipped), "config-only (cost_of)");
}

// Committing a child that only rewires dead gates keeps the cached cost,
// but the cached levels must follow the rewire: a later child that
// revives the cone reuses them as its level prefix.
TEST(CostCache, CommittedDeadConeIsRepricedWhenRevived) {
  const InvConfig rev = InvConfig::reversible();
  Netlist base(3);
  base.add_gate({1, 2, kConstPort}, rev); // g0: ports 4-6
  base.add_gate({4, 5, 6}, rev);          // g1: ports 7-9
  base.add_gate({3, kConstPort, kConstPort}, rev); // g2: ports 10-12, dead
  base.add_po(7);
  CostCache cache;
  build_cost_cache(base, BufferSchedule::kAsap, cache);

  Netlist child = base;
  child.gate(2).in = {8, kConstPort, kConstPort}; // dead, one level deeper
  expect_cost_eq(update_cost_cache(base, child, cache), cost_of(child),
                 "dead-only commit");

  Netlist grandchild = child;
  grandchild.set_po(0, 10); // revives g2
  expect_cost_eq(cost_of_delta(child, grandchild, cache), cost_of(grandchild),
                 "revived cone");
}

TEST(CostCache, ThrowsOnUnbuiltCacheOrShapeMismatch) {
  const Netlist a = init_netlist("full_adder");
  const Netlist b = init_netlist("decoder_2_4");
  CostCache cache;
  // Each message names the call that threw, not the engine both share.
  const auto expect_throw_from = [](const std::string& who, auto&& call) {
    try {
      call();
      ADD_FAILURE() << who << " did not throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(who + ": ", 0), 0u) << e.what();
    }
  };
  expect_throw_from("rqfp::cost_of_delta", [&] { cost_of_delta(a, a, cache); });
  expect_throw_from("rqfp::update_cost_cache",
                    [&] { update_cost_cache(a, a, cache); });
  build_cost_cache(a, BufferSchedule::kAsap, cache);
  expect_throw_from("rqfp::cost_of_delta", [&] { cost_of_delta(a, b, cache); });
  expect_throw_from("rqfp::cost_of_delta", [&] { cost_of_delta(b, b, cache); });
  expect_throw_from("rqfp::update_cost_cache",
                    [&] { update_cost_cache(a, b, cache); });
  expect_throw_from("rqfp::update_cost_cache",
                    [&] { update_cost_cache(b, b, cache); });
}

TEST(CostCache, ScratchBytesStabilize) {
  const Netlist initial = init_netlist("decoder_2_4");
  CostCache cache;
  build_cost_cache(initial, BufferSchedule::kAsap, cache);
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

/// Every number ASAP pricing produces for `net`: the raw plan (dead gates
/// included, one line of gate edges, one of PO edges) and the live cost.
std::string describe_pricing(const Netlist& net) {
  const BufferPlan plan = plan_buffers(net);
  std::string out;
  for (const auto& edges : plan.gate_edges) {
    for (const std::uint32_t b : edges) {
      out += std::to_string(b) + ',';
    }
  }
  out += '\n';
  for (const std::uint32_t b : plan.po_edges) {
    out += std::to_string(b) + ',';
  }
  out += "\ntotal=" + std::to_string(plan.total) +
         " depth=" + std::to_string(plan.depth) + '\n' +
         cost_of(net).to_string() + '\n';
  return out;
}

// CRC32s over ASAP pricing as the parent of the one-schedule planner
// produced it: plans and costs of every row's flow-initial netlist, of
// raw random netlists with dead gates, and the delta costs and commits
// of a seeded mutation walk on every row. Any change to the per-edge
// formula, the dead-gate handling or the masked delta path fails it.
TEST(CostCache, AsapPricingDigestIsPinned) {
  std::uint32_t rows_crc = 0;
  std::uint32_t walk_crc = 0;
  std::uint64_t row_index = 0;
  for (const std::string& row : benchmarks::all_names()) {
    const Netlist initial = init_netlist(row);
    rows_crc = util::crc32(row + '\n' + describe_pricing(initial), rows_crc);

    CostCache cache;
    std::string walk =
        row + '\n' +
        build_cost_cache(initial, BufferSchedule::kAsap, cache).to_string();
    util::Rng rng = util::Rng::stream(2024, row_index++, 0);
    Netlist current = initial;
    for (unsigned step = 0; step < 30; ++step) {
      Netlist child = current;
      core::mutate(child, rng, {});
      walk += '\n' + cost_of_delta(current, child, cache).to_string();
      if (step % 3 == 0) {
        walk += " commit " +
                update_cost_cache(current, child, cache).to_string();
        current = std::move(child);
      }
    }
    walk_crc = util::crc32(walk, walk_crc);
  }
  EXPECT_EQ(benchmarks::all_names().size(), 20u);

  std::uint32_t random_crc = 0;
  unsigned with_dead_gates = 0;
  for (std::uint64_t c = 0; with_dead_gates < 200; ++c) {
    util::Rng rng = util::Rng::stream(2024, c, 1);
    const Netlist net = fuzz::random_netlist(rng);
    if (net.remove_dead_gates().num_gates() == net.num_gates()) {
      continue;
    }
    ++with_dead_gates;
    random_crc = util::crc32(describe_pricing(net), random_crc);
  }

  EXPECT_EQ(rows_crc, 0x648dd96du);
  EXPECT_EQ(random_crc, 0x81fae5e0u);
  EXPECT_EQ(walk_crc, 0xe64f7b57u);
}

// Wiring the cost cache through the eval pool must not move a single bit
// of the search trajectory, at any thread count.
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
