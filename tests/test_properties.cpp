// Cross-module property sweeps: randomized end-to-end invariants that tie
// the substrates together (truth tables <-> BDD <-> SAT <-> netlists).

#include <gtest/gtest.h>

#include <sstream>

#include "aig/aig_simulate.hpp"
#include "bdd/bdd.hpp"
#include "benchmarks/benchmarks.hpp"
#include "cec/bdd_cec.hpp"
#include "cec/sat_cec.hpp"
#include "cec/sim_cec.hpp"
#include "core/flow.hpp"
#include "core/mutation.hpp"
#include "core/shrink.hpp"
#include "fuzz/generator.hpp"
#include "io/aiger.hpp"
#include "io/blif.hpp"
#include "io/rqfp_writer.hpp"
#include "io/verilog.hpp"
#include "rqfp/buffer.hpp"
#include "rqfp/simulate.hpp"
#include "sat/cnf.hpp"
#include "tt/isop.hpp"
#include "tt/npn.hpp"
#include "util/rng.hpp"

namespace rcgp {
namespace {

tt::TruthTable random_table(unsigned vars, util::Rng& rng) {
  tt::TruthTable t(vars);
  for (std::size_t w = 0; w < t.num_words(); ++w) {
    t.set_word(w, rng.next());
  }
  return t;
}

class CrossEngine : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossEngine, TruthTableBddSatAgreeOnRandomFunctions) {
  util::Rng rng(GetParam());
  const unsigned nv = 3 + static_cast<unsigned>(rng.below(3)); // 3..5
  const auto f = random_table(nv, rng);

  // BDD round trip.
  bdd::Manager manager(nv);
  const auto node = manager.from_truth_table(f);
  EXPECT_EQ(manager.to_truth_table(node), f);
  EXPECT_EQ(manager.count_sat(node), f.count_ones());

  // SAT: the ISOP encoding of f must be satisfiable exactly on the onset.
  sat::Solver solver;
  sat::CnfBuilder builder(solver);
  std::vector<sat::Lit> pis;
  for (unsigned i = 0; i < nv; ++i) {
    pis.push_back(builder.new_lit());
  }
  const auto lit = cec::encode_table(builder, f, pis);
  for (std::uint64_t x = 0; x < f.num_bits(); ++x) {
    std::vector<sat::Lit> assume;
    for (unsigned i = 0; i < nv; ++i) {
      assume.push_back((x >> i) & 1 ? pis[i] : ~pis[i]);
    }
    ASSERT_EQ(solver.solve(assume), sat::SolveResult::kSat);
    EXPECT_EQ(solver.model_value(lit), f.bit(x)) << "x=" << x;
  }
}

TEST_P(CrossEngine, FactoredAigMatchesIsopCover) {
  util::Rng rng(GetParam() + 77);
  const unsigned nv = 2 + static_cast<unsigned>(rng.below(4)); // 2..5
  const auto f = random_table(nv, rng);
  const auto cubes = tt::isop(f);
  EXPECT_EQ(tt::cover_to_table(cubes, nv), f);
  const auto net = core::aig_from_tables(std::vector<tt::TruthTable>{f});
  EXPECT_EQ(aig::simulate(net)[0], f);
}

TEST_P(CrossEngine, NpnClassInvariantUnderRandomWalk) {
  util::Rng rng(GetParam() + 271);
  tt::TruthTable f(4);
  f.set_word(0, rng.next());
  const auto canon = tt::npn_canonize(f).canon;
  tt::TruthTable g = f;
  // Random sequence of flips/swaps/complement keeps the NPN class.
  for (int step = 0; step < 12; ++step) {
    switch (rng.below(3)) {
      case 0: g = g.flip_var(static_cast<unsigned>(rng.below(4))); break;
      case 1:
        g = g.swap_vars(static_cast<unsigned>(rng.below(4)),
                        static_cast<unsigned>(rng.below(4)));
        break;
      default: g = ~g; break;
    }
  }
  EXPECT_EQ(tt::npn_canonize(g).canon, canon);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossEngine,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

class SynthesisSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SynthesisSoundness, RandomSpecsSurviveTheWholeFlow) {
  // Random multi-output specifications through the complete pipeline with
  // all three equivalence engines agreeing at the end.
  util::Rng rng(GetParam() * 7919);
  const unsigned nv = 3 + static_cast<unsigned>(rng.below(2)); // 3..4
  const unsigned outs = 1 + static_cast<unsigned>(rng.below(3));
  std::vector<tt::TruthTable> spec;
  for (unsigned o = 0; o < outs; ++o) {
    spec.push_back(random_table(nv, rng));
  }
  core::FlowOptions opt;
  opt.evolve.generations = 1500;
  opt.evolve.seed = GetParam();
  const auto r = core::synthesize(spec, opt);
  ASSERT_EQ(r.optimized.validate(), "");
  EXPECT_TRUE(cec::sim_check(r.optimized, spec).all_match);
  EXPECT_EQ(cec::sat_check(r.optimized, spec).verdict,
            cec::CecVerdict::kEquivalent);
  EXPECT_TRUE(cec::bdd_check(r.optimized, spec).equivalent);
}

TEST_P(SynthesisSoundness, MutationWalkKeepsLegalityForever) {
  // Long mutation random walk: the single fan-out invariant and the
  // feed-forward property must hold after every step, and shrink must
  // never change PO functions.
  util::Rng rng(GetParam() * 104729);
  const auto b = benchmarks::get("graycode4");
  core::FlowOptions opt;
  opt.run_cgp = false;
  auto net = core::synthesize(b.spec, opt).initial;
  for (int step = 0; step < 120; ++step) {
    core::mutate(net, rng, {});
    ASSERT_EQ(net.validate(), "") << "step " << step;
    const auto before = rqfp::simulate(net);
    const auto small = core::shrink(net);
    ASSERT_EQ(rqfp::simulate(small), before) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SynthesisSoundness,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

class FormatBridges : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FormatBridges, VerilogBlifAigerAllDescribeTheSameCircuit) {
  util::Rng rng(GetParam() + 31);
  // Random AIG -> each format -> parse back: all four networks equal.
  aig::Aig net;
  std::vector<aig::Signal> pool{net.const0()};
  for (int i = 0; i < 5; ++i) {
    pool.push_back(net.create_pi());
  }
  for (int i = 0; i < 25; ++i) {
    const auto a = pool[rng.below(pool.size())] ^ rng.chance(0.5);
    const auto b = pool[rng.below(pool.size())] ^ rng.chance(0.5);
    pool.push_back(net.create_and(a, b));
  }
  for (int i = 0; i < 3; ++i) {
    net.add_po(pool[rng.below(pool.size())] ^ rng.chance(0.5));
  }
  const auto reference = aig::simulate(net);
  EXPECT_EQ(aig::simulate(io::parse_verilog_string(
                io::write_verilog_string(net))),
            reference);
  EXPECT_EQ(aig::simulate(io::parse_blif_string(io::write_blif_string(net))),
            reference);
  EXPECT_EQ(
      aig::simulate(io::parse_aiger_string(io::write_aiger_string(net))),
      reference);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormatBridges,
                         ::testing::Values(11, 22, 33, 44));

// Bounded versions of the `rcgp fuzz` targets, driven by the same
// generators (src/fuzz/generator.hpp), so every ctest run covers a slice
// of the fuzzer's property space. `rcgp fuzz` runs the open-ended version.
class FuzzProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzProperties, IoRoundTripIdentity) {
  util::Rng rng(GetParam() * 2654435761u);
  // RQFP text format: structural identity.
  const auto net = fuzz::random_netlist(rng);
  EXPECT_TRUE(io::parse_rqfp_string(io::write_rqfp_string(net)) == net);
  // AIG formats: functional identity against the simulation reference.
  const auto g = fuzz::random_aig(rng);
  const auto ref = aig::simulate(g);
  EXPECT_EQ(aig::simulate(io::parse_verilog_string(
                io::write_verilog_string(g))),
            ref);
  EXPECT_EQ(aig::simulate(io::parse_blif_string(io::write_blif_string(g))),
            ref);
  EXPECT_EQ(aig::simulate(io::parse_aiger_string(io::write_aiger_string(g))),
            ref);
  std::istringstream bin(io::write_aiger_binary_string(g));
  EXPECT_EQ(aig::simulate(io::parse_aiger_binary(bin)), ref);
}

TEST_P(FuzzProperties, CecEnginesAgreeOnRandomNetlists) {
  util::Rng rng(GetParam() * 40503u + 11);
  fuzz::NetlistShape shape;
  shape.max_pis = 4;
  shape.max_gates = 14;
  const auto net = fuzz::random_netlist(rng, shape);
  const auto spec = rqfp::simulate(net);
  EXPECT_TRUE(cec::sim_check(net, spec).all_match);
  EXPECT_TRUE(cec::bdd_check(net, spec).equivalent);
  EXPECT_EQ(cec::sat_check(net, spec).verdict,
            cec::CecVerdict::kEquivalent);
  // A mutated variant: BDD and SAT must agree with exhaustive simulation
  // whichever way the mutation went.
  auto variant = net;
  core::mutate(variant, rng, {});
  const bool equal = rqfp::simulate(variant) == spec;
  EXPECT_EQ(cec::bdd_check(variant, net).equivalent, equal);
  EXPECT_EQ(cec::sat_check(variant, net).verdict,
            equal ? cec::CecVerdict::kEquivalent
                  : cec::CecVerdict::kNotEquivalent);
}

TEST_P(FuzzProperties, DeltaEvaluationMatchesFullRecomputation) {
  util::Rng rng(GetParam() * 6364136223846793005ull + 1442695040888963407ull);
  fuzz::NetlistShape shape;
  shape.max_pis = 4;
  shape.max_gates = 12;
  auto base = fuzz::random_netlist(rng, shape);
  const auto spec = rqfp::simulate(base);
  core::FitnessOptions fopt;
  fopt.objective = rng.chance(0.5) ? core::Objective::kJjCount
                                   : core::Objective::kPaperLexicographic;
  rqfp::SimCache sim;
  rqfp::build_sim_cache(base, sim);
  rqfp::CostCache cost;
  rqfp::build_cost_cache(base, rqfp::BufferSchedule::kAsap, cost);
  rqfp::DeltaBatch batch;
  for (int step = 0; step < 12; ++step) {
    auto child = base;
    core::mutate(child, rng, {});
    const auto full = core::evaluate(child, spec, fopt);
    core::Fitness delta;
    core::evaluate_delta_batch(base, sim, cost, {&child}, spec, fopt, batch,
                               {&delta, 1});
    ASSERT_TRUE(full.success_rate == delta.success_rate &&
                full.n_r == delta.n_r && full.n_g == delta.n_g &&
                full.n_b == delta.n_b)
        << "step " << step << ": delta " << delta.to_string() << " vs full "
        << full.to_string();
    if (full.functionally_correct()) {
      // The pre-cache formulation: plan the dead-gate-free copy.
      const auto live = child.remove_dead_gates();
      EXPECT_EQ(full.n_r, live.num_gates()) << "step " << step;
      EXPECT_EQ(full.n_g, live.count_garbage_outputs()) << "step " << step;
      EXPECT_EQ(full.n_b, rqfp::plan_buffers(live).total) << "step " << step;
    }
    if (full.better_or_equal(core::evaluate(base, spec, fopt))) {
      rqfp::update_sim_cache(base, child, sim);
      rqfp::update_cost_cache(base, child, cost);
      base = child;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzProperties,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Determinism, WholeFlowIsBitReproducible) {
  const auto b = benchmarks::get("c17");
  core::FlowOptions opt;
  opt.evolve.generations = 4000;
  opt.evolve.seed = 12345;
  const auto r1 = core::synthesize(b.spec, opt);
  const auto r2 = core::synthesize(b.spec, opt);
  EXPECT_TRUE(r1.optimized == r2.optimized);
  EXPECT_TRUE(r1.initial == r2.initial);
}

} // namespace
} // namespace rcgp
