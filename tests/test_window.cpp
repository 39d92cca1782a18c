#include <gtest/gtest.h>

#include "benchmarks/benchmarks.hpp"
#include "cec/sim_cec.hpp"
#include "core/flow.hpp"
#include "core/optimizer.hpp"
#include "core/window.hpp"
#include "rqfp/simulate.hpp"

namespace rcgp::core {
namespace {

rqfp::Netlist init_netlist(const std::string& name) {
  const auto b = benchmarks::get(name);
  FlowOptions opt;
  opt.run_cgp = false;
  return synthesize(b.spec, opt).initial;
}

/// Windowed sweep through the Optimizer facade (Algorithm::kWindow); the
/// per-window (1+λ) parameters ride along in `params.evolve`.
rqfp::Netlist run_window(const rqfp::Netlist& net,
                         std::span<const tt::TruthTable> spec,
                         const WindowParams& params, WindowStats* stats) {
  OptimizerOptions oo;
  oo.algorithm = Algorithm::kWindow;
  oo.window = params;
  oo.evolve = params.evolve;
  const auto r = Optimizer(oo).run(net, spec);
  if (stats != nullptr) {
    *stats = r.window;
  }
  return r.best;
}

TEST(Window, ExtractCoversGatesAndBoundaries) {
  const auto net = init_netlist("graycode4");
  Window w;
  ASSERT_TRUE(extract_window(net, 0, 4, 10, w));
  EXPECT_EQ(w.num_gates, 4u);
  EXPECT_EQ(w.sub.num_gates(), 4u);
  EXPECT_EQ(w.sub.num_pos(), w.boundary_outputs.size());
  EXPECT_EQ(w.sub.num_pis(), w.boundary_inputs.size());
  // Boundary inputs are outer ports before the window.
  for (const auto p : w.boundary_inputs) {
    EXPECT_LT(p, net.port_of(0, 0));
  }
}

TEST(Window, ExtractRejectsTooManyInputs) {
  const auto net = init_netlist("hwb8");
  Window w;
  // A zero-input budget can never be satisfied.
  EXPECT_FALSE(extract_window(net, 0, net.num_gates(), 0, w));
}

TEST(Window, SpliceIdentityIsNoOp) {
  const auto net = init_netlist("ham3");
  Window w;
  ASSERT_TRUE(extract_window(net, 1, 3, 10, w));
  const auto spliced = splice_window(net, w, w.sub);
  EXPECT_EQ(spliced.num_gates(), net.num_gates());
  EXPECT_EQ(rqfp::simulate(spliced), rqfp::simulate(net));
  EXPECT_EQ(spliced.validate(), "");
}

TEST(Window, SubNetlistComputesWindowFunction) {
  const auto net = init_netlist("decoder_2_4");
  Window w;
  ASSERT_TRUE(extract_window(net, 0, net.num_gates(), 10, w));
  // A window spanning everything has the PIs as boundary inputs and the
  // PO drivers among boundary outputs.
  EXPECT_EQ(w.sub.num_pis(), net.num_pis());
  const auto sub_tts = rqfp::simulate(w.sub);
  EXPECT_EQ(sub_tts.size(), w.boundary_outputs.size());
}

TEST(Window, SpliceInterfaceMismatchThrows) {
  const auto net = init_netlist("ham3");
  Window w;
  ASSERT_TRUE(extract_window(net, 0, 2, 10, w));
  rqfp::Netlist wrong(w.sub.num_pis() + 1);
  EXPECT_THROW(splice_window(net, w, wrong), std::invalid_argument);
}

class WindowOptimize : public ::testing::TestWithParam<const char*> {};

TEST_P(WindowOptimize, PreservesFunctionAndNeverGrows) {
  const auto b = benchmarks::get(GetParam());
  const auto net = init_netlist(GetParam());
  WindowParams params;
  params.window_gates = 8;
  params.evolve.generations = 1500;
  params.evolve.seed = 5;
  WindowStats stats;
  const auto optimized = run_window(net, b.spec, params, &stats);
  EXPECT_EQ(optimized.validate(), "");
  EXPECT_TRUE(cec::sim_check(optimized, b.spec).all_match) << GetParam();
  EXPECT_LE(stats.gates_after, stats.gates_before);
  EXPECT_GT(stats.windows_tried, 0u);
}

INSTANTIATE_TEST_SUITE_P(Circuits, WindowOptimize,
                         ::testing::Values("decoder_2_4", "graycode4",
                                           "intdiv4", "mod5adder"));

TEST(Window, ScalesToCircuitsTooWideForGlobalSimulation) {
  // Windowing never simulates the whole circuit, so it also works when
  // the global PI count would make exhaustive global tables expensive.
  const auto b = benchmarks::get("hwb8");
  const auto net = init_netlist("hwb8");
  WindowParams params;
  params.window_gates = 10;
  params.max_window_inputs = 8;
  params.evolve.generations = 300;
  params.evolve.seed = 1;
  WindowStats stats;
  const auto optimized = run_window(net, b.spec, params, &stats);
  EXPECT_EQ(optimized.validate(), "");
  EXPECT_TRUE(cec::sim_check(optimized, b.spec).all_match);
}

TEST(Window, SweepReportsWhyItStopped) {
  const auto b = benchmarks::get("hwb8");
  const auto net = init_netlist("hwb8");
  OptimizerOptions oo;
  oo.algorithm = Algorithm::kWindow;
  oo.window.window_gates = 10;
  oo.window.max_window_inputs = 8;
  oo.evolve.generations = 50;
  oo.evolve.seed = 3;
  EXPECT_EQ(Optimizer(oo).run(net, b.spec).stop_reason,
            robust::StopReason::kCompleted);

  // A deadline that expires mid-sweep keeps the windows spliced so far and
  // says so.
  oo.evolve.generations = 200000;
  oo.limits.deadline_seconds = 0.2;
  const auto cut = Optimizer(oo).run(net, b.spec);
  EXPECT_EQ(cut.stop_reason, robust::StopReason::kTimeLimit);
  EXPECT_TRUE(cec::sim_check(cut.best, b.spec).all_match);
}

class ExactPolish : public ::testing::TestWithParam<const char*> {};

TEST_P(ExactPolish, ReachesOrBeatsCgpResult) {
  const auto b = benchmarks::get(GetParam());
  FlowOptions opt;
  opt.evolve.generations = 10000;
  opt.evolve.seed = 2;
  const auto r = synthesize(b.spec, opt);
  WindowStats stats;
  const auto polished = exact_polish(r.optimized, {}, &stats);
  EXPECT_EQ(polished.validate(), "") << GetParam();
  EXPECT_TRUE(cec::sim_check(polished, b.spec).all_match) << GetParam();
  EXPECT_LE(polished.num_gates(), r.optimized.num_gates()) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Circuits, ExactPolish,
                         ::testing::Values("decoder_2_4", "full_adder",
                                           "4gt10"));

TEST(ExactPolish, DecoderReachesPaperOptimum) {
  // The hybrid CGP+exact flow must reach the paper's exact optimum of 3
  // gates for decoder_2_4 even at a small CGP budget.
  const auto b = benchmarks::get("decoder_2_4");
  FlowOptions opt;
  opt.evolve.generations = 30000;
  opt.evolve.seed = 5;
  opt.run_exact_polish = true;
  const auto r = synthesize(b.spec, opt);
  EXPECT_LE(r.optimized_cost.n_r, 4u);
  EXPECT_TRUE(cec::sim_check(r.optimized, b.spec).all_match);
}

TEST(Window, MultiplePassesMonotone) {
  const auto b = benchmarks::get("intdiv4");
  const auto net = init_netlist("intdiv4");
  WindowParams one;
  one.window_gates = 8;
  one.evolve.generations = 800;
  one.passes = 1;
  WindowStats s1;
  const auto r1 = run_window(net, b.spec, one, &s1);
  WindowParams two = one;
  two.passes = 2;
  WindowStats s2;
  const auto r2 = run_window(net, b.spec, two, &s2);
  EXPECT_LE(r2.num_gates(), r1.num_gates());
  EXPECT_TRUE(cec::sim_check(r2, b.spec).all_match);
}

} // namespace
} // namespace rcgp::core
