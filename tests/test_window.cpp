#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "benchmarks/benchmarks.hpp"
#include "cec/sim_cec.hpp"
#include "core/flow.hpp"
#include "core/window.hpp"
#include "io/rqfp_writer.hpp"
#include "rqfp/simulate.hpp"
#include "util/stopwatch.hpp"

namespace rcgp::core {
namespace {

rqfp::Netlist init_netlist(const std::string& name) {
  const auto b = benchmarks::get(name);
  FlowOptions opt;
  opt.run_cgp = false;
  return synthesize(b.spec, opt).initial;
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

TEST(ExactPolish, SweepReportsWhyItStopped) {
  const auto b = benchmarks::get("4gt10");
  const auto net = init_netlist("4gt10");
  ExactPolishParams params;
  WindowStats stats;
  EXPECT_TRUE(cec::sim_check(exact_polish(net, params, &stats), b.spec)
                  .all_match);
  EXPECT_EQ(stats.stop_reason, robust::StopReason::kCompleted);

  // A tripped token or an expired deadline stops the sweep before its
  // next window and keeps what was spliced until then.
  robust::StopToken stop;
  stop.request_stop();
  params.budget.stop = &stop;
  EXPECT_TRUE(cec::sim_check(exact_polish(net, params, &stats), b.spec)
                  .all_match);
  EXPECT_EQ(stats.stop_reason, robust::StopReason::kStopRequested);
  EXPECT_EQ(stats.windows_tried, 0u);

  params.budget.stop = nullptr;
  params.budget.deadline_seconds = 1e-9;
  EXPECT_TRUE(cec::sim_check(exact_polish(net, params, &stats), b.spec)
                  .all_match);
  EXPECT_EQ(stats.stop_reason, robust::StopReason::kTimeLimit);
  EXPECT_EQ(stats.windows_tried, 0u);
}

/// The netlist that `rcgp fuzz --targets=optimizer-differential --seed=26
/// --case=0` hands to exact-polish: one of its windows keeps the exact
/// search busy for the whole per-window budget (5 s).
rqfp::Netlist slow_window_netlist() {
  return io::parse_rqfp_string(R"(.rqfp 1
.pis 3 x0 x1 x2
.pos 2
gate 1 0 0 001-001-001
gate 0 2 0 001-001-001
gate 0 3 0 001-001-001
gate 0 4 7 000-000-110
gate 0 15 0 001-001-001
gate 0 10 16 001-111-101
gate 12 5 8 001-111-101
gate 0 21 24 101-111-101
gate 0 9 11 011-100-110
gate 0 17 30 100-010-000
po 27 y0
po 33 y1
.end
)");
}

TEST(ExactPolish, WindowsKeepTheSweepDeadline) {
  // A 0.5 s sweep deadline must bound the slow window too.
  const rqfp::Netlist net = slow_window_netlist();
  const auto spec = rqfp::simulate(net);
  ExactPolishParams params;
  params.budget.deadline_seconds = 0.5;
  WindowStats stats;
  util::Stopwatch watch;
  const rqfp::Netlist polished = exact_polish(net, params, &stats);
  EXPECT_LT(watch.seconds(), 2.0);
  EXPECT_GT(stats.windows_tried, 0u);
  EXPECT_TRUE(cec::sim_check(polished, spec).all_match);
  EXPECT_LE(polished.num_gates(), net.num_gates());
}

TEST(ExactPolish, AStopTokenReachesTheSatSearch) {
  // A token tripped 0.2 s into a default sweep (no deadline, 5 s per
  // window) ends the window in the SAT solver, not at its budget's end.
  const rqfp::Netlist net = slow_window_netlist();
  const auto spec = rqfp::simulate(net);
  robust::StopToken token;
  ExactPolishParams params;
  params.budget.stop = &token;
  std::thread tripper([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    token.request_stop();
  });
  WindowStats stats;
  util::Stopwatch watch;
  const rqfp::Netlist polished = exact_polish(net, params, &stats);
  const double seconds = watch.seconds();
  tripper.join();
  EXPECT_LT(seconds, 1.0);
  EXPECT_EQ(stats.stop_reason, robust::StopReason::kStopRequested);
  EXPECT_GT(stats.windows_tried, 0u);
  EXPECT_TRUE(cec::sim_check(polished, spec).all_match);
}

} // namespace
} // namespace rcgp::core
