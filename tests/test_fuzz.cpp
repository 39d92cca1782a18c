// Fuzzing subsystem (src/fuzz, docs/FUZZING.md): generator determinism
// and validity, shrinker convergence, findings-log format, and bounded
// end-to-end harness runs. The open-ended version of these checks is
// `rcgp fuzz`; test_properties runs the generator-backed property sweeps.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "aig/aig_simulate.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/harness.hpp"
#include "fuzz/shrink.hpp"
#include "fuzz/targets.hpp"
#include "obs/metrics.hpp"
#include "rqfp/simulate.hpp"
#include "util/rng.hpp"

namespace rcgp {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_dir(const std::string& leaf) {
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / ("rcgp_fuzz_" + leaf);
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(FuzzGenerator, NetlistsAreValidAndDeterministic) {
  for (std::uint64_t c = 0; c < 50; ++c) {
    util::Rng rng = util::Rng::stream(99, c, 0);
    const auto net = fuzz::random_netlist(rng);
    EXPECT_EQ(net.validate(), "") << "case " << c;
    EXPECT_GE(net.num_pos(), 1u);
    util::Rng again = util::Rng::stream(99, c, 0);
    EXPECT_TRUE(fuzz::random_netlist(again) == net) << "case " << c;
  }
}

TEST(FuzzGenerator, AigsSimulateAndAreDeterministic) {
  for (std::uint64_t c = 0; c < 50; ++c) {
    util::Rng rng = util::Rng::stream(7, c, 1);
    const auto g = fuzz::random_aig(rng);
    ASSERT_GE(g.num_pos(), 1u);
    const auto tables = aig::simulate(g);
    EXPECT_EQ(tables.size(), g.num_pos());
    util::Rng again = util::Rng::stream(7, c, 1);
    EXPECT_EQ(aig::simulate(fuzz::random_aig(again)), tables);
  }
}

TEST(FuzzGenerator, CorruptBytesIsDeterministicAndChangesInput) {
  const std::string blob = "the quick brown fox jumps over the lazy dog\n";
  util::Rng a = util::Rng::stream(5, 0, 2);
  util::Rng b = util::Rng::stream(5, 0, 2);
  EXPECT_EQ(fuzz::corrupt_bytes(blob, a), fuzz::corrupt_bytes(blob, b));
  // Over many draws, corruption must actually mutate the blob.
  int changed = 0;
  for (std::uint64_t c = 0; c < 20; ++c) {
    util::Rng rng = util::Rng::stream(5, c, 3);
    changed += fuzz::corrupt_bytes(blob, rng) != blob;
  }
  EXPECT_GE(changed, 15);
}

TEST(FuzzShrink, NetlistShrinkerConvergesToMinimal) {
  util::Rng rng(4242);
  fuzz::NetlistShape shape;
  shape.min_gates = 12;
  shape.max_gates = 20;
  const auto big = fuzz::random_netlist(rng, shape);
  // "Failure": the netlist contains at least one gate. The minimal
  // reproducer for that is a single-gate netlist.
  const auto fails = [](const rqfp::Netlist& n) { return n.num_gates() >= 1; };
  fuzz::ShrinkStats stats;
  const auto small = fuzz::shrink_netlist(big, fails, &stats);
  EXPECT_TRUE(fails(small));
  EXPECT_EQ(small.validate(), "");
  EXPECT_LE(small.num_gates(), 2u);
  EXPECT_GT(stats.attempts, 0u);
  EXPECT_GT(stats.accepted, 0u);
}

TEST(FuzzShrink, ByteShrinkerConvergesToTheFailingByte) {
  std::string blob(300, 'a');
  blob[137] = 'X';
  const auto fails = [](const std::string& s) {
    return s.find('X') != std::string::npos;
  };
  fuzz::ShrinkStats stats;
  const auto small = fuzz::shrink_bytes(blob, fails, &stats);
  EXPECT_TRUE(fails(small));
  EXPECT_LE(small.size(), 2u);
  EXPECT_GT(stats.accepted, 0u);
}

TEST(FuzzFindings, JsonRecordsAreStableAndTimestampFree) {
  fuzz::Finding f;
  f.target = "cec-cross";
  f.seed = 9;
  f.case_index = 3;
  f.kind = "engine-disagreement";
  f.detail = "bdd says \"equal\"";
  f.reproducer_path = "cec-cross-s9-c3.rqfp";
  f.repro_command = "rcgp fuzz --targets=cec-cross --seed=9 --case=3";
  const auto json = fuzz::to_json(f);
  EXPECT_EQ(json,
            "{\"target\":\"cec-cross\",\"seed\":9,\"case\":3,"
            "\"kind\":\"engine-disagreement\","
            "\"detail\":\"bdd says \\\"equal\\\"\","
            "\"reproducer\":\"cec-cross-s9-c3.rqfp\","
            "\"repro\":\"rcgp fuzz --targets=cec-cross --seed=9 --case=3\"}");
  EXPECT_EQ(json.find("time"), std::string::npos);
}

TEST(FuzzHarness, DefaultTargetsRunCleanOnTheCurrentTree) {
  fuzz::FuzzOptions opt;
  opt.seed = 20260807;
  opt.cases = 3;
  opt.out_dir = temp_dir("clean");
  const auto summary = fuzz::run_fuzz(opt);
  EXPECT_EQ(summary.findings, 0u);
  EXPECT_EQ(summary.cases_run, 3 * fuzz::default_targets().size());
  EXPECT_EQ(summary.stop_reason, robust::StopReason::kCompleted);
  EXPECT_EQ(slurp(summary.log_path), "");
}

// Every fourth optimizer-differential case draws 7-8 PIs, so its paranoid
// evolve and fleet runs have rows of 2-4 words and reach the production
// early reject's word-0 pass; the other cases reject on rows of one word.
TEST(FuzzHarness, OptimizerDifferentialReachesEarlyReject) {
  fuzz::FuzzOptions opt;
  opt.targets = {fuzz::Target::kOptimizerDiff};
  opt.seed = 2;
  opt.cases = 8;
  opt.out_dir = temp_dir("early_reject");
  const obs::Counter& rejects =
      obs::registry().counter("evolve.pool.early_rejects");
  const std::uint64_t before = rejects.value();
  const auto summary = fuzz::run_fuzz(opt);
  EXPECT_EQ(summary.findings, 0u);
  EXPECT_EQ(summary.cases_run, 8u);
  EXPECT_GT(rejects.value(), before);
}

TEST(FuzzHarness, SelftestFindingsLogIsBitIdenticalAcrossRuns) {
  fuzz::FuzzOptions opt;
  opt.targets = {fuzz::Target::kSelftest};
  opt.seed = 31337;
  opt.cases = 12;
  opt.out_dir = temp_dir("det_a");
  const auto a = fuzz::run_fuzz(opt);
  opt.out_dir = temp_dir("det_b");
  const auto b = fuzz::run_fuzz(opt);
  EXPECT_GT(a.findings, 0u);
  EXPECT_EQ(a.findings, b.findings);
  const auto log_a = slurp(a.log_path);
  EXPECT_EQ(log_a, slurp(b.log_path));
  EXPECT_NE(log_a.find("\"repro\":\"rcgp fuzz --targets=selftest "
                       "--seed=31337 --case="),
            std::string::npos);
}

TEST(FuzzHarness, ReproModeRerunsExactlyOneCase) {
  fuzz::FuzzOptions opt;
  opt.targets = {fuzz::Target::kSelftest};
  opt.seed = 8;
  opt.only_case = 0; // selftest emits a finding on every third case
  opt.out_dir = temp_dir("repro");
  const auto summary = fuzz::run_fuzz(opt);
  EXPECT_EQ(summary.cases_run, 1u);
  EXPECT_EQ(summary.findings, 1u);
}

TEST(FuzzHarness, StopTokenEndsTheRunBetweenCases) {
  fuzz::FuzzOptions opt;
  opt.targets = {fuzz::Target::kSelftest};
  opt.cases = 100000;
  opt.out_dir = temp_dir("stop");
  robust::StopToken stop;
  stop.request_stop();
  opt.budget.stop = &stop;
  const auto summary = fuzz::run_fuzz(opt);
  EXPECT_EQ(summary.cases_run, 0u);
  EXPECT_EQ(summary.stop_reason, robust::StopReason::kStopRequested);
}

TEST(FuzzTargets, NamesRoundTrip) {
  for (const auto t :
       {fuzz::Target::kIoRoundtrip, fuzz::Target::kParserCorruption,
        fuzz::Target::kOptimizerDiff, fuzz::Target::kCecCross,
        fuzz::Target::kSelftest}) {
    EXPECT_EQ(fuzz::parse_target(fuzz::to_string(t)), t);
  }
  EXPECT_THROW(fuzz::parse_target("no-such-target"), std::invalid_argument);
}

} // namespace
} // namespace rcgp
