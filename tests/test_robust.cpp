// Tests for the run-durability layer: checkpoint/resume determinism,
// cooperative stop + budgets, and fault-injected integrity enforcement.

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <string>

#include "benchmarks/benchmarks.hpp"
#include "cec/sim_cec.hpp"
#include "core/anneal.hpp"
#include "core/evolve.hpp"
#include "core/flow.hpp"
#include "core/optimizer.hpp"
#include "io/rqfp_writer.hpp"
#include "obs/trace.hpp"
#include "robust/checkpoint.hpp"
#include "robust/fault.hpp"
#include "robust/integrity.hpp"
#include "robust/stop.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace rcgp {
namespace {

using core::EvolveParams;
using core::Fitness;
using robust::EvolveCheckpoint;
using robust::IntegrityError;
using robust::StopReason;
using robust::StopToken;

/// Builds the initialization netlist of a named benchmark.
rqfp::Netlist init_netlist(const std::string& name) {
  const auto b = benchmarks::get(name);
  core::FlowOptions opt;
  opt.run_cgp = false;
  return core::synthesize(b.spec, opt).initial;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "rcgp_robust_" + name;
}

void expect_same_fitness(const Fitness& a, const Fitness& b) {
  EXPECT_EQ(a.success_rate, b.success_rate);
  EXPECT_EQ(a.n_r, b.n_r);
  EXPECT_EQ(a.n_g, b.n_g);
  EXPECT_EQ(a.n_b, b.n_b);
}

// Searches are launched through the core::Optimizer facade; these helpers
// keep the budget/resume tests below at their historical terseness.

core::EvolveResult run_evolve(const rqfp::Netlist& init,
                              std::span<const tt::TruthTable> spec,
                              const EvolveParams& params) {
  core::OptimizerOptions oo;
  oo.evolve = params;
  return core::Optimizer(oo).run(init, spec).evolve;
}

/// Continues the run checkpointed at `path`: the Optimizer's resume
/// switch on a single lineage, which ignores the starting netlist.
core::EvolveResult resume_evolve(const std::string& path,
                                 std::span<const tt::TruthTable> spec,
                                 const EvolveParams& params) {
  core::OptimizerOptions oo;
  oo.evolve = params;
  oo.evolve.checkpoint_path = path;
  oo.island.resume = true;
  return core::Optimizer(oo).run(rqfp::Netlist(), spec).evolve;
}

core::AnnealResult run_anneal(const rqfp::Netlist& init,
                              std::span<const tt::TruthTable> spec,
                              const core::AnnealParams& params) {
  core::OptimizerOptions oo;
  oo.algorithm = core::Algorithm::kAnneal;
  oo.anneal = params;
  return core::Optimizer(oo).run(init, spec).anneal;
}

// ---------- CRC32 / stop primitives ----------

TEST(Crc32, MatchesIeeeCheckValue) {
  // The canonical check value of the reflected IEEE polynomial.
  EXPECT_EQ(util::crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(util::crc32(std::string_view("")), 0u);
}

TEST(Crc32, DetectsEverySingleBitFlip) {
  const std::string data = "rcgp checkpoint payload 0123456789";
  const std::uint32_t good = util::crc32(std::string_view(data));
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      std::string bad = data;
      bad[i] = static_cast<char>(bad[i] ^ (1 << bit));
      EXPECT_NE(util::crc32(std::string_view(bad)), good)
          << "byte " << i << " bit " << bit;
    }
  }
}

TEST(StopToken, TripsAndResets) {
  StopToken token;
  EXPECT_FALSE(token.stop_requested());
  token.request_stop();
  EXPECT_TRUE(token.stop_requested());
  token.reset();
  EXPECT_FALSE(token.stop_requested());
}

TEST(StopToken, SignalHandlerTripsToken) {
  static StopToken token; // must outlive the signal delivery
  robust::install_signal_stop(token);
  token.reset();
  std::raise(SIGTERM);
  EXPECT_TRUE(token.stop_requested());
}

TEST(StopReasonNames, AreStable) {
  EXPECT_EQ(to_string(StopReason::kCompleted), "completed");
  EXPECT_EQ(to_string(StopReason::kStagnation), "stagnation");
  EXPECT_EQ(to_string(StopReason::kTimeLimit), "time-limit");
  EXPECT_EQ(to_string(StopReason::kGenerationBudget), "generation-budget");
  EXPECT_EQ(to_string(StopReason::kEvaluationBudget), "evaluation-budget");
  EXPECT_EQ(to_string(StopReason::kStopRequested), "stop-requested");
}

// ---------- The stop rule (RunBudget::settled, interrupted, check) ----------

/// The reasons in the rule's documented order: the deterministic rule
/// (stagnation, completed, generation cap, evaluation budget), then the
/// interrupt rule (stop token, deadline).
constexpr StopReason kRuleOrder[] = {
    StopReason::kStagnation,       StopReason::kCompleted,
    StopReason::kGenerationBudget, StopReason::kEvaluationBudget,
    StopReason::kStopRequested,    StopReason::kTimeLimit};
constexpr std::size_t kFirstInterrupt = 4;

/// A boundary where every ceiling is set but none is met, then the
/// condition behind each reason in `hold` made to hold.
struct Boundary {
  StopToken token;
  robust::RunBudget budget;
  robust::Progress at{40, 200, 500, 4, 10};
  double elapsed = 5.0;

  explicit Boundary(std::initializer_list<StopReason> hold) {
    budget.deadline_seconds = 10.0;
    budget.max_generations = 100;
    budget.max_evaluations = 1000;
    budget.stagnation_limit = 50;
    budget.stop = &token;
    for (const StopReason reason : hold) {
      switch (reason) {
        case StopReason::kStagnation: at.since_improvement = 50; break;
        case StopReason::kCompleted: at.planned = 40; break;
        case StopReason::kGenerationBudget: budget.max_generations = 40; break;
        case StopReason::kEvaluationBudget: at.evaluations = 997; break;
        case StopReason::kStopRequested: token.request_stop(); break;
        case StopReason::kTimeLimit: elapsed = 10.5; break;
      }
    }
  }
};

TEST(StopRule, EveryPairOfConditionsReportsTheEarlierReason) {
  const Boundary none({});
  EXPECT_EQ(none.budget.check(none.at, none.elapsed), std::nullopt);
  for (std::size_t i = 0; i < std::size(kRuleOrder); ++i) {
    for (std::size_t j = i; j < std::size(kRuleOrder); ++j) {
      const StopReason first = kRuleOrder[i];
      const StopReason second = kRuleOrder[j];
      SCOPED_TRACE(to_string(first) + " + " + to_string(second));
      Boundary b({first, second});
      EXPECT_EQ(b.budget.check(b.at, b.elapsed), first);
      // The deterministic rule reads only the progress record, the
      // interrupt rule only the token and the clock.
      EXPECT_EQ(b.budget.settled(b.at),
                i < kFirstInterrupt ? std::optional(first) : std::nullopt);
      EXPECT_EQ(b.budget.interrupted(b.elapsed),
                i >= kFirstInterrupt   ? std::optional(first)
                : j >= kFirstInterrupt ? std::optional(second)
                                       : std::nullopt);
      EXPECT_EQ(robust::is_interrupt(first), i >= kFirstInterrupt);
    }
  }
}

TEST(StopRule, LimitsStopOnlyOnceReached) {
  Boundary b({});
  // A deadline equal to the elapsed time has not passed.
  EXPECT_EQ(b.budget.interrupted(10.0), std::nullopt);
  EXPECT_EQ(b.budget.interrupted(10.000001), StopReason::kTimeLimit);
  // A generation that exactly uses up the evaluation budget still runs.
  b.at.evaluations = 996;
  EXPECT_EQ(b.budget.settled(b.at), std::nullopt);
  b.at.since_improvement = 49;
  b.at.generations = 99;
  EXPECT_EQ(b.budget.settled(b.at), std::nullopt);
  b.at.generations = 100;
  EXPECT_EQ(b.budget.settled(b.at), StopReason::kGenerationBudget);
}

TEST(StopRule, UnsetFieldsNeverStop) {
  // Far past anything a set field could name.
  const robust::Progress far{1'000'000'000'000, 2'000'000'000'000,
                             1'000'000'000'000'000, 1'000'000,
                             1'000'000'000'000};
  EXPECT_EQ(robust::RunBudget{}.check(far, 1e9), std::nullopt);
  // A boundary that meets every ceiling: unsetting each field (0, or a
  // null token) removes its reason and only its reason.
  Boundary b({StopReason::kStagnation, StopReason::kGenerationBudget,
              StopReason::kEvaluationBudget, StopReason::kStopRequested,
              StopReason::kTimeLimit});
  EXPECT_EQ(b.budget.check(b.at, b.elapsed), StopReason::kStagnation);
  b.budget.stagnation_limit = 0;
  EXPECT_EQ(b.budget.check(b.at, b.elapsed), StopReason::kGenerationBudget);
  b.budget.max_generations = 0;
  EXPECT_EQ(b.budget.check(b.at, b.elapsed), StopReason::kEvaluationBudget);
  b.budget.max_evaluations = 0;
  EXPECT_EQ(b.budget.check(b.at, b.elapsed), StopReason::kStopRequested);
  b.budget.stop = nullptr;
  EXPECT_EQ(b.budget.check(b.at, b.elapsed), StopReason::kTimeLimit);
  b.budget.deadline_seconds = 0.0;
  EXPECT_EQ(b.budget.check(b.at, b.elapsed), std::nullopt);
}

TEST(StopRule, OverlayLaysEveryCeilingOver) {
  robust::RunBudget own;
  own.max_generations = 7;
  own.stagnation_limit = 3;
  robust::RunBudget limits;
  limits.stagnation_limit = 40;
  const robust::RunBudget both = robust::overlay(own, limits);
  EXPECT_EQ(both.stagnation_limit, 40u);
  EXPECT_EQ(both.max_generations, 7u);
  EXPECT_EQ(robust::overlay(own, {}).stagnation_limit, 3u);
}

TEST(Paranoia, ParsesAllSpellings) {
  EXPECT_EQ(robust::parse_paranoia("off"), robust::ParanoiaLevel::kOff);
  EXPECT_EQ(robust::parse_paranoia("boundaries"),
            robust::ParanoiaLevel::kBoundaries);
  EXPECT_EQ(robust::parse_paranoia("all"),
            robust::ParanoiaLevel::kEveryAcceptance);
  EXPECT_EQ(robust::parse_paranoia("every-acceptance"),
            robust::ParanoiaLevel::kEveryAcceptance);
  EXPECT_THROW(robust::parse_paranoia("extreme"), std::invalid_argument);
}

// ---------- Checkpoint serialization ----------

/// A fixed full-adder netlist (the flow's initialization baseline when
/// these tests were written), so the checkpoint samples below stay put
/// when the front end changes.
constexpr const char* kSampleParent = R"(.rqfp 1
.pis 3 x0 x1 x2
.pos 2
gate 0 1 0 001-001-001
gate 0 2 0 001-001-001
gate 0 3 0 001-001-001
gate 4 7 10 101-011-001
gate 5 8 11 100-010-000
gate 0 18 0 001-001-001
gate 12 15 19 101-011-001
po 24 y0
po 20 y1
.end
)";

/// serialize_checkpoint(sample_checkpoint()) byte for byte: the version-2
/// layout of every checkpoint already on disk. A renamed or reordered key
/// must fail here instead of at a user's resume.
constexpr const char* kGoldenCheckpoint = R"(rcgp-evolve-checkpoint 2 9e212891
seed 42
lambda 4
mu 0x1.1eb851eb851ecp-4
generations_total 12345
generation 678
evaluations 2713
improvements 17
sat_confirmations 3
sat_cec_conflicts 99
since_improvement 41
last_improvement_gen 637
elapsed_seconds 0x1.bc10624dd2f1bp+0
fitness 0x1p+0 21 5 33
mix_attempted 100 250 0 0 0 0 0
mix_accepted 30 0 0 0 0 0 0
netlist
.rqfp 1
.pis 3 x0 x1 x2
.pos 2
gate 0 1 0 001-001-001
gate 0 2 0 001-001-001
gate 0 3 0 001-001-001
gate 4 7 10 101-011-001
gate 5 8 11 100-010-000
gate 0 18 0 001-001-001
gate 12 15 19 101-011-001
po 24 y0
po 20 y1
.end
end-checkpoint
)";

EvolveCheckpoint sample_checkpoint() {
  EvolveCheckpoint ck;
  ck.seed = 42;
  ck.lambda = 4;
  ck.mu = 0.07;
  ck.generations_total = 12345;
  ck.generations_run = 678;
  ck.evaluations = 2713;
  ck.improvements = 17;
  ck.sat_confirmations = 3;
  ck.sat_cec_conflicts = 99;
  ck.since_improvement = 41;
  ck.last_improvement_gen = 637;
  ck.seconds = 1.734625;
  ck.best_fitness.success_rate = 1.0;
  ck.best_fitness.n_r = 21;
  ck.best_fitness.n_g = 5;
  ck.best_fitness.n_b = 33;
  ck.mutations_attempted.mutations = 100;
  ck.mutations_attempted.genes_changed = 250;
  ck.mutations_accepted.mutations = 30;
  ck.best = io::parse_rqfp_string(kSampleParent);
  return ck;
}

TEST(Checkpoint, SerializedBytesMatchTheGoldenText) {
  EXPECT_EQ(robust::serialize_checkpoint(sample_checkpoint()),
            kGoldenCheckpoint);
  // The committed text parses back to the same checkpoint.
  EXPECT_EQ(robust::serialize_checkpoint(
                robust::parse_checkpoint(kGoldenCheckpoint)),
            kGoldenCheckpoint);
}

TEST(Checkpoint, SerializeParseRoundTrip) {
  const EvolveCheckpoint ck = sample_checkpoint();
  const EvolveCheckpoint back =
      robust::parse_checkpoint(robust::serialize_checkpoint(ck));
  EXPECT_EQ(back.seed, ck.seed);
  EXPECT_EQ(back.lambda, ck.lambda);
  EXPECT_EQ(back.mu, ck.mu); // hexfloat round-trip is exact
  EXPECT_EQ(back.generations_total, ck.generations_total);
  EXPECT_EQ(back.generations_run, ck.generations_run);
  EXPECT_EQ(back.evaluations, ck.evaluations);
  EXPECT_EQ(back.improvements, ck.improvements);
  EXPECT_EQ(back.sat_confirmations, ck.sat_confirmations);
  EXPECT_EQ(back.sat_cec_conflicts, ck.sat_cec_conflicts);
  EXPECT_EQ(back.since_improvement, ck.since_improvement);
  EXPECT_EQ(back.last_improvement_gen, ck.last_improvement_gen);
  EXPECT_EQ(back.seconds, ck.seconds);
  expect_same_fitness(back.best_fitness, ck.best_fitness);
  EXPECT_EQ(back.mutations_attempted.mutations,
            ck.mutations_attempted.mutations);
  EXPECT_EQ(back.mutations_attempted.genes_changed,
            ck.mutations_attempted.genes_changed);
  EXPECT_EQ(back.mutations_accepted.mutations,
            ck.mutations_accepted.mutations);
  EXPECT_EQ(io::write_rqfp_string(back.best),
            io::write_rqfp_string(ck.best));
}

TEST(Checkpoint, SaveLoadRoundTripsThroughDisk) {
  const EvolveCheckpoint ck = sample_checkpoint();
  const std::string path = temp_path("roundtrip.ckpt");
  robust::save_checkpoint(ck, path);
  const EvolveCheckpoint back = robust::load_checkpoint(path);
  EXPECT_EQ(back.generations_run, ck.generations_run);
  EXPECT_EQ(back.evaluations, ck.evaluations);
  std::remove(path.c_str());
}

TEST(Checkpoint, EveryPayloadBitFlipIsCaught) {
  const std::string text =
      robust::serialize_checkpoint(sample_checkpoint());
  const std::size_t payload_start = text.find('\n') + 1;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    std::string corrupted = text;
    util::Rng rng(seed);
    const auto report =
        robust::inject_byte_fault(corrupted, rng, payload_start);
    try {
      robust::parse_checkpoint(corrupted);
      FAIL() << "undetected corruption: " << report.describe();
    } catch (const IntegrityError& e) {
      EXPECT_EQ(e.kind(), IntegrityError::Kind::kChecksum)
          << report.describe();
    }
  }
}

TEST(Checkpoint, HeaderCorruptionIsAFormatError) {
  std::string text = robust::serialize_checkpoint(sample_checkpoint());
  text[0] = 'X'; // break the magic word
  try {
    robust::parse_checkpoint(text);
    FAIL() << "bad magic accepted";
  } catch (const IntegrityError& e) {
    EXPECT_EQ(e.kind(), IntegrityError::Kind::kFormat);
  }
}

TEST(Checkpoint, UnknownVersionIsAFormatError) {
  std::string text = robust::serialize_checkpoint(sample_checkpoint());
  const auto space = text.find(' ');
  text[space + 1] = '9'; // version 1 -> 9
  try {
    robust::parse_checkpoint(text);
    FAIL() << "future version accepted";
  } catch (const IntegrityError& e) {
    EXPECT_EQ(e.kind(), IntegrityError::Kind::kFormat);
  }
}

TEST(Checkpoint, TruncationIsCaught) {
  const std::string text =
      robust::serialize_checkpoint(sample_checkpoint());
  // A torn write that loses the tail must never parse.
  EXPECT_THROW(robust::parse_checkpoint(text.substr(0, text.size() / 2)),
               IntegrityError);
  EXPECT_THROW(robust::parse_checkpoint(text.substr(0, text.size() - 3)),
               IntegrityError);
}

// ---------- Fault-injected integrity enforcement ----------

TEST(FaultInjection, WiringFaultsNeverPassSilently) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto net = init_netlist("decoder_2_4");
  ASSERT_EQ(net.validate(), "");
  int caught = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    rqfp::Netlist corrupted = net;
    util::Rng rng(seed);
    const auto report = robust::inject_wiring_fault(corrupted, rng);
    // The contract: a fault that changes structure or function MUST raise
    // IntegrityError; only a provably harmless flip may pass.
    const bool harmful =
        !corrupted.validate().empty() ||
        !cec::sim_check(corrupted, b.spec).all_match;
    if (!harmful) {
      continue;
    }
    try {
      robust::enforce_integrity(corrupted, b.spec, "test:wiring");
      FAIL() << "silent corruption: " << report.describe();
    } catch (const IntegrityError& e) {
      ++caught;
      EXPECT_TRUE(e.kind() == IntegrityError::Kind::kInvariant ||
                  e.kind() == IntegrityError::Kind::kFunctional)
          << report.describe();
      EXPECT_FALSE(e.netlist_dump().empty());
    }
  }
  // The injector must actually be generating harmful faults.
  EXPECT_GE(caught, 40);
}

TEST(FaultInjection, ConfigFaultsAreCaughtByResimulation) {
  const auto b = benchmarks::get("full_adder");
  const auto net = init_netlist("full_adder");
  int caught = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    rqfp::Netlist corrupted = net;
    util::Rng rng(seed);
    const auto report = robust::inject_config_fault(corrupted, rng);
    // Config flips keep the wiring legal: validate() alone cannot see them.
    EXPECT_EQ(corrupted.validate(), "") << report.describe();
    if (cec::sim_check(corrupted, b.spec).all_match) {
      continue; // flip landed on a dead row — functionally harmless
    }
    try {
      robust::enforce_integrity(corrupted, b.spec, "test:config");
      FAIL() << "silent corruption: " << report.describe();
    } catch (const IntegrityError& e) {
      ++caught;
      EXPECT_EQ(e.kind(), IntegrityError::Kind::kFunctional)
          << report.describe();
    }
  }
  EXPECT_GE(caught, 25);
}

TEST(Integrity, DumpRoundTripsForOfflineRepro) {
  const auto b = benchmarks::get("full_adder");
  auto net = init_netlist("full_adder");
  bool harmful = false;
  for (std::uint64_t seed = 1; seed <= 32 && !harmful; ++seed) {
    net = init_netlist("full_adder");
    util::Rng rng(seed);
    robust::inject_config_fault(net, rng);
    harmful = !cec::sim_check(net, b.spec).all_match;
  }
  ASSERT_TRUE(harmful) << "no seed in 1..32 produced a functional fault";
  try {
    robust::enforce_integrity(net, b.spec, "test:dump");
    FAIL() << "corruption not caught";
  } catch (const IntegrityError& e) {
    // The dump must parse back to the exact offending netlist.
    const auto back = io::parse_rqfp_string(e.netlist_dump());
    EXPECT_EQ(io::write_rqfp_string(back), io::write_rqfp_string(net));
    EXPECT_EQ(e.where(), "test:dump");
  }
}

TEST(Integrity, CleanNetlistPasses) {
  const auto b = benchmarks::get("full_adder");
  const auto net = init_netlist("full_adder");
  EXPECT_NO_THROW(robust::enforce_integrity(net, b.spec, "test:clean"));
}

// ---------- Budgets and cooperative stop in the optimizer loops ----------

TEST(EvolveBudget, GenerationBudgetStopsAtBoundary) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  EvolveParams params;
  params.generations = 5000;
  params.seed = 11;
  params.budget.max_generations = 120;
  const auto r = run_evolve(init, b.spec, params);
  EXPECT_EQ(r.stop_reason, StopReason::kGenerationBudget);
  EXPECT_EQ(r.generations_run, 120u);
  EXPECT_TRUE(cec::sim_check(r.best, b.spec).all_match);
}

TEST(EvolveBudget, EvaluationBudgetStopsMidGeneration) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  EvolveParams params;
  params.generations = 5000;
  params.lambda = 4;
  params.seed = 11;
  // 1 initial + 4*30 offspring + 2 into generation 30: the partial
  // generation is discarded, so bookkeeping lands on the boundary.
  params.budget.max_evaluations = 1 + 4 * 30 + 2;
  const auto r = run_evolve(init, b.spec, params);
  EXPECT_EQ(r.stop_reason, StopReason::kEvaluationBudget);
  EXPECT_EQ(r.generations_run, 30u);
  EXPECT_EQ(r.evaluations, 1u + 4u * 30u);
  EXPECT_TRUE(cec::sim_check(r.best, b.spec).all_match);
}

TEST(EvolveBudget, PreTrippedTokenReturnsInitialImmediately) {
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  StopToken token;
  token.request_stop();
  EvolveParams params;
  params.generations = 100000;
  params.budget.stop = &token;
  const auto r = run_evolve(init, b.spec, params);
  EXPECT_EQ(r.stop_reason, StopReason::kStopRequested);
  EXPECT_EQ(r.generations_run, 0u);
  EXPECT_TRUE(cec::sim_check(r.best, b.spec).all_match);
}

TEST(EvolveBudget, DeterministicReasonWinsOverAPendingStop) {
  // The initial evaluation spends the whole budget, and the token is
  // already tripped: the run could not go on even if nobody had asked it
  // to stop, so the reason is final, not a resumable interruption.
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  StopToken token;
  token.request_stop();
  EvolveParams params;
  params.generations = 100000;
  params.budget.stop = &token;
  params.budget.max_evaluations = 1;
  const auto r = run_evolve(init, b.spec, params);
  EXPECT_EQ(r.stop_reason, StopReason::kEvaluationBudget);
  EXPECT_EQ(r.generations_run, 0u);
  EXPECT_EQ(r.evaluations, 1u);
}

TEST(EvolveBudget, DeadlineStopsPromptly) {
  const auto b = benchmarks::get("graycode4");
  const auto init = init_netlist("graycode4");
  EvolveParams params;
  params.generations = 1000000000;
  params.budget.deadline_seconds = 0.15;
  const auto r = run_evolve(init, b.spec, params);
  EXPECT_EQ(r.stop_reason, StopReason::kTimeLimit);
  EXPECT_LT(r.seconds, 5.0);
}

TEST(EvolveBudget, SigtermStopsCooperativelyViaSignalHandler) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  static StopToken token; // must outlive the signal delivery
  robust::install_signal_stop(token);
  token.reset();
  EvolveParams params;
  params.generations = 1000000;
  params.seed = 21;
  params.budget.stop = &token;
  bool raised = false;
  params.on_improvement = [&](std::uint64_t, const Fitness&) {
    if (!raised) {
      raised = true;
      std::raise(SIGTERM);
    }
  };
  const auto r = run_evolve(init, b.spec, params);
  ASSERT_TRUE(raised) << "run never improved; test premise broken";
  EXPECT_EQ(r.stop_reason, StopReason::kStopRequested);
  EXPECT_LT(r.generations_run, params.generations);
  EXPECT_TRUE(cec::sim_check(r.best, b.spec).all_match);
  EXPECT_EQ(r.best.validate(), "");
}

TEST(AnnealBudget, StopTokenAndDeadlineWork) {
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  StopToken token;
  token.request_stop();
  core::AnnealParams params;
  params.steps = 100000;
  params.budget.stop = &token;
  const auto r = run_anneal(init, b.spec, params);
  EXPECT_EQ(r.stop_reason, StopReason::kStopRequested);
  EXPECT_EQ(r.steps_run, 0u);
  EXPECT_TRUE(cec::sim_check(r.best, b.spec).all_match);

  core::AnnealParams dp;
  dp.steps = 1000000000;
  dp.budget.deadline_seconds = 0.1;
  const auto d = run_anneal(init, b.spec, dp);
  EXPECT_EQ(d.stop_reason, StopReason::kTimeLimit);
  EXPECT_LT(d.seconds, 5.0);
}

// ---------- Checkpoint/resume determinism ----------

TEST(Resume, KillAndResumeIsBitIdentical) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  EvolveParams base;
  base.generations = 2000;
  base.seed = 17;

  // Reference: the same run, never interrupted.
  const auto ref = run_evolve(init, b.spec, base);

  // Part 1: stop at a generation boundary, leaving a checkpoint behind.
  const std::string path = temp_path("resume.ckpt");
  EvolveParams p1 = base;
  p1.checkpoint_path = path;
  p1.checkpoint_interval = 300;
  p1.budget.max_generations = 700;
  const auto part1 = run_evolve(init, b.spec, p1);
  EXPECT_EQ(part1.stop_reason, StopReason::kGenerationBudget);
  EXPECT_EQ(part1.generations_run, 700u);

  // Part 2: continue to the end; must match the reference exactly.
  auto trace = obs::TraceSink::memory();
  EvolveParams p2 = base;
  p2.trace = trace.get();
  const auto part2 = resume_evolve(path, b.spec, p2);
  EXPECT_TRUE(part2.resumed);
  EXPECT_EQ(part2.stop_reason, StopReason::kCompleted);
  EXPECT_EQ(part2.generations_run, ref.generations_run);
  EXPECT_EQ(part2.evaluations, ref.evaluations);
  EXPECT_EQ(part2.improvements, ref.improvements);
  expect_same_fitness(part2.best_fitness, ref.best_fitness);
  EXPECT_EQ(io::write_rqfp_string(part2.best),
            io::write_rqfp_string(ref.best));
  // The whole chain announces itself as a resumed completion.
  EXPECT_NE(trace->buffer().find("\"reason\":\"resumed-complete\""),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(Resume, MidGenerationInterruptIsBitIdentical) {
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  EvolveParams base;
  base.generations = 1500;
  base.seed = 23;
  base.lambda = 4;

  const auto ref = run_evolve(init, b.spec, base);

  // Interrupt inside generation 400's λ loop; the partial generation is
  // discarded and re-run after resume.
  const std::string path = temp_path("midgen.ckpt");
  EvolveParams p1 = base;
  p1.checkpoint_path = path;
  p1.budget.max_evaluations = 1 + 4 * 400 + 3;
  const auto part1 = run_evolve(init, b.spec, p1);
  EXPECT_EQ(part1.stop_reason, StopReason::kEvaluationBudget);
  EXPECT_EQ(part1.generations_run, 400u);
  EXPECT_EQ(part1.evaluations, 1u + 4u * 400u);

  const auto part2 = resume_evolve(path, b.spec, base);
  EXPECT_EQ(part2.stop_reason, StopReason::kCompleted);
  EXPECT_EQ(part2.generations_run, ref.generations_run);
  EXPECT_EQ(part2.evaluations, ref.evaluations);
  EXPECT_EQ(part2.improvements, ref.improvements);
  expect_same_fitness(part2.best_fitness, ref.best_fitness);
  EXPECT_EQ(io::write_rqfp_string(part2.best),
            io::write_rqfp_string(ref.best));
  std::remove(path.c_str());
}

TEST(Resume, ChainOfInterruptionsStillMatches) {
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  EvolveParams base;
  base.generations = 900;
  base.seed = 5;

  const auto ref = run_evolve(init, b.spec, base);

  const std::string path = temp_path("chain.ckpt");
  EvolveParams p1 = base;
  p1.checkpoint_path = path;
  p1.budget.max_generations = 250;
  (void)run_evolve(init, b.spec, p1);

  EvolveParams p2 = base;
  p2.budget.max_generations = 600;
  const auto mid = resume_evolve(path, b.spec, p2);
  EXPECT_EQ(mid.stop_reason, StopReason::kGenerationBudget);
  EXPECT_EQ(mid.generations_run, 600u);

  const auto fin = resume_evolve(path, b.spec, base);
  EXPECT_EQ(fin.generations_run, ref.generations_run);
  EXPECT_EQ(fin.evaluations, ref.evaluations);
  EXPECT_EQ(io::write_rqfp_string(fin.best), io::write_rqfp_string(ref.best));
  std::remove(path.c_str());
}

TEST(Resume, StagnatedStateRunsNoFurtherGeneration) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  const std::string path = temp_path("stagnated.ckpt");
  EvolveParams params;
  params.generations = 50000;
  params.seed = 21;
  params.budget.stagnation_limit = 300;
  params.checkpoint_path = path;
  const auto first = run_evolve(init, b.spec, params);
  ASSERT_EQ(first.stop_reason, StopReason::kStagnation);
  ASSERT_LT(first.generations_run, params.generations);

  // Stagnation is decided before a generation, not after one, so
  // continuing the stagnated state is idempotent like every other stop.
  const auto again = resume_evolve(path, b.spec, params);
  EXPECT_EQ(again.stop_reason, StopReason::kStagnation);
  EXPECT_EQ(again.generations_run, first.generations_run);
  EXPECT_EQ(again.evaluations, first.evaluations);
  EXPECT_EQ(again.since_improvement, first.since_improvement);
  EXPECT_EQ(io::write_rqfp_string(again.best),
            io::write_rqfp_string(first.best));
  std::remove(path.c_str());
}

TEST(Resume, MismatchedConfigurationIsRejected) {
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  const std::string path = temp_path("mismatch.ckpt");
  EvolveParams p;
  p.generations = 200;
  p.seed = 9;
  p.checkpoint_path = path;
  (void)run_evolve(init, b.spec, p);

  EvolveParams other = p;
  other.seed = 10;
  EXPECT_THROW(resume_evolve(path, b.spec, other),
               std::invalid_argument);
  other = p;
  other.generations = 9999;
  EXPECT_THROW(resume_evolve(path, b.spec, other),
               std::invalid_argument);
  std::remove(path.c_str());
}

TEST(Resume, NeedsACheckpointPathAndFile) {
  const auto b = benchmarks::get("full_adder");
  core::OptimizerOptions oo;
  oo.island.resume = true;
  EXPECT_THROW(core::Optimizer(oo).run(rqfp::Netlist(), b.spec),
               std::invalid_argument);
  const std::string missing = temp_path("missing.ckpt");
  std::remove(missing.c_str());
  EXPECT_THROW(resume_evolve(missing, b.spec, EvolveParams{}),
               std::runtime_error);
  oo.algorithm = core::Algorithm::kAnneal;
  EXPECT_THROW(core::Optimizer{oo}, std::invalid_argument);
}

TEST(Resume, CorruptedCheckpointFileNeverResumesSilently) {
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  const std::string path = temp_path("corrupt.ckpt");
  EvolveParams p;
  p.generations = 200;
  p.seed = 9;
  p.checkpoint_path = path;
  (void)run_evolve(init, b.spec, p);

  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  util::Rng rng(77);
  robust::inject_byte_fault(text, rng, text.find('\n') + 1);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  EXPECT_THROW(resume_evolve(path, b.spec, p), IntegrityError);
  std::remove(path.c_str());
}

// ---------- Paranoia in the loops ----------

TEST(Paranoia, EveryAcceptanceDoesNotPerturbTheSearch) {
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  EvolveParams params;
  params.generations = 800;
  params.seed = 13;
  const auto plain = run_evolve(init, b.spec, params);
  params.paranoia = robust::ParanoiaLevel::kEveryAcceptance;
  const auto checked = run_evolve(init, b.spec, params);
  // Integrity checks draw nothing from the RNG: identical trajectory.
  EXPECT_EQ(checked.evaluations, plain.evaluations);
  EXPECT_EQ(checked.improvements, plain.improvements);
  EXPECT_EQ(io::write_rqfp_string(checked.best),
            io::write_rqfp_string(plain.best));
}

TEST(Paranoia, FlowBoundariesAcceptACleanRun) {
  const auto b = benchmarks::get("full_adder");
  core::FlowOptions opt;
  opt.evolve.generations = 300;
  opt.evolve.paranoia = robust::ParanoiaLevel::kBoundaries;
  const auto r = core::synthesize(b.spec, opt);
  EXPECT_TRUE(cec::sim_check(r.optimized, b.spec).all_match);
}

TEST(Flow, StopTokenSkipsOptionalPhases) {
  const auto b = benchmarks::get("decoder_2_4");
  StopToken token;
  token.request_stop();
  core::FlowOptions opt;
  opt.evolve.generations = 100000;
  opt.evolve.budget.stop = &token;
  const auto r = core::synthesize(b.spec, opt);
  // CGP was skipped but the mapping still produced a valid netlist.
  EXPECT_EQ(r.optimization.evolve.generations_run, 0u);
  EXPECT_EQ(r.optimized.validate(), "");
  EXPECT_TRUE(cec::sim_check(r.optimized, b.spec).all_match);
}

} // namespace
} // namespace rcgp
