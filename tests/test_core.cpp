#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "aig/aig_simulate.hpp"
#include "benchmarks/benchmarks.hpp"
#include "cec/sim_cec.hpp"
#include "core/anneal.hpp"
#include "core/chromosome.hpp"
#include "core/evolve.hpp"
#include "core/fitness.hpp"
#include "core/flow.hpp"
#include "core/mutation.hpp"
#include "core/optimizer.hpp"
#include "core/shrink.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "rqfp/simulate.hpp"
#include "rqfp/splitter.hpp"
#include "util/rng.hpp"

namespace rcgp::core {
namespace {

rqfp::Netlist and_netlist() {
  rqfp::Netlist net(2);
  const auto g = net.add_gate({1, 2, rqfp::kConstPort},
                              rqfp::InvConfig::from_rows(5, 6, 4));
  net.add_po(net.port_of(g, 2));
  return net;
}

/// Builds the initialization netlist of a named benchmark.
rqfp::Netlist init_netlist(const std::string& name) {
  const auto b = benchmarks::get(name);
  FlowOptions opt;
  opt.run_cgp = false;
  return synthesize(b.spec, opt).initial;
}

// The search loops are reached exclusively through the Optimizer facade;
// these helpers keep the per-algorithm tests below terse.

EvolveResult run_evolve(const rqfp::Netlist& init,
                        std::span<const tt::TruthTable> spec,
                        const EvolveParams& params) {
  OptimizerOptions oo;
  oo.evolve = params;
  return Optimizer(oo).run(init, spec).evolve;
}

/// `islands` independent lineages: a fleet without migration.
EvolveResult run_multistart(const rqfp::Netlist& init,
                            std::span<const tt::TruthTable> spec,
                            const EvolveParams& params, unsigned islands) {
  OptimizerOptions oo;
  oo.evolve = params;
  oo.island.islands = islands;
  oo.island.topology = Topology::kNone;
  return Optimizer(oo).run(init, spec).evolve;
}

AnnealResult run_anneal(const rqfp::Netlist& init,
                        std::span<const tt::TruthTable> spec,
                        const AnnealParams& params) {
  OptimizerOptions oo;
  oo.algorithm = Algorithm::kAnneal;
  oo.anneal = params;
  return Optimizer(oo).run(init, spec).anneal;
}

// ---------- Fitness ----------

TEST(Fitness, LexicographicOrder) {
  Fitness bad;
  bad.success_rate = 0.9;
  Fitness good;
  good.success_rate = 1.0;
  good.n_r = 10;
  good.n_g = 5;
  good.n_b = 3;
  EXPECT_TRUE(good.better_or_equal(bad));
  EXPECT_FALSE(bad.better_or_equal(good));

  Fitness fewer_gates = good;
  fewer_gates.n_r = 9;
  fewer_gates.n_g = 99; // gates dominate garbage
  EXPECT_TRUE(fewer_gates.better_or_equal(good));
  EXPECT_FALSE(good.better_or_equal(fewer_gates));

  Fitness fewer_garbage = good;
  fewer_garbage.n_g = 4;
  fewer_garbage.n_b = 99; // garbage dominates buffers
  EXPECT_TRUE(fewer_garbage.better_or_equal(good));

  Fitness fewer_buffers = good;
  fewer_buffers.n_b = 2;
  EXPECT_TRUE(fewer_buffers.better_or_equal(good));
  EXPECT_TRUE(fewer_buffers.strictly_better(good));
  EXPECT_TRUE(good.better_or_equal(good)); // reflexive
  EXPECT_FALSE(good.strictly_better(good));
}

TEST(Fitness, JjObjectiveOrders) {
  Fitness a;
  a.success_rate = 1.0;
  a.objective = Objective::kJjCount;
  a.n_r = 5;
  a.n_b = 0; // 120 JJs
  Fitness b = a;
  b.n_r = 4;
  b.n_b = 7; // 124 JJs
  // Under the paper order b wins (fewer gates); under JJ order a wins.
  EXPECT_TRUE(a.better_or_equal(b));
  EXPECT_FALSE(b.better_or_equal(a));
  a.objective = Objective::kPaperLexicographic;
  b.objective = Objective::kPaperLexicographic;
  EXPECT_TRUE(b.better_or_equal(a));
  EXPECT_EQ(a.jjs(), 120u);
  EXPECT_EQ(b.jjs(), 124u);
}

TEST(Fitness, JjObjectiveFlowStaysCorrect) {
  const auto b = benchmarks::get("decoder_2_4");
  FlowOptions opt;
  opt.evolve.generations = 8000;
  opt.evolve.fitness.objective = Objective::kJjCount;
  opt.evolve.seed = 13;
  const auto r = synthesize(b.spec, opt);
  EXPECT_TRUE(cec::sim_check(r.optimized, b.spec).all_match);
  EXPECT_LE(r.optimized_cost.jjs, r.initial_cost.jjs);
}

TEST(Fitness, EvaluateCorrectNetlist) {
  const auto net = and_netlist();
  std::vector<tt::TruthTable> spec{tt::TruthTable::projection(2, 0) &
                                   tt::TruthTable::projection(2, 1)};
  const Fitness f = evaluate(net, spec);
  EXPECT_TRUE(f.functionally_correct());
  EXPECT_EQ(f.n_r, 1u);
  EXPECT_EQ(f.n_g, 2u);
}

TEST(Fitness, EvaluateWrongNetlistSkipsCost) {
  const auto net = and_netlist();
  std::vector<tt::TruthTable> spec{tt::TruthTable::projection(2, 0) |
                                   tt::TruthTable::projection(2, 1)};
  const Fitness f = evaluate(net, spec);
  EXPECT_FALSE(f.functionally_correct());
  EXPECT_LT(f.success_rate, 1.0);
  EXPECT_EQ(f.n_r, 0u); // untouched
}

// ---------- Chromosome ----------

TEST(Chromosome, GeneCountAndMapping) {
  const auto net = and_netlist();
  EXPECT_EQ(num_genes(net), 5u); // 4 per gate + 1 PO
  const auto g0 = gene_at(net, 0);
  EXPECT_EQ(g0.kind, GeneRef::Kind::kGateInput);
  EXPECT_EQ(g0.slot, 0u);
  const auto g3 = gene_at(net, 3);
  EXPECT_EQ(g3.kind, GeneRef::Kind::kGateConfig);
  const auto g4 = gene_at(net, 4);
  EXPECT_EQ(g4.kind, GeneRef::Kind::kPrimaryOutput);
  EXPECT_EQ(g4.po, 0u);
  EXPECT_THROW(gene_at(net, 5), std::out_of_range);
}

TEST(Chromosome, GenotypeStringMatchesPaperNotation) {
  const auto net = and_netlist();
  const auto s = to_genotype_string(net);
  EXPECT_NE(s.find("(1, 2, 0, "), std::string::npos);
  EXPECT_NE(s.find("(5)"), std::string::npos); // PO bound to port 5
}

// ---------- Mutation ----------

class MutationInvariant : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MutationInvariant, PreservesSingleFanout) {
  auto net = init_netlist("decoder_2_4");
  ASSERT_EQ(net.validate(), "");
  util::Rng rng(GetParam());
  MutationParams params;
  params.mu = 1.0;
  for (int round = 0; round < 50; ++round) {
    mutate(net, rng, params);
    ASSERT_EQ(net.validate(), "") << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationInvariant,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Mutation, ChangesGenes) {
  auto net = init_netlist("graycode4");
  util::Rng rng(42);
  MutationParams params;
  params.mu = 1.0;
  const auto before = net;
  MutationStats total;
  for (int i = 0; i < 10; ++i) {
    const auto stats = mutate(net, rng, params);
    total.genes_changed += stats.genes_changed;
  }
  EXPECT_GT(total.genes_changed, 0u);
  EXPECT_FALSE(net == before);
}

TEST(Mutation, RespectsLowMutationRate) {
  auto net = init_netlist("decoder_2_4");
  util::Rng rng(7);
  MutationParams params;
  params.mu = 1.0 / num_genes(net); // at most one gene
  for (int i = 0; i < 20; ++i) {
    const auto stats = mutate(net, rng, params);
    EXPECT_LE(stats.genes_changed, 1u);
  }
}

TEST(Mutation, GateCountIsStable) {
  // Point mutation never adds or removes gates (only shrink does).
  auto net = init_netlist("ham3");
  const auto gates = net.num_gates();
  util::Rng rng(3);
  for (int i = 0; i < 30; ++i) {
    mutate(net, rng, {});
    EXPECT_EQ(net.num_gates(), gates);
  }
}

TEST(Mutation, WorkerMapPathMatchesRefill) {
  // EvalPool mutates each child from a copy of its worker's consumer map
  // of the parent; the 3-argument form refills one from the child. Both
  // must draw the same genes and count the same stats on every row, and
  // the worker's map must be left as it was for the next child.
  for (const std::string& row : benchmarks::all_names()) {
    const rqfp::Netlist parent = shrink(init_netlist(row));
    ConsumerMap map;
    build_consumer_map(parent, map);
    const ConsumerMap built = map;
    for (unsigned setting = 0; setting < 3; ++setting) {
      MutationParams mp;
      mp.mu = setting == 1 ? 12.0 / num_genes(parent) : 1.0;
      mp.strict_po_swap = setting != 2;
      for (unsigned k = 0; k < 8; ++k) {
        const std::string what =
            row + ", setting " + std::to_string(setting) + ", child " +
            std::to_string(k);
        rqfp::Netlist refilled = parent;
        rqfp::Netlist copied = parent;
        util::Rng a = util::Rng::stream(26, setting, k);
        util::Rng b = util::Rng::stream(26, setting, k);
        const MutationStats want = mutate(refilled, a, mp);
        const MutationStats got = mutate(copied, b, mp, map);
        ASSERT_EQ(copied, refilled) << what;
        EXPECT_EQ(got.genes_changed, want.genes_changed) << what;
        EXPECT_EQ(got.swaps, want.swaps) << what;
        EXPECT_EQ(got.direct_assigns, want.direct_assigns) << what;
        EXPECT_EQ(got.config_flips, want.config_flips) << what;
        EXPECT_EQ(got.po_moves, want.po_moves) << what;
        EXPECT_EQ(got.skipped_infeasible, want.skipped_infeasible) << what;
        EXPECT_EQ(a.next(), b.next()) << what << ": draws consumed";
        ASSERT_EQ(map, built) << what << ": the worker's map changed";
      }
    }
  }
  // A map of another netlist is refused, not read out of bounds.
  const rqfp::Netlist small = init_netlist("full_adder");
  rqfp::Netlist big = init_netlist("decoder_3_8");
  ConsumerMap map;
  build_consumer_map(small, map);
  util::Rng rng(1);
  EXPECT_THROW(mutate(big, rng, {}, map), std::invalid_argument);
}

// ---------- Deterministic reconnection primitives (§3.2.2 semantics) ----

TEST(Reconnect, DirectAssignToUnconsumedPort) {
  // Gate 1 reads gate 0's output 2; outputs 0 and 1 of gate 0 are free.
  rqfp::Netlist net(2);
  const auto g0 = net.add_gate({1, 2, 0}, rqfp::InvConfig::reversible());
  const auto g1 = net.add_gate({net.port_of(g0, 2), 0, 0},
                               rqfp::InvConfig::splitter());
  net.add_po(net.port_of(g1, 0));
  const auto outcome =
      reconnect_input(net, g1, 0, net.port_of(g0, 1));
  EXPECT_EQ(outcome, ReconnectOutcome::kDirect);
  EXPECT_EQ(net.gate(g1).in[0], net.port_of(g0, 1));
  EXPECT_EQ(net.validate(), "");
}

TEST(Reconnect, SwapWithExistingConsumer) {
  // Both PIs consumed by gate 0; reconnecting slot 0 to PI 2 must swap.
  rqfp::Netlist net(2);
  const auto g0 = net.add_gate({1, 2, 0}, rqfp::InvConfig::reversible());
  net.add_po(net.port_of(g0, 2));
  const auto outcome = reconnect_input(net, g0, 0, 2);
  EXPECT_EQ(outcome, ReconnectOutcome::kSwapped);
  EXPECT_EQ(net.gate(g0).in[0], 2u);
  EXPECT_EQ(net.gate(g0).in[1], 1u);
  EXPECT_EQ(net.validate(), "");
}

TEST(Reconnect, ConstTargetAlwaysDirect) {
  rqfp::Netlist net(2);
  const auto g0 = net.add_gate({1, 2, 0}, rqfp::InvConfig::reversible());
  net.add_po(net.port_of(g0, 2));
  EXPECT_EQ(reconnect_input(net, g0, 0, rqfp::kConstPort),
            ReconnectOutcome::kDirect);
  // PI 1 is now unconsumed; reconnecting back is a direct assign.
  EXPECT_EQ(reconnect_input(net, g0, 0, 1), ReconnectOutcome::kDirect);
  EXPECT_EQ(net.validate(), "");
}

TEST(Reconnect, NoChangeOnSameTarget) {
  rqfp::Netlist net(2);
  const auto g0 = net.add_gate({1, 2, 0}, rqfp::InvConfig::reversible());
  net.add_po(net.port_of(g0, 2));
  EXPECT_EQ(reconnect_input(net, g0, 0, 1), ReconnectOutcome::kNoChange);
}

TEST(Reconnect, InfeasibleSwapLeavesNetlistUntouched) {
  // Gate 0 consumes PI 1. Gate 1's output feeds the PO. Reconnecting the
  // PO to PI 1 would hand gate 0 the PO's old value — a port produced
  // after gate 0 — which is infeasible.
  rqfp::Netlist net(1);
  const auto g0 = net.add_gate({1, 0, 0}, rqfp::InvConfig::splitter());
  const auto g1 = net.add_gate({net.port_of(g0, 0), 0, 0},
                               rqfp::InvConfig::splitter());
  net.add_po(net.port_of(g1, 0));
  const auto before = net;
  EXPECT_EQ(reconnect_input(net, g0, 0, 0), ReconnectOutcome::kDirect);
  net = before;
  const auto outcome = reconnect_po(net, 0, 1);
  EXPECT_EQ(outcome, ReconnectOutcome::kInfeasible);
  EXPECT_TRUE(net == before);
}

TEST(Reconnect, PoSwapWithAnotherPo) {
  rqfp::Netlist net(2);
  const auto g0 = net.add_gate({1, 2, 0}, rqfp::InvConfig::reversible());
  net.add_po(net.port_of(g0, 0));
  net.add_po(net.port_of(g0, 2));
  const auto outcome = reconnect_po(net, 0, net.po_at(1));
  EXPECT_EQ(outcome, ReconnectOutcome::kSwapped);
  EXPECT_EQ(net.po_at(0), net.port_of(g0, 2));
  EXPECT_EQ(net.po_at(1), net.port_of(g0, 0));
  EXPECT_EQ(net.validate(), "");
}

TEST(Reconnect, ForwardReferenceThrows) {
  rqfp::Netlist net(1);
  const auto g0 = net.add_gate({1, 0, 0}, rqfp::InvConfig::splitter());
  net.add_po(net.port_of(g0, 0));
  EXPECT_THROW(reconnect_input(net, g0, 0, net.port_of(g0, 1)),
               std::invalid_argument);
  EXPECT_THROW(reconnect_po(net, 0, net.first_free_port()),
               std::invalid_argument);
}

// ---------- Shrink ----------

TEST(Shrink, RemovesUselessGatesOnly) {
  rqfp::Netlist net(2);
  const auto g0 = net.add_gate({1, 2, 0}, rqfp::InvConfig::reversible());
  net.add_gate({0, 0, 0}, rqfp::InvConfig()); // useless
  net.add_po(net.port_of(g0, 2));
  EXPECT_EQ(count_useless_gates(net), 1u);
  const auto before = rqfp::simulate(net);
  const auto small = shrink(net);
  EXPECT_EQ(small.num_gates(), 1u);
  EXPECT_EQ(count_useless_gates(small), 0u);
  EXPECT_EQ(rqfp::simulate(small), before);
}

TEST(Shrink, CascadingDeadChains) {
  rqfp::Netlist net(1);
  const auto g0 = net.add_gate({0, 1, 0}, rqfp::InvConfig::splitter());
  const auto g1 = net.add_gate({0, net.port_of(g0, 0), 0},
                               rqfp::InvConfig::splitter());
  net.add_gate({0, net.port_of(g1, 0), 0}, rqfp::InvConfig::splitter());
  net.add_po(net.port_of(g0, 1));
  // g2 is dead; g1 only feeds g2 so it dies transitively; g0 remains.
  const auto small = shrink(net);
  EXPECT_EQ(small.num_gates(), 1u);
}

TEST(Shrink, PaperExampleChromosomeLength) {
  // Fig. 3(b)->(c): removing one useless 4-gene gate shortens the
  // chromosome by 4 (20 -> 16 for the decoder example).
  auto net = init_netlist("decoder_2_4");
  rqfp::Netlist with_dead = net;
  with_dead.add_gate({0, 0, 0}, rqfp::InvConfig());
  EXPECT_EQ(num_genes(with_dead), num_genes(net) + 4);
  EXPECT_EQ(num_genes(shrink(with_dead)), num_genes(net));
}

// ---------- Evolution ----------

TEST(Evolve, RejectsWrongInitialNetlist) {
  const auto net = and_netlist();
  std::vector<tt::TruthTable> wrong{tt::TruthTable::projection(2, 0) ^
                                    tt::TruthTable::projection(2, 1)};
  EvolveParams params;
  params.generations = 10;
  EXPECT_THROW(run_evolve(net, wrong, params), std::invalid_argument);
}

TEST(Evolve, KeepsFunctionalCorrectness) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  EvolveParams params;
  params.generations = 2000;
  params.seed = 11;
  const auto result = run_evolve(init, b.spec, params);
  EXPECT_EQ(result.best.validate(), "");
  const auto sim = cec::sim_check(result.best, b.spec);
  EXPECT_TRUE(sim.all_match);
  EXPECT_TRUE(result.best_fitness.functionally_correct());
}

TEST(Evolve, NeverWorseThanInitialization) {
  for (const char* name : {"decoder_2_4", "full_adder", "4gt10"}) {
    const auto b = benchmarks::get(name);
    const auto init = init_netlist(name);
    const Fitness init_fit = evaluate(init, b.spec);
    EvolveParams params;
    params.generations = 1500;
    params.seed = 5;
    const auto result = run_evolve(init, b.spec, params);
    EXPECT_TRUE(result.best_fitness.better_or_equal(init_fit)) << name;
    EXPECT_LE(result.best_fitness.n_r, init_fit.n_r) << name;
  }
}

TEST(Evolve, ImprovesDecoderLikeThePaper) {
  // The paper's headline: CGP sharply reduces gates and garbage vs the
  // initialization baseline. With a modest budget the decoder must drop
  // below its 8-gate/10-garbage initialization.
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  EvolveParams params;
  params.generations = 30000;
  params.seed = 5;
  const auto result = run_evolve(init, b.spec, params);
  EXPECT_LT(result.best_fitness.n_r, 8u);
  EXPECT_LT(result.best_fitness.n_g, 10u);
}

TEST(Evolve, StagnationStopsEarly) {
  const auto b = benchmarks::get("4gt10");
  const auto init = init_netlist("4gt10");
  EvolveParams params;
  params.generations = 1000000;
  params.budget.stagnation_limit = 200;
  params.seed = 3;
  const auto result = run_evolve(init, b.spec, params);
  EXPECT_LT(result.generations_run, params.generations);
  EXPECT_EQ(result.stop_reason, robust::StopReason::kStagnation);
}

TEST(Evolve, StagnationCounterResetsOnImprovement) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  EvolveParams params;
  params.generations = 50000;
  params.budget.stagnation_limit = 300;
  params.seed = 21;
  std::vector<std::uint64_t> improvement_gens;
  params.on_improvement = [&](std::uint64_t gen, const Fitness&) {
    improvement_gens.push_back(gen);
  };
  const auto r = run_evolve(init, b.spec, params);
  ASSERT_EQ(r.stop_reason, robust::StopReason::kStagnation);
  ASSERT_FALSE(improvement_gens.empty());
  // The counter reset on every improvement, so the run survived past the
  // naive limit and stopped exactly `stagnation_limit` generations after
  // the last improvement (that generation itself included in the count).
  EXPECT_GT(r.generations_run, params.budget.stagnation_limit);
  EXPECT_EQ(r.generations_run,
            improvement_gens.back() + params.budget.stagnation_limit + 1);
  EXPECT_EQ(static_cast<std::uint64_t>(improvement_gens.size()),
            r.improvements);
}

TEST(Evolve, TimeLimitStops) {
  const auto b = benchmarks::get("graycode4");
  const auto init = init_netlist("graycode4");
  EvolveParams params;
  params.generations = 1000000000;
  params.budget.deadline_seconds = 0.2;
  const auto result = run_evolve(init, b.spec, params);
  EXPECT_LT(result.seconds, 5.0);
  EXPECT_LT(result.generations_run, params.generations);
  EXPECT_EQ(result.stop_reason, robust::StopReason::kTimeLimit);
}

TEST(Evolve, SatVerificationPathAccepts) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  EvolveParams params;
  params.generations = 3000;
  params.sat_verify_improvements = true;
  params.seed = 9;
  const auto result = run_evolve(init, b.spec, params);
  EXPECT_GT(result.sat_confirmations, 0u);
  EXPECT_TRUE(cec::sim_check(result.best, b.spec).all_match);
}

TEST(Evolve, ImprovementCallbackFires) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  EvolveParams params;
  params.generations = 5000;
  params.seed = 21;
  int calls = 0;
  params.on_improvement = [&](std::uint64_t, const Fitness&) { ++calls; };
  const auto result = run_evolve(init, b.spec, params);
  EXPECT_EQ(static_cast<std::uint64_t>(calls), result.improvements);
}

/// Splits a JSONL buffer into its non-empty lines.
std::vector<std::string> jsonl_lines(const std::string& buffer) {
  std::vector<std::string> lines;
  std::istringstream in(buffer);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

Fitness fitness_of_event(const std::string& line) {
  Fitness f;
  f.success_rate = *obs::json::number_field(line, "success_rate");
  f.n_r = static_cast<std::uint32_t>(*obs::json::number_field(line, "n_r"));
  f.n_g = static_cast<std::uint32_t>(*obs::json::number_field(line, "n_g"));
  f.n_b = static_cast<std::uint32_t>(*obs::json::number_field(line, "n_b"));
  return f;
}

TEST(Evolve, TraceEventsMatchResultCounters) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  auto sink = obs::TraceSink::memory();
  EvolveParams params;
  params.generations = 5000;
  params.seed = 21;
  params.trace = sink.get();
  params.trace_heartbeat = 1000;
  const auto result = run_evolve(init, b.spec, params);

  const auto lines = jsonl_lines(sink->buffer());
  ASSERT_FALSE(lines.empty());
  std::vector<std::string> improvements;
  std::uint64_t heartbeats = 0;
  for (const auto& line : lines) {
    ASSERT_TRUE(obs::json::validate(line)) << line;
    const auto type = obs::json::string_field(line, "event");
    ASSERT_TRUE(type.has_value()) << line;
    if (*type == "improvement") {
      improvements.push_back(line);
    } else if (*type == "heartbeat") {
      ++heartbeats;
    }
  }
  EXPECT_EQ(obs::json::string_field(lines.front(), "event"), "run_start");
  EXPECT_EQ(obs::json::string_field(lines.back(), "event"), "run_end");
  EXPECT_EQ(improvements.size(), result.improvements);
  EXPECT_EQ(heartbeats, result.generations_run / params.trace_heartbeat);

  // Improvement events are strict improvements: monotone in the
  // lexicographic fitness order, with the last matching the final result.
  for (std::size_t i = 1; i < improvements.size(); ++i) {
    EXPECT_TRUE(fitness_of_event(improvements[i])
                    .strictly_better(fitness_of_event(improvements[i - 1])))
        << improvements[i];
  }
  ASSERT_FALSE(improvements.empty());
  const Fitness last = fitness_of_event(improvements.back());
  EXPECT_EQ(last.n_r, result.best_fitness.n_r);
  EXPECT_EQ(last.n_g, result.best_fitness.n_g);
  EXPECT_EQ(last.n_b, result.best_fitness.n_b);

  // run_end restates the result counters.
  const std::string& end = lines.back();
  EXPECT_EQ(*obs::json::number_field(end, "generations_run"),
            static_cast<double>(result.generations_run));
  EXPECT_EQ(*obs::json::number_field(end, "evaluations"),
            static_cast<double>(result.evaluations));
  EXPECT_EQ(*obs::json::number_field(end, "improvements"),
            static_cast<double>(result.improvements));
}

TEST(Evolve, MutationMixAccountsForEveryOffspring) {
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  EvolveParams params;
  params.generations = 2000;
  params.seed = 13;
  const auto result = run_evolve(init, b.spec, params);
  // One mutate() call per offspring per generation.
  EXPECT_EQ(result.mutations_attempted.mutations,
            result.generations_run * params.lambda);
  EXPECT_EQ(result.evaluations,
            result.generations_run * params.lambda + 1); // +1 for the parent
  // Accepted offspring are a subset of attempted ones, field by field.
  EXPECT_LE(result.mutations_accepted.mutations,
            result.mutations_attempted.mutations);
  EXPECT_LE(result.mutations_accepted.genes_changed,
            result.mutations_attempted.genes_changed);
  EXPECT_LE(result.mutations_accepted.swaps,
            result.mutations_attempted.swaps);
  EXPECT_LE(result.mutations_accepted.direct_assigns,
            result.mutations_attempted.direct_assigns);
  EXPECT_LE(result.mutations_accepted.config_flips,
            result.mutations_attempted.config_flips);
  EXPECT_LE(result.mutations_accepted.po_moves,
            result.mutations_attempted.po_moves);
  // Acceptances happen (the decoder always improves at this budget), and
  // each acceptance is one offspring.
  EXPECT_GE(result.mutations_accepted.mutations, result.improvements);
}

TEST(EvolveMultistart, TraceEmitsOneSlicePerIsland) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  auto sink = obs::TraceSink::memory();
  EvolveParams params;
  params.generations = 300;
  params.seed = 2;
  params.trace = sink.get();
  const auto result = run_multistart(init, b.spec, params, 3);
  // A fleet without migration is one epoch: each island runs its whole
  // share of the budget in one slice.
  std::vector<std::uint64_t> slices(3, 0);
  for (const auto& line : jsonl_lines(sink->buffer())) {
    ASSERT_TRUE(obs::json::validate(line)) << line;
    if (obs::json::string_field(line, "event") == "island_slice") {
      const auto island = obs::json::number_field(line, "island");
      ASSERT_TRUE(island.has_value() && *island < 3) << line;
      ++slices[static_cast<std::size_t>(*island)];
    }
  }
  EXPECT_EQ(slices, (std::vector<std::uint64_t>{1, 1, 1}));
  EXPECT_TRUE(result.best_fitness.functionally_correct());
}

TEST(EvolveMultistart, ReturnsValidBestOfRuns) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  EvolveParams params;
  params.generations = 8000;
  params.seed = 31;
  const auto single = run_evolve(init, b.spec, params);
  const auto multi = run_multistart(init, b.spec, params, 4);
  EXPECT_TRUE(cec::sim_check(multi.best, b.spec).all_match);
  EXPECT_EQ(multi.best.validate(), "");
  // Same total budget, bookkeeping accumulated over runs.
  EXPECT_EQ(multi.generations_run, single.generations_run / 4 * 4);
  EXPECT_TRUE(multi.best_fitness.functionally_correct());
}

TEST(EvolveMultistart, ZeroIslandsIsRejected) {
  const auto b = benchmarks::get("4gt10");
  const auto init = init_netlist("4gt10");
  EvolveParams params;
  params.generations = 500;
  // A zero lineage count is a caller bug, not a request for one lineage.
  EXPECT_THROW(run_multistart(init, b.spec, params, 0),
               std::invalid_argument);
}

TEST(EvolveMultistart, DistributesRemainderGenerations) {
  const auto b = benchmarks::get("4gt10");
  const auto init = init_netlist("4gt10");
  EvolveParams params;
  params.generations = 103; // 103 = 4*25 + 3: remainder must not be lost
  params.seed = 7;
  const auto r = run_multistart(init, b.spec, params, 4);
  EXPECT_EQ(r.generations_run, 103u);
  EXPECT_TRUE(r.best_fitness.functionally_correct());
  EXPECT_EQ(r.stop_reason, robust::StopReason::kCompleted);
}

TEST(EvolveMultistart, StopTokenCutsRestartScheduleShort) {
  const auto b = benchmarks::get("4gt10");
  const auto init = init_netlist("4gt10");
  robust::StopToken token;
  token.request_stop();
  EvolveParams params;
  params.generations = 4000;
  params.budget.stop = &token;
  const auto r = run_multistart(init, b.spec, params, 4);
  EXPECT_EQ(r.stop_reason, robust::StopReason::kStopRequested);
  EXPECT_EQ(r.generations_run, 0u);
  // Even a fully pre-empted schedule hands back a usable netlist.
  EXPECT_TRUE(cec::sim_check(r.best, b.spec).all_match);
}

// ---------- Simulated annealing (ablation optimizer) ----------

TEST(Anneal, EnergyOrdersStatesLikeTheFitness) {
  const auto net = and_netlist();
  std::vector<tt::TruthTable> right{tt::TruthTable::projection(2, 0) &
                                    tt::TruthTable::projection(2, 1)};
  std::vector<tt::TruthTable> wrong{tt::TruthTable::projection(2, 0) |
                                    tt::TruthTable::projection(2, 1)};
  EXPECT_LT(anneal_energy(net, right), anneal_energy(net, wrong));
}

TEST(Anneal, ImprovesAndStaysCorrect) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  AnnealParams params;
  params.steps = 20000;
  params.seed = 5;
  params.mutation.mu = 0.2;
  const auto r = run_anneal(init, b.spec, params);
  EXPECT_TRUE(r.best_fitness.functionally_correct());
  EXPECT_TRUE(cec::sim_check(r.best, b.spec).all_match);
  EXPECT_EQ(r.best.validate(), "");
  const Fitness init_fit = evaluate(init, b.spec);
  EXPECT_TRUE(r.best_fitness.better_or_equal(init_fit));
  EXPECT_GT(r.accepted, 0u);
}

TEST(Anneal, AcceptsUphillMovesAtHighTemperature) {
  const auto b = benchmarks::get("graycode4");
  const auto init = init_netlist("graycode4");
  AnnealParams params;
  params.steps = 3000;
  params.initial_temperature = 1e6; // essentially a random walk
  params.final_temperature = 1e5;
  params.seed = 2;
  const auto r = run_anneal(init, b.spec, params);
  EXPECT_GT(r.uphill_accepted, 0u);
  // Best-seen tracking still guarantees a correct result.
  EXPECT_TRUE(cec::sim_check(r.best, b.spec).all_match);
}

TEST(Anneal, RejectsWrongInitialNetlist) {
  const auto net = and_netlist();
  std::vector<tt::TruthTable> wrong{tt::TruthTable::projection(2, 0) ^
                                    tt::TruthTable::projection(2, 1)};
  EXPECT_THROW(run_anneal(net, wrong, {}), std::invalid_argument);
}

// ---------- Flow ----------

TEST(Flow, AigFromTablesMatchesSpec) {
  const auto b = benchmarks::get("c17");
  const auto net = aig_from_tables(b.spec, b.po_names);
  const auto tts = aig::simulate(net);
  EXPECT_EQ(tts, b.spec);
  EXPECT_EQ(net.po_name(0), "y0");
}

TEST(Flow, InitializationIsLegalAndCorrect) {
  for (const char* name : {"full_adder", "graycode4", "mux4"}) {
    const auto b = benchmarks::get(name);
    FlowOptions opt;
    opt.run_cgp = false;
    const auto r = synthesize(b.spec, opt);
    EXPECT_EQ(r.initial.validate(), "") << name;
    EXPECT_TRUE(cec::sim_check(r.initial, b.spec).all_match) << name;
    EXPECT_EQ(r.initial_cost.jjs,
              24 * r.initial_cost.n_r + 4 * r.initial_cost.n_b)
        << name;
  }
}

TEST(Flow, CgpPhaseImprovesOrMatchesInit) {
  const auto b = benchmarks::get("ham3");
  FlowOptions opt;
  opt.evolve.generations = 5000;
  opt.evolve.seed = 17;
  const auto r = synthesize(b.spec, opt);
  EXPECT_LE(r.optimized_cost.n_r, r.initial_cost.n_r);
  EXPECT_TRUE(cec::sim_check(r.optimized, b.spec).all_match);
}

// FlowResult's costs are cost_of of the netlists it returns, every field,
// whichever loop optimized them.
TEST(Flow, CostsAreCostOfTheReturnedNetlists) {
  const auto b = benchmarks::get("decoder_3_8");
  FlowOptions evolve;
  evolve.evolve.generations = 500;
  FlowOptions anneal;
  anneal.algorithm = Algorithm::kAnneal;
  anneal.anneal.steps = 500;
  for (const auto& [name, opt] :
       {std::pair{"evolve", evolve}, std::pair{"anneal", anneal}}) {
    const auto r = synthesize(b.spec, opt);
    EXPECT_EQ(r.initial_cost, rqfp::cost_of(r.initial))
        << name << ": " << r.initial_cost.to_string();
    EXPECT_EQ(r.optimized_cost, rqfp::cost_of(r.optimized))
        << name << ": " << r.optimized_cost.to_string();
    EXPECT_TRUE(cec::sim_check(r.optimized, b.spec).all_match) << name;
  }
}

TEST(Flow, OptionalPhasesCanBeDisabled) {
  const auto b = benchmarks::get("4gt10");
  FlowOptions opt;
  opt.run_aig_optimization = false;
  opt.run_mig_optimization = false;
  opt.run_cgp = false;
  const auto r = synthesize(b.spec, opt);
  EXPECT_TRUE(cec::sim_check(r.initial, b.spec).all_match);
}

TEST(Flow, PhaseBreakdownPartitionsWallClock) {
  const auto b = benchmarks::get("c17");
  FlowOptions opt;
  opt.evolve.generations = 2000;
  opt.evolve.seed = 7;
  const auto r = synthesize(b.spec, opt);
  ASSERT_FALSE(r.phases.empty());
  // The CGP phase exists and dominates this run; the nested splitter timer
  // shows up as a depth-1 refinement of rqfp-map.
  EXPECT_GT(r.phase_seconds("cgp"), 0.0);
  bool saw_nested_splitter = false;
  double top_sum = 0.0;
  for (const auto& rec : r.phases) {
    EXPECT_GE(rec.seconds, 0.0);
    if (rec.depth == 0) {
      top_sum += rec.seconds;
    }
    if (rec.path == "rqfp-map/splitter") {
      EXPECT_EQ(rec.depth, 1);
      saw_nested_splitter = true;
    }
  }
  EXPECT_TRUE(saw_nested_splitter);
  // Depth-0 phases partition the flow: their sum accounts for (nearly all
  // of) seconds_total and never exceeds it by more than noise.
  EXPECT_GT(top_sum, 0.5 * r.seconds_total);
  EXPECT_LT(top_sum, 1.1 * r.seconds_total);
  EXPECT_EQ(r.phase_seconds("no-such-phase"), 0.0);
}

// λ-batched incremental evaluation, the one offspring-evaluation path:
// every child of a block must score exactly as a from-scratch evaluate(),
// and the batched PO tables must equal a from-scratch simulate(), for the
// whole λ in one block, one child per block (λ = 1), and ragged blocks.

TEST(Fitness, EvaluateDeltaBatchMatchesFromScratchEvaluate) {
  const auto b = benchmarks::get("full_adder");
  const auto base = init_netlist("full_adder");
  rqfp::SimCache cache;
  rqfp::build_sim_cache(base, cache);
  const FitnessOptions fo;

  constexpr unsigned kLambda = 6;
  std::vector<rqfp::Netlist> children(kLambda, base);
  for (unsigned k = 0; k < kLambda; ++k) {
    auto rng = util::Rng::stream(99, 1, k);
    mutate(children[k], rng);
  }

  for (const std::vector<unsigned>& blocks :
       {std::vector<unsigned>{6}, std::vector<unsigned>(6, 1),
        std::vector<unsigned>{4, 2}, std::vector<unsigned>{5, 1}}) {
    rqfp::CostCache cost;
    rqfp::DeltaBatch batch;
    unsigned first = 0;
    for (const unsigned n : blocks) {
      std::vector<const rqfp::Netlist*> ptrs;
      for (unsigned k = first; k < first + n; ++k) {
        ptrs.push_back(&children[k]);
      }
      std::vector<Fitness> got(n);
      evaluate_delta_batch(base, cache, cost, ptrs, b.spec, fo, batch, got);
      for (unsigned j = 0; j < n; ++j) {
        const rqfp::Netlist& child = children[first + j];
        const Fitness want = evaluate(child, b.spec, fo);
        const std::string what = "block of " + std::to_string(n) +
                                 ", child " + std::to_string(first + j);
        EXPECT_EQ(got[j].success_rate, want.success_rate) << what;
        EXPECT_EQ(got[j].n_r, want.n_r) << what;
        EXPECT_EQ(got[j].n_g, want.n_g) << what;
        EXPECT_EQ(got[j].n_b, want.n_b) << what;
        EXPECT_EQ(batch.children[j].po, rqfp::simulate(child)) << what;
      }
      first += n;
    }
  }

  // An undersized fitness span is rejected up front.
  std::vector<const rqfp::Netlist*> ptrs;
  for (const auto& child : children) {
    ptrs.push_back(&child);
  }
  rqfp::CostCache cost;
  rqfp::DeltaBatch batch;
  std::vector<Fitness> short_span(kLambda - 1);
  EXPECT_THROW(evaluate_delta_batch(base, cache, cost, ptrs, b.spec, fo,
                                    batch, short_span),
               std::invalid_argument);
}

} // namespace
} // namespace rcgp::core
