#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "aig/aig_simulate.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/chromosome.hpp"
#include "core/fitness.hpp"
#include "core/flow.hpp"
#include "core/mutation.hpp"
#include "core/shrink.hpp"
#include "fuzz/generator.hpp"
#include "mig/mig_from_aig.hpp"
#include "obs/metrics.hpp"
#include "rqfp/buffer.hpp"
#include "rqfp/catalog.hpp"
#include "rqfp/cost.hpp"
#include "rqfp/reversibility.hpp"
#include "rqfp/gate.hpp"
#include "rqfp/map_from_mig.hpp"
#include "rqfp/netlist.hpp"
#include "rqfp/simd.hpp"
#include "rqfp/simulate.hpp"
#include "rqfp/splitter.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace rcgp::rqfp {
namespace {

TEST(InvConfig, BitLayoutAndRows) {
  const auto cfg = InvConfig::from_rows(0b001, 0b010, 0b100);
  EXPECT_TRUE(cfg.inverts(0, 0));
  EXPECT_FALSE(cfg.inverts(0, 1));
  EXPECT_TRUE(cfg.inverts(1, 1));
  EXPECT_TRUE(cfg.inverts(2, 2));
  EXPECT_EQ(cfg.row(0), 0b001u);
  EXPECT_EQ(cfg.row(1), 0b010u);
  EXPECT_EQ(cfg.row(2), 0b100u);
  EXPECT_EQ(cfg, InvConfig::reversible());
}

TEST(InvConfig, StringRoundTrip) {
  const auto cfg = InvConfig::from_rows(0b101, 0b100, 0b000);
  const std::string s = cfg.to_string();
  EXPECT_EQ(s.size(), 11u);
  EXPECT_EQ(InvConfig::parse(s), cfg);
  EXPECT_THROW(InvConfig::parse("101-1000-00"), std::invalid_argument);
  EXPECT_THROW(InvConfig::parse("101x100x000"), std::invalid_argument);
}

TEST(InvConfig, WithFlipTogglesOneSlot) {
  InvConfig cfg;
  for (unsigned slot = 0; slot < 9; ++slot) {
    const auto flipped = cfg.with_flip(slot);
    EXPECT_TRUE(flipped.inverts(slot / 3, slot % 3));
    EXPECT_EQ(flipped.with_flip(slot), cfg);
  }
}

TEST(Gate, NormalReversibleGateIsBijective) {
  // The normal RQFP gate R(a,b,c) = {M(!a,b,c), M(a,!b,c), M(a,b,!c)}
  // must be a bijection on 3 bits (paper §2.1).
  const auto cfg = InvConfig::reversible();
  std::vector<bool> seen(8, false);
  for (unsigned x = 0; x < 8; ++x) {
    const auto out = eval_gate_words(cfg, (x & 1) ? ~0ull : 0,
                                     (x & 2) ? ~0ull : 0, (x & 4) ? ~0ull : 0);
    const unsigned y = (out[0] & 1) | ((out[1] & 1) << 1) |
                       ((out[2] & 1) << 2);
    EXPECT_FALSE(seen[y]) << "collision at input " << x;
    seen[y] = true;
  }
}

TEST(Gate, SplitterCopiesItsMiddleInput) {
  // R(1, a, 0) = {a, a, a} with the splitter configuration.
  const auto cfg = InvConfig::splitter();
  for (const std::uint64_t a : {0ull, ~0ull}) {
    const auto out = eval_gate_words(cfg, ~0ull, a, ~0ull);
    for (unsigned k = 0; k < 3; ++k) {
      EXPECT_EQ(out[k], a);
    }
  }
}

TEST(Gate, AndRealizationFromPaper) {
  // R(a, b, 1) with the normal configuration: output 2 = M(a,b,0) = a&b,
  // output 0 = !a|b, output 1 = a|!b (paper §3.1 example).
  const auto cfg = InvConfig::reversible();
  for (unsigned x = 0; x < 4; ++x) {
    const std::uint64_t a = (x & 1) ? ~0ull : 0;
    const std::uint64_t b = (x & 2) ? ~0ull : 0;
    const auto out = eval_gate_words(cfg, a, b, ~0ull);
    EXPECT_EQ(out[2] & 1, (a & b) & 1);
    EXPECT_EQ(out[0] & 1, (~a | b) & 1);
    EXPECT_EQ(out[1] & 1, (a | ~b) & 1);
  }
}

TEST(Gate, TablesMatchWords) {
  util::Rng rng(5);
  for (int round = 0; round < 20; ++round) {
    const InvConfig cfg(static_cast<std::uint16_t>(rng.below(512)));
    const auto ta = tt::TruthTable::projection(3, 0);
    const auto tb = tt::TruthTable::projection(3, 1);
    const auto tc = tt::TruthTable::projection(3, 2);
    const auto tables = eval_gate_tables(cfg, ta, tb, tc);
    for (unsigned x = 0; x < 8; ++x) {
      const auto words = eval_gate_words(cfg, (x & 1) ? ~0ull : 0,
                                         (x & 2) ? ~0ull : 0,
                                         (x & 4) ? ~0ull : 0);
      for (unsigned k = 0; k < 3; ++k) {
        EXPECT_EQ(tables[k].bit(x), (words[k] & 1) != 0);
      }
    }
  }
}

TEST(Gate, AllConfigsRealizeDistinctTriples) {
  // 512 configurations; each majority has 2^3 phase choices and the output
  // triple is determined by rows, so all 512 triples must be distinct.
  std::set<std::string> seen;
  const auto ta = tt::TruthTable::projection(3, 0);
  const auto tb = tt::TruthTable::projection(3, 1);
  const auto tc = tt::TruthTable::projection(3, 2);
  for (unsigned bits = 0; bits < 512; ++bits) {
    const auto out = eval_gate_tables(InvConfig(bits), ta, tb, tc);
    seen.insert(out[0].to_hex() + out[1].to_hex() + out[2].to_hex());
  }
  EXPECT_EQ(seen.size(), 512u);
}

// ---------- Netlist ----------

Netlist single_and_netlist() {
  // R(a, b, 1) with function on output 2.
  Netlist net(2);
  const auto g = net.add_gate({1, 2, kConstPort},
                              InvConfig::from_rows(5, 6, 4));
  net.add_po(net.port_of(g, 2), "and");
  return net;
}

TEST(Netlist, PortArithmetic) {
  Netlist net(3);
  EXPECT_TRUE(net.is_const_port(0));
  EXPECT_TRUE(net.is_pi_port(2));
  EXPECT_FALSE(net.is_pi_port(0));
  EXPECT_FALSE(net.is_pi_port(4));
  EXPECT_EQ(net.first_free_port(), 4u);
  const auto g0 = net.add_gate({1, 2, 3}, InvConfig::reversible());
  EXPECT_EQ(net.port_of(g0, 0), 4u);
  EXPECT_EQ(net.port_of(g0, 2), 6u);
  EXPECT_EQ(net.gate_of_port(5), g0);
  EXPECT_EQ(net.slot_of_port(5), 1u);
  EXPECT_EQ(net.pi_of_port(2), 1u);
}

TEST(Netlist, ForwardReferenceRejected) {
  Netlist net(2);
  EXPECT_THROW(net.add_gate({1, 2, 3}, InvConfig()), std::invalid_argument);
  EXPECT_THROW(net.add_po(3), std::invalid_argument);
}

TEST(Netlist, ValidateDetectsFanoutViolation) {
  Netlist net(2);
  const auto g0 = net.add_gate({1, 2, 0}, InvConfig::reversible());
  net.add_gate({net.port_of(g0, 2), 1, 0}, InvConfig::reversible());
  // PI port 1 is consumed twice.
  EXPECT_NE(net.validate(), "");
}

TEST(Netlist, ValidateAcceptsLegalNetlist) {
  EXPECT_EQ(single_and_netlist().validate(), "");
}

TEST(Netlist, ConstPortHasUnlimitedFanout) {
  Netlist net(1);
  net.add_gate({0, 1, 0}, InvConfig::splitter());
  net.add_gate({0, net.port_of(0, 0), 0}, InvConfig::splitter());
  EXPECT_EQ(net.validate(), "");
}

TEST(Netlist, GarbageCounting) {
  const auto net = single_and_netlist();
  // Outputs 0 and 1 are unconsumed.
  EXPECT_EQ(net.count_garbage_outputs(), 2u);
}

TEST(Netlist, LevelsAndDepth) {
  Netlist net(1);
  const auto s1 = net.add_gate({0, 1, 0}, InvConfig::splitter());
  const auto s2 =
      net.add_gate({0, net.port_of(s1, 0), 0}, InvConfig::splitter());
  net.add_po(net.port_of(s2, 1));
  const auto levels = net.gate_levels();
  EXPECT_EQ(levels[s1], 1u);
  EXPECT_EQ(levels[s2], 2u);
  EXPECT_EQ(net.depth(), 2u);
}

TEST(Netlist, RemoveDeadGates) {
  Netlist net(2);
  const auto g0 = net.add_gate({1, 2, 0}, InvConfig::reversible());
  net.add_gate({0, 0, 0}, InvConfig());      // dead
  const auto g2 = net.add_gate({net.port_of(g0, 2), 0, 0},
                               InvConfig::splitter());
  net.add_po(net.port_of(g2, 0), "out");
  const auto before = simulate(net);
  const Netlist clean = net.remove_dead_gates();
  EXPECT_EQ(clean.num_gates(), 2u);
  EXPECT_EQ(simulate(clean), before);
  EXPECT_EQ(clean.po_name(0), "out");
}

TEST(Simulate, AndNetlist) {
  const auto net = single_and_netlist();
  const auto tts = simulate(net);
  EXPECT_EQ(tts[0], tt::TruthTable::projection(2, 0) &
                        tt::TruthTable::projection(2, 1));
}

TEST(Simulate, EvaluateSingleAssignments) {
  const auto net = single_and_netlist();
  EXPECT_FALSE(evaluate(net, 0b00)[0]);
  EXPECT_FALSE(evaluate(net, 0b01)[0]);
  EXPECT_FALSE(evaluate(net, 0b10)[0]);
  EXPECT_TRUE(evaluate(net, 0b11)[0]);
}

TEST(Simulate, SkippingDeadGatesMatchesEveryPortSimulation) {
  Netlist net(2);
  const auto g0 = net.add_gate({1, 2, 0}, InvConfig::reversible());
  net.add_gate({0, 0, 0}, InvConfig()); // dead gate
  net.add_po(net.port_of(g0, 2));
  SimCache all_ports;
  build_sim_cache(net, all_ports);
  const auto po = simulate(net);
  ASSERT_EQ(po.size(), 1u);
  EXPECT_EQ(po[0], all_ports.table(net.po_at(0)));
  EXPECT_EQ(po, simulate(net.remove_dead_gates()));
}

struct TierGuard {
  simd::Tier saved = simd::active_tier();
  ~TierGuard() { simd::force_tier(saved); }
};

/// Every port's table, simulated gate by gate with eval_gate_tables: the
/// reference for the row engine of SimCache and simulate_delta_batch.
std::vector<tt::TruthTable> reference_ports(const Netlist& net) {
  const unsigned nv = net.num_pis();
  std::vector<tt::TruthTable> port(net.first_free_port(),
                                   tt::TruthTable(nv));
  port[kConstPort] = tt::TruthTable::constant(nv, true);
  for (unsigned i = 0; i < nv; ++i) {
    port[1 + i] = tt::TruthTable::projection(nv, i);
  }
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    const auto& gate = net.gate(g);
    const auto out = eval_gate_tables(gate.config, port[gate.in[0]],
                                      port[gate.in[1]], port[gate.in[2]]);
    for (unsigned k = 0; k < 3; ++k) {
      port[net.port_of(g, k)] = out[k];
    }
  }
  return port;
}

/// The sim.words a delta evaluation of `child` against `base` counts: 3
/// rows for every gate whose gene differs from the base's, or whose
/// input ports carry a value in the child that differs from the base's.
std::uint64_t reference_cone_words(const Netlist& base,
                                   const Netlist& child) {
  const auto b = reference_ports(base);
  const auto c = reference_ports(child);
  std::uint64_t gates = 0;
  for (std::uint32_t g = 0; g < child.num_gates(); ++g) {
    const auto& gate = child.gate(g);
    bool evaluated = !(gate == base.gate(g));
    for (const Port p : gate.in) {
      evaluated = evaluated || !(c[p] == b[p]);
    }
    gates += evaluated ? 1 : 0;
  }
  return 3 * gates * b[kConstPort].num_words();
}

std::uint64_t sim_words() {
  return obs::registry().counter("sim.words").value();
}

TEST(Simulate, DeltaMatchesFullSimulation) {
  // Mutate one gate's config and check the dirty-cone path reproduces the
  // full re-simulation bit-for-bit without touching the cache.
  Netlist base(3);
  const auto g0 = base.add_gate({1, 2, 0}, InvConfig::reversible());
  const auto g1 =
      base.add_gate({base.port_of(g0, 0), 3, 0}, InvConfig::reversible());
  base.add_po(base.port_of(g1, 2));
  base.add_po(base.port_of(g0, 1));

  SimCache cache;
  build_sim_cache(base, cache);
  const auto cached_rows = cache.rows;

  Netlist child = base;
  child.gate(0).config = InvConfig(0x155);
  DeltaBatch batch;
  simulate_delta_batch(base, {&child}, cache, batch);
  EXPECT_EQ(batch.children[0].po, simulate(child));
  // Read-only evaluation: the cache still describes `base` afterwards.
  EXPECT_EQ(cache.rows, cached_rows);

  // Committing the drift re-bases the cache onto the child.
  update_sim_cache(base, child, cache);
  SimCache fresh;
  build_sim_cache(child, fresh);
  EXPECT_EQ(cache.rows, fresh.rows);
}

TEST(Simulate, DeltaBatchMatchesFullSimulationAtEveryWidth) {
  // 3..10 PIs give rows of 1, 2, 4, 8 and 16 words; every SIMD tier runs
  // them; whole, one-child and ragged blocks each hold the unmutated
  // child 0. One DeltaBatch serves every base, whose PI and gate counts
  // differ, so a flag or row left stale by an earlier call would show.
  TierGuard guard;
  util::Rng rng(2026);
  DeltaBatch batch;
  const std::vector<std::vector<unsigned>> blocks = {
      {0, 1, 2, 3, 4}, {0}, {3, 0}, {1, 0, 4}, {4, 2, 0, 1}};
  for (const simd::Tier tier : simd::available_tiers()) {
    simd::force_tier(tier);
    for (unsigned nv = 3; nv <= 10; ++nv) {
      fuzz::NetlistShape shape;
      shape.min_pis = nv;
      shape.max_pis = nv;
      shape.min_gates = 4;
      shape.max_gates = 40;
      const Netlist base = fuzz::random_netlist(rng, shape);
      std::vector<Netlist> children(5, base);
      for (std::size_t k = 1; k < children.size(); ++k) {
        core::MutationParams mp;
        mp.mu = k % 2 == 0 ? 1.0 : 0.05;
        core::mutate(children[k], rng, mp);
      }
      SimCache cache;
      build_sim_cache(base, cache);
      const auto rows = cache.rows;
      for (const auto& block : blocks) {
        std::vector<const Netlist*> ptrs;
        std::uint64_t want_words = 0;
        for (const unsigned k : block) {
          ptrs.push_back(&children[k]);
          want_words += reference_cone_words(base, children[k]);
        }
        const std::uint64_t before = sim_words();
        simulate_delta_batch(base, ptrs, cache, batch);
        const std::string what = std::string(simd::to_string(tier)) + ", " +
                                 std::to_string(nv) + " PIs, block of " +
                                 std::to_string(block.size());
        EXPECT_EQ(sim_words() - before, want_words) << what;
        for (std::size_t j = 0; j < block.size(); ++j) {
          EXPECT_EQ(batch.children[j].po, simulate(children[block[j]]))
              << what << ", child " << block[j];
        }
      }
      EXPECT_EQ(cache.rows, rows) << nv << " PIs: the base cache is read-only";

      // Committing a child costs its cone too and leaves the rows a fresh
      // build would have.
      const std::uint64_t before = sim_words();
      update_sim_cache(base, children[1], cache);
      EXPECT_EQ(sim_words() - before, reference_cone_words(base, children[1]))
          << nv << " PIs";
      SimCache fresh;
      build_sim_cache(children[1], fresh);
      EXPECT_EQ(cache.rows, fresh.rows) << nv << " PIs";
      const auto ports = reference_ports(children[1]);
      for (Port p = 0; p < children[1].first_free_port(); ++p) {
        ASSERT_EQ(cache.table(p), ports[p]) << nv << " PIs, port " << p;
      }
    }
  }
}

TEST(Simulate, DeltaReachesEveryConsumerOfASharedPort) {
  // One gate output feeding two gate inputs (add_gate does not check
  // fan-out, and strict_po_swap = false mutations leave such netlists
  // behind): changing its producer re-simulates both consumers' cones.
  Netlist base(3);
  const auto g0 = base.add_gate({1, 2, 3}, InvConfig::reversible());
  const Port shared = base.port_of(g0, 0);
  const auto g1 = base.add_gate({shared, kConstPort, base.port_of(g0, 1)},
                                InvConfig::reversible());
  const auto g2 = base.add_gate({kConstPort, shared, base.port_of(g0, 2)},
                                InvConfig::reversible());
  base.add_po(base.port_of(g1, 0));
  base.add_po(base.port_of(g2, 1));
  ASSERT_EQ(base.port_fanout()[shared], 2u);

  Netlist child = base;
  child.gate(g0).config = InvConfig::from_rows(0, 2, 4);
  const auto base_ports = reference_ports(base);
  const auto child_ports = reference_ports(child);
  ASSERT_NE(child_ports[shared], base_ports[shared]);
  ASSERT_NE(child_ports[base.port_of(g1, 0)], base_ports[base.port_of(g1, 0)]);
  ASSERT_NE(child_ports[base.port_of(g2, 1)], base_ports[base.port_of(g2, 1)]);

  SimCache cache;
  build_sim_cache(base, cache);
  DeltaBatch batch;
  const std::uint64_t before = sim_words();
  simulate_delta_batch(base, {&child}, cache, batch);
  EXPECT_EQ(sim_words() - before, 3u * 3u); // g0, g1 and g2, one word each
  EXPECT_EQ(batch.children[0].po, simulate(child));

  // The commit re-simulates both consumers: going back is exact too.
  update_sim_cache(base, child, cache);
  SimCache fresh;
  build_sim_cache(child, fresh);
  EXPECT_EQ(cache.rows, fresh.rows);
  simulate_delta_batch(child, {&base}, cache, batch);
  EXPECT_EQ(batch.children[0].po, simulate(base));
}

TEST(Simulate, DeltaMatchesEvaluateAlongAPermissivePoSwapWalk) {
  // strict_po_swap = false lets a PO move onto a port a gate reads; a
  // later input swap with that PO leaves the port feeding two gates.
  // Every child scores through evaluate_delta_batch exactly as evaluate
  // scores it, and every commit goes through update_sim_cache. The spec
  // is random, so children stay equally wrong and the walk drifts.
  util::Rng rng(7);
  fuzz::NetlistShape shape;
  shape.min_pis = 4;
  shape.max_pis = 8;
  shape.min_gates = 10;
  shape.max_gates = 30;
  shape.min_pos = 3;
  shape.max_pos = 6;
  Netlist base = fuzz::random_netlist(rng, shape);
  const auto spec =
      fuzz::random_tables(rng, base.num_pis(), base.num_pos());
  core::MutationParams mp;
  mp.strict_po_swap = false;
  const core::FitnessOptions fo;
  SimCache sim;
  build_sim_cache(base, sim);
  CostCache cost;
  build_cost_cache(base, fo.schedule, cost);
  DeltaBatch batch;
  core::Fitness base_fit = core::evaluate(base, spec, fo);
  unsigned shared_commits = 0;
  for (int step = 0; step < 300; ++step) {
    Netlist child = base;
    core::mutate(child, rng, mp);
    const core::Fitness full = core::evaluate(child, spec, fo);
    core::Fitness delta;
    core::evaluate_delta_batch(base, sim, cost, {&child}, spec, fo, batch,
                               {&delta, 1});
    ASSERT_EQ(delta.success_rate, full.success_rate) << "step " << step;
    ASSERT_EQ(batch.children[0].po, simulate(child)) << "step " << step;
    if (!full.better_or_equal(base_fit)) {
      continue;
    }
    update_sim_cache(base, child, sim);
    update_cost_cache(base, child, cost);
    base = std::move(child);
    base_fit = full;
    SimCache fresh;
    build_sim_cache(base, fresh);
    ASSERT_EQ(sim.rows, fresh.rows) << "step " << step;
    std::vector<unsigned> reads(base.first_free_port(), 0);
    for (std::uint32_t g = 0; g < base.num_gates(); ++g) {
      for (const Port p : base.gate(g).in) {
        ++reads[p];
      }
    }
    for (Port p = base.num_pis() + 1; p < base.first_free_port(); ++p) {
      if (reads[p] > 1) {
        ++shared_commits;
        break;
      }
    }
  }
  EXPECT_GT(shared_commits, 0u) << "the walk never committed a shared port";
}

/// The netlist evolve starts from on a benchmark row: the flow's initial
/// netlist, shrunk.
Netlist evolve_start(const std::string& row) {
  core::FlowOptions opt;
  opt.run_cgp = false;
  return core::shrink(core::synthesize(benchmarks::get(row).spec, opt).initial);
}

/// The sim.words the first stage of an early-reject pass counts: one
/// word for each of the first `gates` gates whose gene differs from the
/// base's or whose inputs differ from the base's in word 0.
std::uint64_t reference_word0_cone_words(const Netlist& base,
                                         const Netlist& child,
                                         std::uint32_t gates) {
  const auto b = reference_ports(base);
  const auto c = reference_ports(child);
  std::uint64_t evaluated_gates = 0;
  for (std::uint32_t g = 0; g < gates; ++g) {
    const auto& gate = child.gate(g);
    bool evaluated = !(gate == base.gate(g));
    for (const Port p : gate.in) {
      evaluated = evaluated || c[p].data()[0] != b[p].data()[0];
    }
    evaluated_gates += evaluated ? 1 : 0;
  }
  return 3 * evaluated_gates;
}

/// The PO early reject stops `child` at: the first, in port order with
/// ties in PO order, whose word 0 in `full` (simulate(child)) differs from
/// the spec's; num_pos() when none does.
std::uint32_t reference_first_wrong_po(const Netlist& child,
                                       const std::vector<tt::TruthTable>& full,
                                       std::span<const tt::TruthTable> spec) {
  std::vector<std::uint32_t> order(child.num_pos());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return child.po_at(a) < child.po_at(b);
                   });
  for (const std::uint32_t i : order) {
    if (full[i].data()[0] != spec[i].data()[0]) {
      return i;
    }
  }
  return child.num_pos();
}

TEST(Simulate, EarlyRejectFlagsExactlyTheChildrenWrongInWord0) {
  // intdiv7, intdiv8 and intdiv10 have rows of 2, 4 and 16 words; alu (5
  // PIs, so only the low 32 bits of a row count) and mux4 (6 PIs) have
  // rows of one word, where the pass is the whole simulation. Each block
  // holds the unmutated parent, children at the row's workload μ and at
  // μ = 1, and two children whose first PO reads the constant port or
  // PI 0, which the pass checks before the first gate. The second spec
  // differs from the parent's function in the last word only, so a child
  // with wider rows can pass word 0 and still be wrong.
  DeltaBatch batch;
  for (const std::string row :
       {"intdiv7", "intdiv8", "intdiv10", "alu", "mux4"}) {
    const Netlist parent = evolve_start(row);
    SimCache cache;
    build_sim_cache(parent, cache);
    const bool one_word = cache.words == 1;
    ASSERT_EQ(one_word, row == "alu" || row == "mux4") << row;
    std::vector<Netlist> children(14, parent);
    for (std::size_t k = 1; k < 12; ++k) {
      core::MutationParams mp;
      mp.mu = k % 3 == 0 ? 1.0 : 12.0 / core::num_genes(parent);
      util::Rng rng = util::Rng::stream(26, 0, k);
      core::mutate(children[k], rng, mp);
    }
    core::reconnect_po(children[12], 0, kConstPort);
    core::reconnect_po(children[13], 0, 1);
    std::vector<const Netlist*> ptrs;
    for (const Netlist& child : children) {
      ptrs.push_back(&child);
    }
    const auto rows = cache.rows;

    std::vector<tt::TruthTable> late_spec = simulate(parent);
    late_spec[0].data()[late_spec[0].num_words() - 1] ^= 1;
    unsigned rejected = 0;
    unsigned passed = 0;
    unsigned passed_wrong = 0;
    for (const auto& spec : {benchmarks::get(row).spec, late_spec}) {
      // The first stage counts word 0 of every gate of the child's cone up
      // to the gate that drives its first wrong PO; a child with no wrong
      // PO and rows of 2+ words then counts its whole cone.
      std::vector<std::uint32_t> first_wrong;
      std::uint64_t want_words = 0;
      for (const Netlist& child : children) {
        const auto full = simulate(child);
        const std::uint32_t po = reference_first_wrong_po(child, full, spec);
        first_wrong.push_back(po);
        std::uint32_t gates = child.num_gates();
        if (po < child.num_pos()) {
          const Port p = child.po_at(po);
          gates = p < child.port_of(0, 0) ? 0 : child.gate_of_port(p) + 1;
        }
        want_words += reference_word0_cone_words(parent, child, gates);
        if (po == child.num_pos() && !one_word) {
          want_words += reference_cone_words(parent, child);
        }
      }
      const std::uint64_t before = sim_words();
      simulate_delta_batch(parent, ptrs, cache, batch, spec);
      EXPECT_EQ(sim_words() - before, want_words) << row;
      for (std::size_t k = 0; k < children.size(); ++k) {
        const std::string what = row + ", child " + std::to_string(k);
        const auto& got = batch.children[k];
        const auto full = simulate(children[k]);
        const bool wrong_in_word0 = first_wrong[k] < children[k].num_pos();
        ASSERT_EQ(got.rejected, wrong_in_word0) << what;
        if (one_word) {
          ASSERT_EQ(got.rejected, full != spec) << what;
        }
        if (got.rejected) {
          ++rejected;
          const std::uint32_t i = first_wrong[k];
          EXPECT_EQ(got.word0_mismatches,
                    std::popcount(full[i].data()[0] ^ spec[i].data()[0]))
              << what;
        } else {
          ++passed;
          EXPECT_EQ(got.word0_mismatches, 0u) << what;
          EXPECT_EQ(got.po, full) << what;
          passed_wrong += full != spec ? 1 : 0;
        }
      }
    }
    EXPECT_GT(rejected, 0u) << row;
    EXPECT_GT(passed, 0u) << row;
    if (!one_word) {
      EXPECT_GT(passed_wrong, 0u) << row << ": no child wrong past word 0";
    }

    // Without the spec the call is the single full pass: nothing
    // rejected, every table and the word count as before.
    std::uint64_t want_words = 0;
    for (const Netlist& child : children) {
      want_words += reference_cone_words(parent, child);
    }
    const std::uint64_t before = sim_words();
    simulate_delta_batch(parent, ptrs, cache, batch);
    EXPECT_EQ(sim_words() - before, want_words) << row;
    for (std::size_t k = 0; k < children.size(); ++k) {
      EXPECT_FALSE(batch.children[k].rejected) << row << ", child " << k;
      EXPECT_EQ(batch.children[k].po, simulate(children[k]))
          << row << ", child " << k;
    }
    EXPECT_EQ(cache.rows, rows) << row << ": the base cache is read-only";
  }
}

std::uint32_t crc_words(const std::uint64_t* words, std::size_t n,
                        std::uint32_t crc) {
  return util::crc32(words, n * sizeof(std::uint64_t), crc);
}

TEST(Offspring, PathDigestIsPinned) {
  // Everything an offspring is made of, as the (1+λ) loop makes it: the
  // raw offspring streams, the children mutate draws from them on every
  // row under three settings, their delta-simulated PO tables and
  // sim.words in λ = 4 blocks, and the cache rows after committing each
  // child in turn. Any change to a draw, a gene or a row fails it.
  std::string draws;
  for (std::uint64_t s = 0; s < 8; ++s) {
    util::Rng rng = util::Rng::stream(3000 + s, s, 7 * s);
    for (unsigned i = 0; i < 64; ++i) {
      draws += std::to_string(rng.next());
      // 2^63 + 1 rejects about half the draws, 2^32 + 1 almost none.
      for (const std::uint64_t bound :
           {std::uint64_t{1}, std::uint64_t{9}, std::uint64_t{1000},
            (std::uint64_t{1} << 32) + 1, (std::uint64_t{1} << 63) + 1}) {
        draws += ' ' + std::to_string(rng.below(bound));
      }
      draws += '\n';
    }
  }
  const std::uint32_t rng_crc = util::crc32(draws);

  std::uint32_t mutate_crc = 0;
  std::uint32_t batch_crc = 0;
  std::uint32_t commit_crc = 0;
  std::uint64_t row_index = 0;
  for (const std::string& row : benchmarks::all_names()) {
    const Netlist parent = evolve_start(row);
    SimCache cache;
    build_sim_cache(parent, cache);
    DeltaBatch batch;
    for (unsigned setting = 0; setting < 3; ++setting) {
      core::MutationParams mp;
      mp.mu = setting == 1 ? 12.0 / core::num_genes(parent) : 1.0;
      mp.strict_po_swap = setting != 2;
      std::vector<Netlist> children(9, parent);
      std::string genes = row + ' ' + std::to_string(setting);
      for (unsigned k = 0; k < children.size(); ++k) {
        util::Rng rng = util::Rng::stream(3000, row_index, 16 * setting + k);
        const core::MutationStats st = core::mutate(children[k], rng, mp);
        genes += '\n' + core::to_genotype_string(children[k]) + ' ' +
                 std::to_string(st.genes_changed) + ' ' +
                 std::to_string(st.swaps) + ' ' +
                 std::to_string(st.direct_assigns) + ' ' +
                 std::to_string(st.config_flips) + ' ' +
                 std::to_string(st.po_moves) + ' ' +
                 std::to_string(st.skipped_infeasible);
      }
      mutate_crc = util::crc32(genes, mutate_crc);

      // Blocks of 4, 4 and 1 against the parent's cache.
      std::string words;
      for (std::size_t b0 = 0; b0 < children.size(); b0 += 4) {
        std::vector<const Netlist*> ptrs;
        for (std::size_t k = b0; k < std::min(b0 + 4, children.size()); ++k) {
          ptrs.push_back(&children[k]);
        }
        const std::uint64_t before = sim_words();
        simulate_delta_batch(parent, ptrs, cache, batch);
        words += std::to_string(sim_words() - before) + ' ';
        for (std::size_t j = 0; j < ptrs.size(); ++j) {
          for (const tt::TruthTable& t : batch.children[j].po) {
            batch_crc = crc_words(t.data(), t.num_words(), batch_crc);
          }
        }
      }
      batch_crc = util::crc32(words, batch_crc);

      // Commit the children one after another, then go back to the
      // parent for the next setting.
      const Netlist* from = &parent;
      for (const Netlist& child : children) {
        update_sim_cache(*from, child, cache);
        commit_crc = crc_words(cache.rows.data(), cache.rows.size(),
                               commit_crc);
        from = &child;
      }
      update_sim_cache(*from, parent, cache);
    }
    ++row_index;
  }
  EXPECT_EQ(benchmarks::all_names().size(), 20u);

  EXPECT_EQ(rng_crc, 0x0c52d71fu);
  EXPECT_EQ(mutate_crc, 0x84a243cbu);
  EXPECT_EQ(batch_crc, 0x3c854d9cu);
  EXPECT_EQ(commit_crc, 0x6e7be230u);
}

class RandomNetlistProperty : public ::testing::TestWithParam<std::uint64_t> {
protected:
  Netlist random_netlist(std::uint64_t seed) {
    util::Rng rng(seed);
    const unsigned num_pis = 2 + static_cast<unsigned>(rng.below(4));
    Netlist net(num_pis);
    std::vector<Port> avail;
    for (Port p = 1; p <= num_pis; ++p) {
      avail.push_back(p);
    }
    const unsigned gates = 3 + static_cast<unsigned>(rng.below(10));
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
};

TEST_P(RandomNetlistProperty, SimulateEvaluatePatternsAgree) {
  const Netlist net = random_netlist(GetParam());
  const auto tables = simulate(net);
  // Single-assignment evaluation agrees with the tables on every input.
  for (std::uint64_t x = 0; x < (std::uint64_t{1} << net.num_pis()); ++x) {
    const auto bits = evaluate(net, x);
    for (std::uint32_t o = 0; o < net.num_pos(); ++o) {
      ASSERT_EQ(bits[o], tables[o].bit(x)) << "x=" << x << " o=" << o;
    }
  }
}

TEST_P(RandomNetlistProperty, DeadGateRemovalPreservesOutputs) {
  const Netlist net = random_netlist(GetParam() + 500);
  const auto before = simulate(net);
  const Netlist live = net.remove_dead_gates();
  EXPECT_EQ(simulate(live), before);
  EXPECT_LE(live.num_gates(), net.num_gates());
  EXPECT_EQ(live.live_gates(),
            std::vector<bool>(live.num_gates(), true));
}

TEST_P(RandomNetlistProperty, SplitterLegalizationPreservesOutputs) {
  const Netlist net = random_netlist(GetParam() + 900);
  const auto before = simulate(net);
  const Netlist legal = insert_splitters(net);
  EXPECT_EQ(legal.validate(), "");
  EXPECT_EQ(simulate(legal), before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNetlistProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                           11, 12));

// ---------- splitters ----------

TEST(Splitter, LegalizesMultiFanout) {
  Netlist raw(1);
  const auto g0 = raw.add_gate({0, 1, 0}, InvConfig::splitter());
  // Consume the same port 4 times (illegal).
  const Port p = raw.port_of(g0, 0);
  const auto g1 = raw.add_gate({p, p, 0}, InvConfig::triple(0));
  raw.add_po(raw.port_of(g1, 2));
  raw.add_po(p);
  raw.add_po(p);
  EXPECT_NE(raw.validate(), "");
  SplitterStats stats;
  const Netlist legal = insert_splitters(raw, &stats);
  EXPECT_EQ(legal.validate(), "");
  EXPECT_GT(stats.splitters_added, 0u);
  EXPECT_EQ(simulate(legal), simulate(raw));
}

TEST(Splitter, NoChangesWhenAlreadyLegal) {
  const auto net = single_and_netlist();
  SplitterStats stats;
  const Netlist out = insert_splitters(net, &stats);
  EXPECT_EQ(stats.splitters_added, 0u);
  EXPECT_EQ(out.num_gates(), net.num_gates());
}

TEST(Splitter, PiFanoutFourNeedsTwoSplitters) {
  // Matches the decoder analysis: fan-out 4 from one PI costs 2 splitters
  // (1 -> 3 -> 5 copies) with one leftover copy.
  Netlist raw(1);
  std::vector<std::uint32_t> gates;
  for (int i = 0; i < 4; ++i) {
    gates.push_back(raw.add_gate({1, 0, 0}, InvConfig::triple(0)));
  }
  for (const auto g : gates) {
    raw.add_po(raw.port_of(g, 2));
  }
  SplitterStats stats;
  const Netlist legal = insert_splitters(raw, &stats);
  EXPECT_EQ(legal.validate(), "");
  EXPECT_EQ(stats.splitters_added, 2u);
  EXPECT_EQ(stats.max_fanout_before, 4u);
}

// ---------- buffers & cost ----------

TEST(Buffer, AlignedInputsNeedNoBuffers) {
  const auto net = single_and_netlist();
  EXPECT_EQ(plan_buffers(net).total, 0u);
}

TEST(Buffer, UnbalancedPathsGetBuffers) {
  Netlist net(2);
  const auto s1 = net.add_gate({0, 1, 0}, InvConfig::splitter()); // level 1
  // Gate at level 2 whose second input is a PI (level 0): 1 buffer.
  const auto g = net.add_gate({net.port_of(s1, 0), 2, 0},
                              InvConfig::triple(0));
  net.add_po(net.port_of(g, 2));
  const BufferPlan plan = plan_buffers(net);
  EXPECT_EQ(plan.total, 1u);
  EXPECT_EQ(plan.gate_edges[g][1], 1u);
}

TEST(Buffer, PoAlignment) {
  Netlist net(2);
  const auto g1 = net.add_gate({1, 0, 0}, InvConfig::triple(0)); // level 1
  const auto g2 = net.add_gate({net.port_of(g1, 0), 2, 0},
                               InvConfig::triple(0)); // level 2
  net.add_po(net.port_of(g1, 1)); // level 1: needs 1 buffer to align
  net.add_po(net.port_of(g2, 2)); // level 2
  const BufferPlan plan = plan_buffers(net);
  EXPECT_EQ(plan.depth, 2u);
  EXPECT_EQ(plan.po_edges[0], 1u);
  EXPECT_EQ(plan.po_edges[1], 0u);
  // The second gate's PI input also needs one buffer (level 0 -> stage 1).
  EXPECT_EQ(plan.total, 2u);
}

TEST(Buffer, PlanTotalIsTheSumOfItsEdges) {
  util::Rng rng(77);
  for (int round = 0; round < 30; ++round) {
    // Random layered netlist (fan-out above one is fine here).
    Netlist net(3);
    std::vector<Port> avail{1, 2, 3};
    for (int g = 0; g < 8; ++g) {
      std::array<Port, 3> in{};
      for (auto& p : in) {
        p = rng.chance(0.25) ? kConstPort : avail[rng.below(avail.size())];
      }
      const auto id = net.add_gate(
          in, InvConfig(static_cast<std::uint16_t>(rng.below(512))));
      for (unsigned k = 0; k < 3; ++k) {
        avail.push_back(net.port_of(id, k));
      }
    }
    for (int o = 0; o < 2; ++o) {
      net.add_po(avail[rng.below(avail.size())]);
    }
    const auto plan = plan_buffers(net);
    std::uint32_t sum = 0;
    for (const auto& edges : plan.gate_edges) {
      sum += edges[0] + edges[1] + edges[2];
    }
    for (const auto b : plan.po_edges) {
      sum += b;
    }
    EXPECT_EQ(sum, plan.total) << round;
    EXPECT_EQ(plan.depth, net.depth()) << round;
  }
}

TEST(Cost, JjFormulaAndLowerBound) {
  const auto net = single_and_netlist();
  const Cost c = cost_of(net);
  EXPECT_EQ(c.n_r, 1u);
  EXPECT_EQ(c.n_b, 0u);
  EXPECT_EQ(c.jjs, 24u);
  EXPECT_EQ(c.n_d, 1u);
  EXPECT_EQ(c.n_g, 2u);
  EXPECT_EQ(garbage_lower_bound(5, 2), 3u);
  EXPECT_EQ(garbage_lower_bound(2, 4), 0u);
}

TEST(Cost, DeadGatesExcluded) {
  Netlist net(2);
  const auto g0 = net.add_gate({1, 2, 0}, InvConfig::reversible());
  net.add_gate({0, 0, 0}, InvConfig()); // dead
  net.add_po(net.port_of(g0, 2));
  const Cost c = cost_of(net);
  EXPECT_EQ(c.n_r, 1u);
}

// ---------- config catalog ----------

TEST(Catalog, RowFunctionsAreEightPhasedMajorities) {
  const ConfigCatalog catalog;
  EXPECT_EQ(catalog.row_functions().size(), 8u);
  // Every row function has an odd onset of size in {1..7}? Not relevant;
  // but each must be a majority of phased inputs and self-dual.
  for (const auto& f : catalog.row_functions()) {
    // Self-duality: f(!x) == !f(x) — majority is self-dual, phases keep it.
    tt::TruthTable flipped = f;
    for (unsigned v = 0; v < 3; ++v) {
      flipped = flipped.flip_var(v);
    }
    EXPECT_EQ(~flipped, f);
  }
}

TEST(Catalog, RowForInvertsRowFunction) {
  for (unsigned bits = 0; bits < 8; ++bits) {
    const auto f = ConfigCatalog::row_function(bits);
    const auto back = ConfigCatalog::row_for(f);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(ConfigCatalog::row_function(*back), f);
  }
  // AND is not a phased majority (it needs a constant input).
  const auto and3 = tt::TruthTable::projection(3, 0) &
                    tt::TruthTable::projection(3, 1) &
                    tt::TruthTable::projection(3, 2);
  EXPECT_FALSE(ConfigCatalog::row_for(and3).has_value());
}

TEST(Catalog, ConfigForAssemblesTriples) {
  const auto m = ConfigCatalog::row_function(0);
  const auto cfg = ConfigCatalog::config_for(
      ConfigCatalog::row_function(1), ConfigCatalog::row_function(2),
      ConfigCatalog::row_function(4));
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(*cfg, InvConfig::reversible());
  EXPECT_FALSE(ConfigCatalog::config_for(m, m, ~m & m).has_value());
  (void)m;
}

TEST(Catalog, CensusMatchesReversibilityAnalysis) {
  const ConfigCatalog catalog;
  EXPECT_EQ(catalog.num_bijective(), count_bijective_configs());
  EXPECT_EQ(catalog.num_bijective(), 192u); // regression anchor
  EXPECT_EQ(catalog.num_distinct_triples(), 512u); // all triples distinct
}

// ---------- MIG -> RQFP mapping ----------

TEST(MapFromMig, MajAndConstantsMapCorrectly) {
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  m.add_po(m.create_maj(a, b, c), "maj");
  m.add_po(m.create_and(a, b), "and");
  m.add_po(!m.create_or(b, c), "nor");
  const Netlist raw = map_from_mig(m);
  const Netlist net = insert_splitters(raw);
  EXPECT_EQ(net.validate(), "");
  const auto tts = simulate(net);
  EXPECT_EQ(tts, m.simulate());
}

TEST(MapFromMig, PackingSharesGatesAndPreservesFunction) {
  // Three majority nodes over the same fanins with different polarities:
  // with packing they must share one RQFP gate.
  mig::Mig m;
  const auto a = m.create_pi();
  const auto b = m.create_pi();
  const auto c = m.create_pi();
  m.add_po(m.create_maj(a, b, c), "m0");
  m.add_po(m.create_maj(!a, b, c), "m1");
  m.add_po(m.create_maj(a, !b, c), "m2");
  MapStats packed_stats;
  MapOptions pack;
  pack.pack_shared_fanins = true;
  const Netlist packed =
      insert_splitters(map_from_mig(m, &packed_stats, pack));
  MapStats plain_stats;
  const Netlist plain = insert_splitters(map_from_mig(m, &plain_stats));
  EXPECT_EQ(packed_stats.packed_nodes, 2u);
  EXPECT_LT(packed.num_gates(), plain.num_gates());
  EXPECT_EQ(packed.validate(), "");
  EXPECT_EQ(simulate(packed), m.simulate());
  EXPECT_EQ(simulate(plain), m.simulate());
}

class PackingEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(PackingEquivalence, FlowWithPackingStaysCorrect) {
  const auto b = benchmarks::get(GetParam());
  core::FlowOptions opt;
  opt.run_cgp = false;
  opt.pack_shared_fanins = true;
  const auto r = core::synthesize(b.spec, opt);
  EXPECT_EQ(r.initial.validate(), "") << GetParam();
  EXPECT_EQ(simulate(r.initial), std::vector<tt::TruthTable>(
                                     b.spec.begin(), b.spec.end()))
      << GetParam();
  core::FlowOptions plain = opt;
  plain.pack_shared_fanins = false;
  const auto r2 = core::synthesize(b.spec, plain);
  EXPECT_LE(r.initial_cost.n_r, r2.initial_cost.n_r) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Circuits, PackingEquivalence,
                         ::testing::Values("full_adder", "graycode4",
                                           "intdiv4", "c17", "mod5adder"));

TEST(MapFromMig, ConstantOutputs) {
  mig::Mig m;
  m.create_pi();
  m.add_po(m.const1(), "one");
  m.add_po(m.const0(), "zero");
  const Netlist net = insert_splitters(map_from_mig(m));
  EXPECT_EQ(net.validate(), "");
  const auto tts = simulate(net);
  EXPECT_TRUE(tts[0].is_constant1());
  EXPECT_TRUE(tts[1].is_constant0());
}

TEST(MapFromMig, PassThroughAndInvertedPo) {
  mig::Mig m;
  const auto a = m.create_pi();
  m.add_po(a, "buf");
  m.add_po(!a, "inv");
  const Netlist net = insert_splitters(map_from_mig(m));
  EXPECT_EQ(net.validate(), "");
  const auto tts = simulate(net);
  EXPECT_EQ(tts[0], tt::TruthTable::projection(1, 0));
  EXPECT_EQ(tts[1], ~tt::TruthTable::projection(1, 0));
}

// SIMD kernel contract (docs/SIMD.md): every tier this host can run must
// be bit-identical to the scalar gate semantics, and the table-level entry
// points must preserve the TruthTable normalization invariant (unused high
// bits of the top word stay zero) even for inverting configurations.

/// Restores whatever tier was active when the test started.
TEST(Simd, EveryTierMatchesEvalGateWords) {
  util::Rng rng(2026);
  for (const simd::Tier tier : simd::available_tiers()) {
    const auto& k = simd::kernels(tier);
    for (int rep = 0; rep < 64; ++rep) {
      const auto cfg = InvConfig::from_rows(
          static_cast<unsigned>(rng.next() & 7),
          static_cast<unsigned>(rng.next() & 7),
          static_cast<unsigned>(rng.next() & 7));
      const std::uint64_t a = rng.next();
      const std::uint64_t b = rng.next();
      const std::uint64_t c = rng.next();
      const auto want = eval_gate_words(cfg, a, b, c);
      std::uint64_t o0 = 0;
      std::uint64_t o1 = 0;
      std::uint64_t o2 = 0;
      k.gate3(cfg.bits(), &a, &b, &c, &o0, &o1, &o2, 1);
      const std::string what =
          std::string(simd::to_string(tier)) + " config " + cfg.to_string();
      EXPECT_EQ(o0, want[0]) << what;
      EXPECT_EQ(o1, want[1]) << what;
      EXPECT_EQ(o2, want[2]) << what;
    }
  }
}

TEST(Simd, EvalGateTablesIntoNormalizesSubWordTables) {
  TierGuard guard;
  util::Rng rng(11);
  for (const simd::Tier tier : simd::available_tiers()) {
    simd::force_tier(tier);
    // 2-var tables occupy 4 bits of one word; the all-inverting config
    // must not leak set bits above them.
    tt::TruthTable a(2);
    tt::TruthTable b(2);
    tt::TruthTable c(2);
    for (std::uint64_t i = 0; i < 4; ++i) {
      a.set_bit(i, rng.next() & 1);
      b.set_bit(i, rng.next() & 1);
      c.set_bit(i, rng.next() & 1);
    }
    const auto cfg = InvConfig::from_rows(7, 7, 7);
    const auto want = eval_gate_tables(cfg, a, b, c);
    tt::TruthTable o0;
    tt::TruthTable o1;
    tt::TruthTable o2;
    eval_gate_tables_into(cfg, a, b, c, o0, o1, o2);
    const std::string what(simd::to_string(tier));
    EXPECT_EQ(o0, want[0]) << what;
    EXPECT_EQ(o1, want[1]) << what;
    EXPECT_EQ(o2, want[2]) << what;
    EXPECT_EQ(o0.data()[0] >> 4, 0u) << what; // normalized high bits
    EXPECT_EQ(o1.data()[0] >> 4, 0u) << what;
    EXPECT_EQ(o2.data()[0] >> 4, 0u) << what;
  }
}

TEST(Simd, SimulationIsBitIdenticalAcrossTiers) {
  TierGuard guard;
  const auto bench = benchmarks::get("full_adder");
  core::FlowOptions opt;
  opt.run_cgp = false;
  const Netlist net = core::synthesize(bench.spec, opt).initial;

  simd::force_tier(simd::Tier::kScalar);
  const auto ref = simulate(net);
  for (const simd::Tier tier : simd::available_tiers()) {
    simd::force_tier(tier);
    const auto got = simulate(net);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i], ref[i])
          << simd::to_string(tier) << " PO " << i;
    }
  }
}

} // namespace
} // namespace rcgp::rqfp
