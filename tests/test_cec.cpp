#include <gtest/gtest.h>

#include "cec/sat_cec.hpp"
#include "cec/sim_cec.hpp"
#include "fuzz/generator.hpp"
#include "rqfp/simulate.hpp"
#include "util/rng.hpp"

namespace rcgp::cec {
namespace {

rqfp::Netlist and_netlist() {
  rqfp::Netlist net(2);
  const auto g = net.add_gate({1, 2, rqfp::kConstPort},
                              rqfp::InvConfig::from_rows(5, 6, 4));
  net.add_po(net.port_of(g, 2));
  return net;
}

rqfp::Netlist or_netlist() {
  rqfp::Netlist net(2);
  // M(a, b, 1): no inversions on row 2, constant stays 1.
  const auto g = net.add_gate({1, 2, rqfp::kConstPort},
                              rqfp::InvConfig::from_rows(1, 2, 0));
  net.add_po(net.port_of(g, 2));
  return net;
}

std::vector<tt::TruthTable> and_spec() {
  return {tt::TruthTable::projection(2, 0) & tt::TruthTable::projection(2, 1)};
}

TEST(SimCec, ExactMatch) {
  const auto r = sim_check(and_netlist(), and_spec());
  EXPECT_TRUE(r.all_match);
  EXPECT_DOUBLE_EQ(r.success_rate, 1.0);
  EXPECT_EQ(r.total_bits, 4u);
}

TEST(SimCec, CountsMismatches) {
  const auto spec = and_spec();
  const auto r = sim_check(or_netlist(), spec);
  EXPECT_FALSE(r.all_match);
  // AND vs OR differ on 01 and 10: 2 of 4 bits.
  EXPECT_EQ(r.mismatching_bits, 2u);
  EXPECT_DOUBLE_EQ(r.success_rate, 0.5);
}

TEST(SimCec, PoCountMismatchThrows) {
  std::vector<tt::TruthTable> two(2, tt::TruthTable(2));
  EXPECT_THROW(sim_check(and_netlist(), two), std::invalid_argument);
}

TEST(SimCec, AgreesFieldByFieldWithScoringTheReferenceSimulation) {
  // sim_check simulates into a reused row buffer; rqfp::simulate stays the
  // independent reference. At 1-10 PIs (sub-word rows up to 16 words),
  // against a netlist's own tables and with one bit per PO flipped.
  fuzz::NetlistShape shape;
  shape.min_pis = 1;
  shape.max_pis = 10;
  for (std::uint64_t c = 0; c < 500; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    util::Rng rng = util::Rng::stream(2024, c, 0);
    const rqfp::Netlist net = fuzz::random_netlist(rng, shape);
    std::vector<tt::TruthTable> spec = rqfp::simulate(net);
    for (const bool flipped : {false, true}) {
      if (flipped) {
        for (tt::TruthTable& t : spec) {
          const std::uint64_t bit = rng.below(t.num_bits());
          t.set_bit(bit, !t.bit(bit));
        }
      }
      const SimResult want = sim_compare(rqfp::simulate(net), spec);
      const SimResult got = sim_check(net, spec);
      EXPECT_EQ(got.mismatching_bits, want.mismatching_bits);
      EXPECT_EQ(got.total_bits, want.total_bits);
      EXPECT_EQ(got.success_rate, want.success_rate);
      EXPECT_EQ(got.all_match, want.all_match);
      EXPECT_EQ(got.mismatching_bits, flipped ? spec.size() : 0u);
    }
  }
}

TEST(SatCec, EquivalentAgainstSpec) {
  const auto r = sat_check(and_netlist(), and_spec());
  EXPECT_EQ(r.verdict, CecVerdict::kEquivalent);
  EXPECT_FALSE(r.counterexample.has_value());
}

TEST(SatCec, NotEquivalentProducesCounterexample) {
  const auto spec = and_spec();
  const auto r = sat_check(or_netlist(), spec);
  ASSERT_EQ(r.verdict, CecVerdict::kNotEquivalent);
  ASSERT_TRUE(r.counterexample.has_value());
  // The counterexample must actually distinguish the two functions.
  const auto cex = *r.counterexample;
  const auto outs = rqfp::evaluate(or_netlist(), cex);
  EXPECT_NE(outs[0], spec[0].bit(cex));
}

TEST(SatCec, NetlistVsNetlist) {
  EXPECT_EQ(sat_check(and_netlist(), and_netlist()).verdict,
            CecVerdict::kEquivalent);
  EXPECT_EQ(sat_check(and_netlist(), or_netlist()).verdict,
            CecVerdict::kNotEquivalent);
}

TEST(SatCec, StructurallyDifferentButEquivalent) {
  // AND(a,b) vs !OR(!a,!b) (rows complemented appropriately).
  rqfp::Netlist de_morgan(2);
  // M(!a, !b, 1) inverted at the output: row2 = invert a, b, and the
  // constant twice -> equal to !(a|b)? Build it as !( !a | !b ) = a & b:
  // first gate computes OR of complements, second inverts.
  const auto g0 = de_morgan.add_gate({1, 2, rqfp::kConstPort},
                                     rqfp::InvConfig::from_rows(0, 0, 3));
  // row 2 inverts inputs 0 and 1: M(!a, !b, 1) = !a | !b.
  const auto g1 =
      de_morgan.add_gate({rqfp::kConstPort, de_morgan.port_of(g0, 2),
                          rqfp::kConstPort},
                         rqfp::InvConfig::from_rows(6, 6, 6));
  // inverter: M(1, !x, 0) = !x.
  de_morgan.add_po(de_morgan.port_of(g1, 0));
  const auto sim = sim_check(de_morgan, and_spec());
  ASSERT_TRUE(sim.all_match);
  EXPECT_EQ(sat_check(de_morgan, and_netlist()).verdict,
            CecVerdict::kEquivalent);
}

TEST(SatCec, EncodeTableHandlesConstants) {
  std::vector<tt::TruthTable> spec{tt::TruthTable::constant(2, true)};
  rqfp::Netlist net(2);
  net.add_po(rqfp::kConstPort);
  EXPECT_EQ(sat_check(net, spec).verdict, CecVerdict::kEquivalent);
  spec[0] = tt::TruthTable::constant(2, false);
  EXPECT_EQ(sat_check(net, spec).verdict, CecVerdict::kNotEquivalent);
}

TEST(SatCec, InterfaceMismatchThrows) {
  rqfp::Netlist a(2);
  a.add_po(1);
  rqfp::Netlist b(3);
  b.add_po(1);
  EXPECT_THROW(sat_check(a, b), std::invalid_argument);
}

TEST(SatCec, RandomNetlistsAgreeWithSimulation) {
  util::Rng rng(7);
  for (int round = 0; round < 15; ++round) {
    // Random legal netlist against its own simulated spec: must be
    // equivalent; against a perturbed spec: must not be.
    rqfp::Netlist net(3);
    std::vector<rqfp::Port> avail{1, 2, 3};
    for (int g = 0; g < 5; ++g) {
      std::array<rqfp::Port, 3> in{};
      for (auto& p : in) {
        const auto pick = rng.below(avail.size() + 1);
        p = pick == avail.size() ? rqfp::kConstPort : avail[pick];
      }
      const auto id = net.add_gate(
          in, rqfp::InvConfig(static_cast<std::uint16_t>(rng.below(512))));
      for (unsigned k = 0; k < 3; ++k) {
        avail.push_back(net.port_of(id, k));
      }
    }
    net.add_po(avail[rng.below(avail.size())]);
    auto spec = rqfp::simulate(net);
    EXPECT_EQ(sat_check(net, spec).verdict, CecVerdict::kEquivalent)
        << round;
    spec[0].set_bit(rng.below(8), !spec[0].bit(rng.below(8)));
    const auto r = sat_check(net, spec);
    if (r.verdict == CecVerdict::kNotEquivalent) {
      ASSERT_TRUE(r.counterexample.has_value());
    }
  }
}

} // namespace
} // namespace rcgp::cec
