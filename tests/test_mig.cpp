#include <gtest/gtest.h>

#include <vector>

#include "aig/aig_simulate.hpp"
#include "mig/mig.hpp"
#include "mig/mig_from_aig.hpp"
#include "mig/mig_resub.hpp"
#include "mig/mig_rewrite.hpp"
#include "util/rng.hpp"

namespace rcgp::mig {
namespace {

Mig random_mig(unsigned num_pis, unsigned num_nodes, unsigned num_pos,
               std::uint64_t seed) {
  util::Rng rng(seed);
  Mig net;
  std::vector<Signal> pool{net.const0()};
  for (unsigned i = 0; i < num_pis; ++i) {
    pool.push_back(net.create_pi());
  }
  for (unsigned i = 0; i < num_nodes; ++i) {
    const Signal a = pool[rng.below(pool.size())] ^ rng.chance(0.5);
    const Signal b = pool[rng.below(pool.size())] ^ rng.chance(0.5);
    const Signal c = pool[rng.below(pool.size())] ^ rng.chance(0.5);
    pool.push_back(net.create_maj(a, b, c));
  }
  for (unsigned i = 0; i < num_pos; ++i) {
    net.add_po(pool[rng.below(pool.size())] ^ rng.chance(0.5));
  }
  return net;
}

aig::Aig random_aig(unsigned num_pis, unsigned num_nodes, unsigned num_pos,
                    std::uint64_t seed) {
  util::Rng rng(seed);
  aig::Aig net;
  std::vector<aig::Signal> pool{net.const0()};
  for (unsigned i = 0; i < num_pis; ++i) {
    pool.push_back(net.create_pi());
  }
  for (unsigned i = 0; i < num_nodes; ++i) {
    const aig::Signal a = pool[rng.below(pool.size())] ^ rng.chance(0.5);
    const aig::Signal b = pool[rng.below(pool.size())] ^ rng.chance(0.5);
    pool.push_back(net.create_and(a, b));
  }
  for (unsigned i = 0; i < num_pos; ++i) {
    net.add_po(pool[rng.below(pool.size())] ^ rng.chance(0.5));
  }
  return net;
}

TEST(Mig, MajorityAxiomsAtCreation) {
  Mig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  EXPECT_EQ(net.create_maj(a, a, b), a);
  EXPECT_EQ(net.create_maj(a, !a, b), b);
  EXPECT_EQ(net.create_maj(b, a, a), a);
  EXPECT_EQ(net.num_nodes(), 3u); // no MAJ created
}

TEST(Mig, AndOrViaConstants) {
  Mig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  net.add_po(net.create_and(a, b));
  net.add_po(net.create_or(a, b));
  const auto tts = net.simulate();
  const auto ta = tt::TruthTable::projection(2, 0);
  const auto tb = tt::TruthTable::projection(2, 1);
  EXPECT_EQ(tts[0], ta & tb);
  EXPECT_EQ(tts[1], ta | tb);
}

TEST(Mig, StructuralHashingUpToPermutation) {
  Mig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal x = net.create_maj(a, b, c);
  const Signal y = net.create_maj(c, a, b);
  const Signal z = net.create_maj(b, c, a);
  EXPECT_EQ(x, y);
  EXPECT_EQ(y, z);
}

TEST(Mig, InverterNormalization) {
  // M(!a,!b,!c) must hash to the complement of M(a,b,c).
  Mig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal x = net.create_maj(a, b, c);
  const Signal y = net.create_maj(!a, !b, !c);
  EXPECT_EQ(y, !x);
  EXPECT_EQ(net.count_live_majs(), 0u);
}

TEST(Mig, XorAndMuxSimulate) {
  Mig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  net.add_po(net.create_xor(a, b));
  net.add_po(net.create_mux(a, b, c));
  const auto tts = net.simulate();
  const auto ta = tt::TruthTable::projection(3, 0);
  const auto tb = tt::TruthTable::projection(3, 1);
  const auto tc = tt::TruthTable::projection(3, 2);
  EXPECT_EQ(tts[0], ta ^ tb);
  EXPECT_EQ(tts[1], tt::TruthTable::ite(ta, tb, tc));
}

TEST(Mig, CleanupDropsDeadNodes) {
  Mig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal used = net.create_and(a, b);
  net.create_or(a, b); // dead
  net.add_po(used);
  EXPECT_EQ(net.cleanup().count_live_majs(), 1u);
}

TEST(Mig, ReplaceAndSimulateThroughForwardReferences) {
  Mig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal x = net.create_and(a, b);
  net.add_po(x);
  const Signal y = net.create_or(a, b);
  net.replace(x.node(), y);
  const auto tts = net.simulate(); // must handle repl through cleanup
  EXPECT_EQ(tts[0], tt::TruthTable::projection(2, 0) |
                        tt::TruthTable::projection(2, 1));
}

TEST(Mig, DepthAndLevels) {
  Mig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal x = net.create_maj(a, b, c);
  const Signal y = net.create_maj(x, a, b);
  net.add_po(y);
  EXPECT_EQ(net.depth(), 2u);
}

class MigFromAig : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MigFromAig, ConversionPreservesFunction) {
  const aig::Aig a = random_aig(6, 60, 4, GetParam());
  const Mig m = mig_from_aig(a);
  EXPECT_EQ(aig::simulate(a), m.simulate());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigFromAig,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

TEST(MigFromAig, DetectsMajority) {
  aig::Aig a;
  const auto x = a.create_pi();
  const auto y = a.create_pi();
  const auto z = a.create_pi();
  a.add_po(a.create_maj(x, y, z));
  FromAigStats stats;
  const Mig m = mig_from_aig(a, &stats);
  EXPECT_GE(stats.detected_majorities, 1u);
  EXPECT_EQ(m.count_live_majs(), 1u);
}

TEST(MigFromAig, DetectsParityAndBuildsCompactAdder) {
  aig::Aig a;
  const auto x = a.create_pi();
  const auto y = a.create_pi();
  const auto z = a.create_pi();
  a.add_po(a.create_xor(a.create_xor(x, y), z), "sum");
  a.add_po(a.create_maj(x, y, z), "carry");
  FromAigStats stats;
  const Mig m = mig_from_aig(a, &stats);
  EXPECT_GE(stats.detected_parities, 1u);
  // The classic 3-majority full adder (carry shared with the sum).
  EXPECT_LE(m.count_live_majs(), 4u);
  const auto tts = m.simulate();
  const auto ta = tt::TruthTable::projection(3, 0);
  const auto tb = tt::TruthTable::projection(3, 1);
  const auto tc = tt::TruthTable::projection(3, 2);
  EXPECT_EQ(tts[0], ta ^ tb ^ tc);
  EXPECT_EQ(tts[1], tt::TruthTable::majority(ta, tb, tc));
}

class MigRewrite : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MigRewrite, AlgebraicRewritePreservesFunction) {
  Mig net = random_mig(6, 60, 4, GetParam());
  const auto before = net.simulate();
  MigRewriteStats stats;
  net = optimize_mig(net, &stats);
  EXPECT_EQ(before, net.simulate());
  EXPECT_LE(stats.nodes_after, stats.nodes_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigRewrite,
                         ::testing::Values(5, 15, 25, 35, 45, 55, 65, 75));

TEST(MigRewrite, AssociativityReducesDepth) {
  // M(x, u, M(y, u, z)) with a deep z: associativity can move z to the
  // top level, cutting the critical path.
  Mig net;
  const Signal u = net.create_pi();
  const Signal x = net.create_pi();
  const Signal y = net.create_pi();
  const Signal p = net.create_pi();
  const Signal q = net.create_pi();
  // z is two levels deep.
  const Signal z = net.create_maj(net.create_maj(p, q, u), p, q);
  const Signal inner = net.create_maj(y, u, z);
  net.add_po(net.create_maj(x, u, inner));
  const auto before = net.simulate();
  const auto depth_before = net.depth();
  MigRewriteStats stats;
  net = optimize_mig(net, &stats);
  EXPECT_EQ(before, net.simulate());
  EXPECT_LE(net.depth(), depth_before);
}

TEST(MigRewrite, ComplementaryAssociativityOnlyWhenSharing) {
  // M(x, u, M(y, !u, z)) rewrites the inner node to M(y, x, z) only when
  // that node already exists, so the count never grows.
  Mig net;
  const Signal u = net.create_pi();
  const Signal x = net.create_pi();
  const Signal y = net.create_pi();
  const Signal z = net.create_pi();
  const Signal shared = net.create_maj(y, x, z); // pre-existing target
  net.add_po(shared, "other_user");
  const Signal inner = net.create_maj(y, !u, z);
  net.add_po(net.create_maj(x, u, inner), "rewritten");
  const auto before = net.simulate();
  const auto count_before = net.count_live_majs();
  MigRewriteStats stats;
  net = optimize_mig(net, &stats);
  EXPECT_EQ(before, net.simulate());
  EXPECT_LE(net.count_live_majs(), count_before);
}

TEST(MigResub, MergesFunctionallyEqualNodes) {
  Mig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  // f and g compute the same function with different structure:
  // f = M(a,b,M(a,b,c)) == M(a,b,c) by associativity/majority axioms.
  const Signal inner = net.create_maj(a, b, c);
  const Signal f = net.create_maj(a, b, inner);
  net.add_po(f);
  net.add_po(inner);
  const auto before = net.simulate();
  ResubStats stats;
  const Mig swept = mig_resubstitute(net, &stats);
  EXPECT_EQ(swept.simulate(), before);
  EXPECT_GE(stats.resubstituted, 1u);
  EXPECT_EQ(swept.count_live_majs(), 1u);
}

TEST(MigResub, MergesStructurallyDistinctAnd) {
  Mig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal x = net.create_and(a, b);
  // M(a, ab, b) = ab again, but as a distinct node over {a, x, b}.
  const Signal y = net.create_maj(a, x, b);
  net.add_po(x);
  net.add_po(y);
  ASSERT_NE(x, y);
  const auto before = net.simulate();
  ResubStats stats;
  const Mig swept = mig_resubstitute(net, &stats);
  EXPECT_EQ(swept.simulate(), before);
  EXPECT_GE(stats.resubstituted, 1u);
  EXPECT_EQ(swept.count_live_majs(), 1u);
}

// Above 14 PIs the per-node tables stop being cheap, so the same duplicate
// that merges at 14 PIs comes back unmerged, node for node.
TEST(MigResub, WideNetworkIsReturnedUnmerged) {
  for (const unsigned pis : {14u, 16u}) {
    Mig net;
    std::vector<Signal> in;
    for (unsigned i = 0; i < pis; ++i) {
      in.push_back(net.create_pi());
    }
    const Signal x = net.create_and(in[0], in[pis - 1]);
    const Signal y = net.create_maj(in[0], x, in[pis - 1]); // ab again
    net.add_po(x);
    net.add_po(y);
    ASSERT_NE(x, y);
    ResubStats stats;
    const Mig swept = mig_resubstitute(net, &stats);
    EXPECT_EQ(swept.simulate(), net.simulate()) << pis;
    if (pis <= 14) {
      EXPECT_EQ(stats.resubstituted, 1u);
      EXPECT_EQ(swept.count_live_majs(), 1u);
      continue;
    }
    EXPECT_EQ(stats.resubstituted, 0u);
    EXPECT_EQ(stats.nodes_after, stats.nodes_before);
    ASSERT_EQ(swept.num_nodes(), net.num_nodes());
    for (std::uint32_t n = 0; n < net.num_nodes(); ++n) {
      ASSERT_EQ(swept.node(n).kind, net.node(n).kind) << n;
      for (unsigned i = 0; net.is_maj(n) && i < 3; ++i) {
        EXPECT_EQ(swept.fanin(n, i), net.fanin(n, i)) << n;
      }
    }
    for (std::uint32_t o = 0; o < net.num_pos(); ++o) {
      EXPECT_EQ(swept.po_at(o), net.po_at(o)) << o;
    }
  }
}

class MigResubProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MigResubProperty, PreservesFunctionAndNeverGrows) {
  const Mig net = random_mig(5, 60, 4, GetParam());
  ResubStats stats;
  const Mig swept = mig_resubstitute(net, &stats);
  EXPECT_EQ(swept.simulate(), net.simulate());
  EXPECT_LE(stats.nodes_after, stats.nodes_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigResubProperty,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

TEST(MigRewrite, DistributivitySharesCommonPair) {
  Mig net;
  const Signal x = net.create_pi();
  const Signal y = net.create_pi();
  const Signal u = net.create_pi();
  const Signal v = net.create_pi();
  const Signal z = net.create_pi();
  const Signal f = net.create_maj(x, y, u);
  const Signal g = net.create_maj(x, y, v);
  net.add_po(net.create_maj(f, g, z));
  const auto before = net.simulate();
  MigRewriteStats stats;
  net = optimize_mig(net, &stats);
  EXPECT_EQ(before, net.simulate());
  EXPECT_LE(net.count_live_majs(), 2u);
}

} // namespace
} // namespace rcgp::mig
