#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "aig/aig.hpp"
#include "aig/aig_simulate.hpp"
#include "aig/balance.hpp"
#include "aig/cuts.hpp"
#include "aig/refactor.hpp"
#include "aig/resyn.hpp"
#include "aig/rewrite.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/flow.hpp"
#include "cuts_reference.hpp"
#include "mig/mig_from_aig.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace rcgp::aig {
namespace {

/// Builds a pseudo-random AIG for property tests.
Aig random_aig(unsigned num_pis, unsigned num_nodes, unsigned num_pos,
               std::uint64_t seed) {
  util::Rng rng(seed);
  Aig net;
  std::vector<Signal> pool{net.const0()};
  for (unsigned i = 0; i < num_pis; ++i) {
    pool.push_back(net.create_pi());
  }
  for (unsigned i = 0; i < num_nodes; ++i) {
    const Signal a =
        pool[rng.below(pool.size())] ^ rng.chance(0.5);
    const Signal b =
        pool[rng.below(pool.size())] ^ rng.chance(0.5);
    pool.push_back(net.create_and(a, b));
  }
  for (unsigned i = 0; i < num_pos; ++i) {
    net.add_po(pool[rng.below(pool.size())] ^ rng.chance(0.5));
  }
  return net;
}

TEST(Aig, TrivialSimplifications) {
  Aig net;
  const Signal a = net.create_pi();
  EXPECT_EQ(net.create_and(a, net.const0()), net.const0());
  EXPECT_EQ(net.create_and(net.const1(), a), a);
  EXPECT_EQ(net.create_and(a, a), a);
  EXPECT_EQ(net.create_and(a, !a), net.const0());
  EXPECT_EQ(net.num_nodes(), 2u); // const + PI only
}

TEST(Aig, StructuralHashing) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal x = net.create_and(a, b);
  const Signal y = net.create_and(b, a); // commuted
  EXPECT_EQ(x, y);
  const Signal z = net.create_and(!a, b);
  EXPECT_NE(x, z);
  EXPECT_EQ(net.count_live_ands(), 0u); // no POs yet
  net.add_po(x);
  net.add_po(z);
  EXPECT_EQ(net.count_live_ands(), 2u);
}

TEST(Aig, DerivedGatesSimulateCorrectly) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  net.add_po(net.create_xor(a, b));
  net.add_po(net.create_or(a, b));
  net.add_po(net.create_mux(a, b, c));
  net.add_po(net.create_maj(a, b, c));
  const auto tts = simulate(net);
  const auto ta = tt::TruthTable::projection(3, 0);
  const auto tb = tt::TruthTable::projection(3, 1);
  const auto tc = tt::TruthTable::projection(3, 2);
  EXPECT_EQ(tts[0], ta ^ tb);
  EXPECT_EQ(tts[1], ta | tb);
  EXPECT_EQ(tts[2], tt::TruthTable::ite(ta, tb, tc));
  EXPECT_EQ(tts[3], tt::TruthTable::majority(ta, tb, tc));
}

TEST(Aig, ReplaceRedirectsAndCleanupDropsDead) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal x = net.create_and(a, b);
  const Signal y = net.create_and(x, a); // equals a&b
  net.add_po(y);
  net.replace(y.node(), x);
  EXPECT_EQ(net.po_at(0), x);
  const Aig clean = net.cleanup();
  EXPECT_EQ(clean.count_live_ands(), 1u);
  const auto tts = simulate(clean);
  EXPECT_EQ(tts[0], tt::TruthTable::projection(2, 0) &
                        tt::TruthTable::projection(2, 1));
}

TEST(Aig, ReplaceWithComplementPropagates) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal x = net.create_and(a, b);
  net.add_po(!x);
  net.replace(x.node(), !a); // pretend optimization proved x == !a
  EXPECT_EQ(net.po_at(0), a);
}

TEST(Aig, CleanupPreservesNamesAndInterface) {
  Aig net;
  net.create_pi("alpha");
  const Signal b = net.create_pi("beta");
  net.add_po(b, "out");
  const Aig clean = net.cleanup();
  EXPECT_EQ(clean.num_pis(), 2u);
  EXPECT_EQ(clean.pi_name(0), "alpha");
  EXPECT_EQ(clean.po_name(0), "out");
}

TEST(Aig, LevelsAndDepth) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal ab = net.create_and(a, b);
  const Signal abc = net.create_and(ab, c);
  net.add_po(abc);
  EXPECT_EQ(net.depth(), 2u);
  const auto levels = net.compute_levels();
  EXPECT_EQ(levels[ab.node()], 1u);
  EXPECT_EQ(levels[abc.node()], 2u);
}

TEST(Aig, ComputeRefsCountsFanouts) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal x = net.create_and(a, b);
  net.add_po(x);
  net.add_po(x);
  const auto refs = net.compute_refs();
  EXPECT_EQ(refs[x.node()], 2u);
  EXPECT_EQ(refs[a.node()], 1u);
}

TEST(Aig, PopNodesToRollsBackStrash) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const std::uint32_t mark = net.num_nodes();
  const Signal x = net.create_and(a, b);
  net.pop_nodes_to(mark);
  EXPECT_EQ(net.num_nodes(), mark);
  const Signal y = net.create_and(a, b);
  EXPECT_EQ(y.node(), x.node()); // id reused after rollback
}

TEST(Aig, ReplacementTableFollowsPops) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal kept = net.create_and(a, c);
  const std::uint32_t mark = net.num_nodes();
  const Signal x = net.create_and(a, b);
  net.replace(x.node(), !a);
  EXPECT_TRUE(net.is_replaced(x.node()));
  EXPECT_TRUE(net.has_replacements());
  EXPECT_EQ(net.resolve(!x), a);

  // Popping the replaced node drops its entry with it.
  net.pop_nodes_to(mark);
  EXPECT_FALSE(net.has_replacements());
  const Signal again = net.create_and(a, b);
  EXPECT_EQ(again.node(), x.node()); // id reused after rollback
  EXPECT_FALSE(net.is_replaced(again.node()));
  EXPECT_EQ(net.resolve(again), again);
  EXPECT_FALSE(net.has_replacements());

  // A replacement below the popped range survives the pop.
  net.replace(kept.node(), b);
  const Signal y = net.create_and(b, c);
  net.replace(y.node(), net.const0());
  net.pop_nodes_to(y.node());
  EXPECT_TRUE(net.has_replacements());
  EXPECT_TRUE(net.is_replaced(kept.node()));
  EXPECT_EQ(net.resolve(kept), b);
  const Signal y2 = net.create_and(b, c);
  EXPECT_EQ(y2.node(), y.node());
  EXPECT_FALSE(net.is_replaced(y2.node()));
}

// ---------- cuts ----------

TEST(Cuts, TrivialAndMergedCuts) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal ab = net.create_and(a, b);
  const Signal abc = net.create_and(ab, c);
  net.add_po(abc);
  const auto cuts = enumerate_cuts(net, {});
  // The root must have a cut {a,b,c} and the trivial cut {abc}.
  bool found_leaves = false;
  bool found_trivial = false;
  for (const auto& cut : cuts[abc.node()]) {
    if (cut.leaves == std::vector<std::uint32_t>{a.node(), b.node(),
                                                 c.node()}) {
      found_leaves = true;
    }
    if (cut.leaves == std::vector<std::uint32_t>{abc.node()}) {
      found_trivial = true;
    }
  }
  EXPECT_TRUE(found_leaves);
  EXPECT_TRUE(found_trivial);
}

TEST(Cuts, CutFunctionComputesConeSemantics) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal x = net.create_and(a, !b);
  const Signal y = net.create_and(x, c);
  net.add_po(y);
  Cut cut{{a.node(), b.node(), c.node()}};
  const auto f = cut_function(net, y.node(), cut);
  const auto expect = tt::TruthTable::projection(3, 0) &
                      ~tt::TruthTable::projection(3, 1) &
                      tt::TruthTable::projection(3, 2);
  EXPECT_EQ(f, expect);
}

// ---------- cut functions against the map walk (cuts_reference.hpp) ----------

/// A random AIG in the state rewrite_pass leaves behind: some AND nodes are
/// redirected to a constant or to an earlier signal, and later nodes read
/// through them, so cones reach the constant node.
Aig random_aig_with_replacements(unsigned num_pis, unsigned num_nodes,
                                 std::uint64_t seed) {
  Aig net = random_aig(num_pis, num_nodes, 4, seed);
  util::Rng rng(seed + 17);
  std::vector<Signal> pool{net.const0()};
  for (std::uint32_t n = 1; n < net.num_nodes(); ++n) {
    if (net.is_and(n) && n > num_pis + 1 && rng.chance(0.1)) {
      const Signal to = rng.chance(0.3)
                            ? net.const0() ^ rng.chance(0.5)
                            : Signal(static_cast<std::uint32_t>(
                                         rng.below(n)),
                                     rng.chance(0.5));
      net.replace(n, to);
    }
    pool.push_back(Signal(n, false));
  }
  for (unsigned i = 0; i < num_nodes / 2; ++i) {
    const Signal a = pool[rng.below(pool.size())] ^ rng.chance(0.5);
    const Signal b = pool[rng.below(pool.size())] ^ rng.chance(0.5);
    pool.push_back(net.create_and(a, b));
  }
  net.add_po(pool.back());
  return net;
}

/// True if `root`'s cone over `cut` reads the constant node as an inner
/// (non-leaf) fanin.
bool cone_reads_constant(const Aig& net, std::uint32_t root, const Cut& cut) {
  std::vector<std::uint32_t> stack{root};
  std::vector<bool> seen(net.num_nodes(), false);
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (seen[n] || std::binary_search(cut.leaves.begin(), cut.leaves.end(),
                                      n)) {
      continue;
    }
    seen[n] = true;
    if (n == 0) {
      return true;
    }
    if (net.is_and(n)) {
      stack.push_back(net.fanin0(n).node());
      stack.push_back(net.fanin1(n).node());
    }
  }
  return false;
}

struct CutCaseCounts {
  unsigned accepted = 0;
  unsigned rejected = 0;
  unsigned reads_constant = 0;
};

/// The library and the reference agree on `root` over `cut`: the same
/// accept/reject decision and table for try_cut_function, and a throw from
/// cut_function exactly where the reference throws.
void expect_same_cut_function(const Aig& net, std::uint32_t root,
                              const Cut& cut, CutCaseCounts* counts = nullptr) {
  const auto want = reference::try_cut_function(net, root, cut);
  const auto got = try_cut_function(net, root, cut);
  ASSERT_EQ(got.has_value(), want.has_value())
      << "root " << root << " leaves " << cut.leaves.size();
  if (want) {
    EXPECT_EQ(*got, *want) << "root " << root;
  }
  std::optional<tt::TruthTable> want_full;
  std::optional<tt::TruthTable> got_full;
  try {
    want_full = reference::cut_function(net, root, cut);
  } catch (const std::invalid_argument&) {
  }
  try {
    got_full = cut_function(net, root, cut);
  } catch (const std::invalid_argument&) {
  }
  EXPECT_EQ(got_full, want_full) << "root " << root;
  if (counts) {
    ++(want ? counts->accepted : counts->rejected);
    counts->reads_constant += want && cone_reads_constant(net, root, cut);
  }
}

TEST(Cuts, CutFunctionMatchesTheMapWalk) {
  CutCaseCounts counts;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Aig net = random_aig_with_replacements(
        4 + static_cast<unsigned>(seed), 90, seed);
    const auto cuts = enumerate_cuts(net, {});
    util::Rng rng(seed + 99);
    std::vector<std::uint32_t> roots;
    for (std::uint32_t n = 0; n < net.num_nodes(); ++n) {
      if (!net.is_and(n) || net.is_replaced(n)) {
        continue;
      }
      roots.push_back(n);
      // Every enumerated 2-4-leaf cut of its own root.
      for (const auto& cut : cuts[n]) {
        if (cut.leaves.size() >= 2) {
          expect_same_cut_function(net, n, cut, &counts);
        }
      }
      // Reconvergent cuts up to refactor's 10 leaves, and one wider.
      for (const unsigned k : {4u, 6u, 8u, 10u, 12u}) {
        expect_same_cut_function(net, n, reconvergent_cut(net, n, k),
                                 &counts);
      }
    }
    // Cuts applied to other roots: most cones escape, some do not.
    for (int i = 0; i < 300; ++i) {
      const std::uint32_t root = roots[rng.below(roots.size())];
      const std::uint32_t other = roots[rng.below(roots.size())];
      const auto& list = cuts[other];
      expect_same_cut_function(net, root, list[rng.below(list.size())],
                               &counts);
      expect_same_cut_function(net, root, reconvergent_cut(net, other, 10),
                               &counts);
    }
  }
  // The corpus holds accepted cones, escaping ones, and accepted cones
  // that read the constant node.
  EXPECT_GT(counts.accepted, 1000u);
  EXPECT_GT(counts.rejected, 500u);
  EXPECT_GT(counts.reads_constant, 20u);

  // Cones at the 256-node cap: a chain of exactly `length` AND nodes over
  // three PIs, whose cut of the PIs is legal and whose cone is the chain.
  for (const unsigned length : {256u, 257u}) {
    Aig net;
    std::vector<Signal> pis;
    for (int i = 0; i < 3; ++i) {
      pis.push_back(net.create_pi());
    }
    util::Rng rng(length);
    Signal x = net.create_and(pis[0], pis[1]);
    for (unsigned i = 1; i < length; ++i) {
      x = net.create_and(x, pis[rng.below(3)] ^ rng.chance(0.5));
    }
    net.add_po(x);
    const Cut cut{{pis[0].node(), pis[1].node(), pis[2].node()}};
    expect_same_cut_function(net, x.node(), cut);
    EXPECT_EQ(try_cut_function(net, x.node(), cut).has_value(),
              length <= 256u);
  }
}

TEST(Cuts, LeafCountRespected) {
  const Aig net = random_aig(8, 60, 3, 5);
  CutParams params;
  params.max_leaves = 4;
  const auto cuts = enumerate_cuts(net, params);
  for (std::uint32_t n = 0; n < net.num_nodes(); ++n) {
    for (const auto& cut : cuts[n]) {
      EXPECT_LE(cut.leaves.size(), 4u);
      EXPECT_TRUE(std::is_sorted(cut.leaves.begin(), cut.leaves.end()));
    }
  }
}

TEST(Cuts, DominatedCutsFiltered) {
  Cut small{{1, 2}};
  Cut big{{1, 2, 3}};
  EXPECT_TRUE(small.dominates(big));
  EXPECT_FALSE(big.dominates(small));
}

TEST(Cuts, ReconvergentCutStaysBounded) {
  const Aig net = random_aig(6, 50, 2, 13);
  for (std::uint32_t n = 0; n < net.num_nodes(); ++n) {
    if (!net.is_and(n)) {
      continue;
    }
    const Cut cut = reconvergent_cut(net, n, 6);
    EXPECT_LE(cut.leaves.size(), 6u);
    EXPECT_GE(cut.leaves.size(), 1u);
    // Cut function over its own cut must be computable (no escape).
    const auto f = try_cut_function(net, n, cut);
    EXPECT_TRUE(f.has_value());
  }
}

// ---------- optimization passes ----------

class PassEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PassEquivalence, RewritePreservesFunction) {
  Aig net = random_aig(6, 80, 4, GetParam());
  const auto before = simulate(net);
  rewrite_pass(net);
  const auto after = simulate(net);
  EXPECT_EQ(before, after);
}

TEST_P(PassEquivalence, RefactorPreservesFunction) {
  Aig net = random_aig(6, 80, 4, GetParam() + 1000);
  const auto before = simulate(net);
  refactor_pass(net);
  const auto after = simulate(net);
  EXPECT_EQ(before, after);
}

TEST_P(PassEquivalence, BalancePreservesFunction) {
  Aig net = random_aig(6, 80, 4, GetParam() + 2000);
  const auto before = simulate(net);
  const Aig balanced = balance(net);
  const auto after = simulate(balanced);
  EXPECT_EQ(before, after);
}

TEST_P(PassEquivalence, Resyn2PreservesFunctionAndNeverGrows) {
  Aig net = random_aig(7, 120, 5, GetParam() + 3000);
  const auto before = simulate(net);
  ResynStats stats;
  const Aig optimized = resyn2(net, &stats);
  EXPECT_EQ(before, simulate(optimized));
  EXPECT_LE(stats.ands_after, stats.ands_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PassEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// ---------- the front end's output, pinned ----------

void append_signal(std::string& out, std::uint32_t code) {
  out += std::to_string(code);
  out += ' ';
}

/// Node array (kind and raw fanin codes, in id order) and POs as text.
std::string describe(const Aig& net) {
  std::string s = "aig " + std::to_string(net.num_pis()) + '\n';
  for (std::uint32_t n = 0; n < net.num_nodes(); ++n) {
    append_signal(s, net.node(n).kind);
    append_signal(s, net.node(n).fanin0.code());
    append_signal(s, net.node(n).fanin1.code());
  }
  s += "\npo ";
  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    append_signal(s, net.po_at(i).code());
  }
  return s + '\n';
}

std::string describe(const mig::Mig& net) {
  std::string s = "mig " + std::to_string(net.num_pis()) + '\n';
  for (std::uint32_t n = 0; n < net.num_nodes(); ++n) {
    append_signal(s, net.node(n).kind);
    for (const mig::Signal f : net.node(n).fanin) {
      append_signal(s, f.code());
    }
  }
  s += "\npo ";
  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    append_signal(s, net.po_at(i).code());
  }
  return s + '\n';
}

/// resyn2 of the row's factored spec and the MIG built from it.
std::string front_end_output(const std::string& row) {
  const auto bench = benchmarks::get(row);
  const Aig optimized = resyn2(core::aig_from_tables(bench.spec));
  return describe(optimized) + describe(mig::mig_from_aig(optimized));
}

TEST(Resyn2, OutputDigestIsPinned) {
  // CRC32 over every row's front-end output, as the table-object ISOP,
  // hash-map cut function and hash-map replacement table produced it: the
  // cube order and the create_and sequence are part of the output.
  std::uint32_t crc = 0;
  for (const std::string& row : benchmarks::all_names()) {
    crc = util::crc32(row + '\n' + front_end_output(row), crc);
  }
  EXPECT_EQ(benchmarks::all_names().size(), 20u);
  EXPECT_EQ(crc, 0xd8d78c1fu);
}

TEST(Resyn2, ConcurrentCallsAgree) {
  // resyn2 runs concurrently in batch, serve and island workers: it must
  // keep no process-wide state. ThreadSanitizer watches this test in CI.
  const std::vector<std::string> rows{"hwb8", "intdiv8"};
  std::vector<std::string> serial;
  for (const auto& row : rows) {
    serial.push_back(front_end_output(row));
  }
  std::vector<std::vector<std::string>> got(
      8, std::vector<std::string>(rows.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t r = 0; r < rows.size(); ++r) {
        // Half the threads take the rows in the other order.
        const std::size_t i = t % 2 ? rows.size() - 1 - r : r;
        got[t][i] = front_end_output(rows[i]);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (std::size_t t = 0; t < got.size(); ++t) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      EXPECT_EQ(got[t][r], serial[r]) << "thread " << t << " " << rows[r];
    }
  }
}

TEST(Balance, ReducesChainDepth) {
  Aig net;
  std::vector<Signal> pis;
  for (int i = 0; i < 8; ++i) {
    pis.push_back(net.create_pi());
  }
  Signal acc = pis[0];
  for (int i = 1; i < 8; ++i) {
    acc = net.create_and(acc, pis[i]); // depth-7 chain
  }
  net.add_po(acc);
  EXPECT_EQ(net.depth(), 7u);
  const Aig balanced = balance(net);
  EXPECT_EQ(balanced.depth(), 3u); // ceil(log2(8))
  EXPECT_EQ(simulate(net), simulate(balanced));
}

TEST(Rewrite, RemovesRedundantLogic) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  // (a&b) | (a&c) -> a & (b|c): 3 ANDs to 2.
  const Signal ab = net.create_and(a, b);
  const Signal ac = net.create_and(a, c);
  net.add_po(net.create_or(ab, ac));
  const std::uint32_t before = net.count_live_ands();
  RewriteParams params;
  const auto stats = rewrite_pass(net, params);
  const Aig clean = net.cleanup();
  EXPECT_LE(clean.count_live_ands(), before);
  EXPECT_GT(stats.attempts, 0u);
  const auto tts = simulate(clean);
  const auto expect = tt::TruthTable::projection(3, 0) &
                      (tt::TruthTable::projection(3, 1) |
                       tt::TruthTable::projection(3, 2));
  EXPECT_EQ(tts[0], expect);
}

TEST(BuildFactored, ReconstructsFunctions) {
  util::Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    tt::TruthTable f(4);
    f.set_word(0, rng.next());
    Aig net;
    std::vector<Signal> pis;
    for (int i = 0; i < 4; ++i) {
      pis.push_back(net.create_pi());
    }
    const Signal s = build_factored(net, f, pis);
    net.add_po(s);
    EXPECT_EQ(simulate(net)[0], f) << round;
  }
}

TEST(GainManager, MeasuresMffc) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal ab = net.create_and(a, b);
  const Signal abc = net.create_and(ab, c);
  net.add_po(abc);
  GainManager gm(net);
  // abc's MFFC contains both AND nodes (ab has no other fanout).
  EXPECT_EQ(gm.deref_mffc(abc.node()), 2u);
  gm.ref_mffc(abc.node());
  EXPECT_EQ(gm.refs(ab.node()), 1u);
}

TEST(GainManager, SharedNodesNotInMffc) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal ab = net.create_and(a, b);
  const Signal x = net.create_and(ab, c);
  net.add_po(x);
  net.add_po(ab); // ab now shared
  GainManager gm(net);
  EXPECT_EQ(gm.deref_mffc(x.node()), 1u); // only x itself
  gm.ref_mffc(x.node());
}

} // namespace
} // namespace rcgp::aig
