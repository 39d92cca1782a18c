#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "isop_reference.hpp"
#include "npn_reference.hpp"
#include "tt/isop.hpp"
#include "tt/npn.hpp"
#include "tt/truth_table.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace rcgp::tt {
namespace {

TruthTable random_table(unsigned vars, util::Rng& rng) {
  TruthTable t(vars);
  for (std::size_t w = 0; w < t.num_words(); ++w) {
    t.set_word(w, rng.next());
  }
  return t;
}

TEST(TruthTable, ConstantTables) {
  for (unsigned v : {0u, 1u, 3u, 6u, 8u}) {
    const auto zero = TruthTable::constant(v, false);
    const auto one = TruthTable::constant(v, true);
    EXPECT_TRUE(zero.is_constant0());
    EXPECT_TRUE(one.is_constant1());
    EXPECT_EQ(zero.count_ones(), 0u);
    EXPECT_EQ(one.count_ones(), one.num_bits());
    EXPECT_EQ(~zero, one);
  }
}

TEST(TruthTable, ProjectionBits) {
  for (unsigned nv : {1u, 3u, 6u, 7u}) {
    for (unsigned v = 0; v < nv; ++v) {
      const auto p = TruthTable::projection(nv, v);
      for (std::uint64_t x = 0; x < p.num_bits(); ++x) {
        EXPECT_EQ(p.bit(x), ((x >> v) & 1) != 0)
            << "nv=" << nv << " v=" << v << " x=" << x;
      }
    }
  }
}

TEST(TruthTable, ProjectionOutOfRangeThrows) {
  EXPECT_THROW(TruthTable::projection(3, 3), std::invalid_argument);
}

TEST(TruthTable, TooManyVarsThrows) {
  EXPECT_THROW(TruthTable(TruthTable::kMaxVars + 1), std::invalid_argument);
}

TEST(TruthTable, SetAndGetBits) {
  TruthTable t(7);
  t.set_bit(0, true);
  t.set_bit(77, true);
  t.set_bit(127, true);
  EXPECT_TRUE(t.bit(0));
  EXPECT_TRUE(t.bit(77));
  EXPECT_TRUE(t.bit(127));
  EXPECT_EQ(t.count_ones(), 3u);
  t.set_bit(77, false);
  EXPECT_FALSE(t.bit(77));
  EXPECT_EQ(t.count_ones(), 2u);
}

TEST(TruthTable, BooleanOperators) {
  util::Rng rng(1);
  for (unsigned nv : {2u, 5u, 6u, 8u}) {
    const auto a = random_table(nv, rng);
    const auto b = random_table(nv, rng);
    const auto both = a & b;
    const auto either = a | b;
    const auto diff = a ^ b;
    for (std::uint64_t x = 0; x < a.num_bits(); ++x) {
      EXPECT_EQ(both.bit(x), a.bit(x) && b.bit(x));
      EXPECT_EQ(either.bit(x), a.bit(x) || b.bit(x));
      EXPECT_EQ(diff.bit(x), a.bit(x) != b.bit(x));
    }
    // De Morgan.
    EXPECT_EQ(~(a & b), ~a | ~b);
    EXPECT_EQ(~(a | b), ~a & ~b);
  }
}

TEST(TruthTable, ArityMismatchThrows) {
  const auto a = TruthTable::constant(3, true);
  const auto b = TruthTable::constant(4, true);
  EXPECT_THROW(a & b, std::invalid_argument);
  EXPECT_THROW(a.hamming_distance(b), std::invalid_argument);
}

TEST(TruthTable, MajorityDefinition) {
  for (unsigned nv : {3u, 6u, 7u}) {
    util::Rng rng(nv);
    const auto a = random_table(nv, rng);
    const auto b = random_table(nv, rng);
    const auto c = random_table(nv, rng);
    const auto m = TruthTable::majority(a, b, c);
    for (std::uint64_t x = 0; x < m.num_bits(); ++x) {
      const int sum = a.bit(x) + b.bit(x) + c.bit(x);
      EXPECT_EQ(m.bit(x), sum >= 2);
    }
  }
}

TEST(TruthTable, MajorityAxioms) {
  util::Rng rng(9);
  const auto a = random_table(5, rng);
  const auto b = random_table(5, rng);
  EXPECT_EQ(TruthTable::majority(a, a, b), a);
  EXPECT_EQ(TruthTable::majority(a, ~a, b), b);
  EXPECT_EQ(TruthTable::majority(a, b, TruthTable::constant(5, false)),
            a & b);
  EXPECT_EQ(TruthTable::majority(a, b, TruthTable::constant(5, true)),
            a | b);
}

TEST(TruthTable, IteDefinition) {
  util::Rng rng(17);
  const auto s = random_table(4, rng);
  const auto t = random_table(4, rng);
  const auto e = random_table(4, rng);
  const auto m = TruthTable::ite(s, t, e);
  for (std::uint64_t x = 0; x < m.num_bits(); ++x) {
    EXPECT_EQ(m.bit(x), s.bit(x) ? t.bit(x) : e.bit(x));
  }
}

TEST(TruthTable, BinaryRoundTrip) {
  const auto t = TruthTable::from_binary("1000");
  EXPECT_EQ(t.num_vars(), 2u);
  EXPECT_EQ(t, TruthTable::projection(2, 0) & TruthTable::projection(2, 1));
  EXPECT_EQ(t.to_binary(), "1000");
  EXPECT_THROW(TruthTable::from_binary("101"), std::invalid_argument);
  EXPECT_THROW(TruthTable::from_binary("10x0"), std::invalid_argument);
}

TEST(TruthTable, HexRoundTrip) {
  util::Rng rng(23);
  for (unsigned nv : {2u, 4u, 7u}) {
    const auto t = random_table(nv, rng);
    EXPECT_EQ(TruthTable::from_hex(nv, t.to_hex()), t);
  }
  EXPECT_EQ(TruthTable::from_hex(2, "8").to_binary(), "1000");
  EXPECT_THROW(TruthTable::from_hex(2, "123"), std::invalid_argument);
  EXPECT_THROW(TruthTable::from_hex(2, "g"), std::invalid_argument);
}

TEST(TruthTable, CofactorsAndDependence) {
  util::Rng rng(31);
  for (unsigned nv : {3u, 6u, 8u}) {
    const auto f = random_table(nv, rng);
    for (unsigned v = 0; v < nv; ++v) {
      const auto f0 = f.cofactor0(v);
      const auto f1 = f.cofactor1(v);
      EXPECT_FALSE(f0.depends_on(v));
      EXPECT_FALSE(f1.depends_on(v));
      for (std::uint64_t x = 0; x < f.num_bits(); ++x) {
        const std::uint64_t x0 = x & ~(std::uint64_t{1} << v);
        const std::uint64_t x1 = x | (std::uint64_t{1} << v);
        EXPECT_EQ(f0.bit(x), f.bit(x0));
        EXPECT_EQ(f1.bit(x), f.bit(x1));
      }
      // Shannon expansion reconstructs f.
      const auto proj = TruthTable::projection(nv, v);
      EXPECT_EQ((proj & f1) | (~proj & f0), f);
    }
  }
}

TEST(TruthTable, FlipVarInvolution) {
  util::Rng rng(37);
  for (unsigned nv : {2u, 6u, 7u}) {
    const auto f = random_table(nv, rng);
    for (unsigned v = 0; v < nv; ++v) {
      const auto g = f.flip_var(v);
      EXPECT_EQ(g.flip_var(v), f);
      for (std::uint64_t x = 0; x < f.num_bits(); ++x) {
        EXPECT_EQ(g.bit(x), f.bit(x ^ (std::uint64_t{1} << v)));
      }
    }
  }
}

TEST(TruthTable, SwapVarsSemantics) {
  util::Rng rng(41);
  const auto f = random_table(5, rng);
  const auto g = f.swap_vars(1, 3);
  for (std::uint64_t x = 0; x < f.num_bits(); ++x) {
    const std::uint64_t b1 = (x >> 1) & 1;
    const std::uint64_t b3 = (x >> 3) & 1;
    std::uint64_t y = x & ~0xAull & ~0x8ull; // clear bits 1 and 3
    y = (x & ~((1ull << 1) | (1ull << 3))) | (b1 << 3) | (b3 << 1);
    EXPECT_EQ(g.bit(x), f.bit(y));
  }
  EXPECT_EQ(g.swap_vars(3, 1), f);
  EXPECT_EQ(f.swap_vars(2, 2), f);
}

TEST(TruthTable, ExtendRemapsVariables) {
  const auto and2 = TruthTable::from_binary("1000");
  const auto wide = and2.extend(4, {3, 1});
  EXPECT_EQ(wide,
            TruthTable::projection(4, 3) & TruthTable::projection(4, 1));
  EXPECT_THROW(and2.extend(4, {0}), std::invalid_argument);
}

TEST(TruthTable, HammingDistance) {
  const auto a = TruthTable::from_binary("1100");
  const auto b = TruthTable::from_binary("1010");
  EXPECT_EQ(a.hamming_distance(b), 2u);
  EXPECT_EQ(a.hamming_distance(a), 0u);
}

TEST(TruthTable, OrderingAndHash) {
  const auto a = TruthTable::from_binary("0001");
  const auto b = TruthTable::from_binary("0010");
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_NE(a.hash(), b.hash());
  // Different arity compares by arity first.
  EXPECT_TRUE(TruthTable::constant(2, true) < TruthTable::constant(3, false));
}

// ---------- NPN ----------

TEST(Npn, CanonizationIsInvariantUnderTransforms) {
  util::Rng rng(51);
  for (int round = 0; round < 30; ++round) {
    const unsigned nv = 2 + static_cast<unsigned>(rng.below(3)); // 2..4
    TruthTable f(nv);
    for (std::size_t w = 0; w < f.num_words(); ++w) {
      f.set_word(w, rng.next());
    }
    const auto canon_f = npn_canonize(f);
    // Apply a random NPN transform to f; the canon must not change.
    NpnTransform tr;
    std::array<unsigned, kMaxNpnVars> perm{0, 1, 2, 3, 4, 5};
    for (unsigned i = nv; i-- > 1;) {
      std::swap(perm[i], perm[rng.below(i + 1)]);
    }
    tr.perm = perm;
    tr.input_phase = static_cast<unsigned>(rng.below(1u << nv));
    tr.output_phase = rng.chance(0.5);
    const auto g = npn_apply(f, tr);
    const auto canon_g = npn_canonize(g);
    EXPECT_EQ(canon_f.canon, canon_g.canon) << "round " << round;
  }
}

TEST(Npn, ApplyUnapplyRoundTrip) {
  util::Rng rng(61);
  for (int round = 0; round < 30; ++round) {
    TruthTable f(4);
    f.set_word(0, rng.next());
    const auto c = npn_canonize(f);
    EXPECT_EQ(npn_apply(f, c.transform), c.canon);
    EXPECT_EQ(npn_unapply(c.canon, c.transform), f);
  }
}

TEST(Npn, RejectsWideTables) {
  EXPECT_THROW(npn_canonize(TruthTable(7)), std::invalid_argument);
  EXPECT_THROW(npn_apply(TruthTable(7), NpnTransform{}), std::invalid_argument);
}

TEST(Npn, RejectsTransformsThatAreNotPermutations) {
  NpnTransform repeated;
  repeated.perm = {1, 1, 2, 3, 4, 5};
  EXPECT_THROW(npn_apply(TruthTable(3), repeated), std::invalid_argument);
  NpnTransform out_of_range;
  out_of_range.perm = {0, 4, 2, 3, 1, 5}; // variable 4 of a 2-input table
  EXPECT_THROW(npn_unapply(TruthTable(2), out_of_range),
               std::invalid_argument);
  // Entries at positions >= the arity are ignored.
  NpnTransform swap01;
  swap01.perm = {1, 0, 9, 9, 9, 9};
  const TruthTable x0 = TruthTable::projection(2, 0);
  EXPECT_EQ(npn_apply(x0, swap01), TruthTable::projection(2, 1));
}

TEST(Npn, RoundTripRecoversOriginalUpToSixVars) {
  // canonical form + transform -> inverse transform recovers the original,
  // for every supported arity.
  util::Rng rng(67);
  for (unsigned nv = 1; nv <= kMaxNpnVars; ++nv) {
    for (int round = 0; round < 8; ++round) {
      TruthTable f(nv);
      for (std::size_t w = 0; w < f.num_words(); ++w) {
        f.set_word(w, rng.next());
      }
      const auto c = npn_canonize(f);
      EXPECT_EQ(npn_apply(f, c.transform), c.canon)
          << "nv=" << nv << " round=" << round;
      EXPECT_EQ(npn_unapply(c.canon, c.transform), f)
          << "nv=" << nv << " round=" << round;
      // The canon is the class minimum, so it cannot exceed f itself.
      EXPECT_FALSE(f < c.canon) << "nv=" << nv << " round=" << round;
    }
  }
}

TEST(Npn, EqualClassTablesShareBitIdenticalCanon) {
  // Walk a random table through random class-preserving moves (variable
  // flips, swaps, output complement); every waypoint must canonize to a
  // bit-identical table.
  util::Rng rng(73);
  for (unsigned nv = 1; nv <= kMaxNpnVars; ++nv) {
    TruthTable f(nv);
    for (std::size_t w = 0; w < f.num_words(); ++w) {
      f.set_word(w, rng.next());
    }
    const auto canon = npn_canonize(f).canon;
    TruthTable g = f;
    for (int step = 0; step < 10; ++step) {
      switch (rng.below(3)) {
        case 0: g = g.flip_var(static_cast<unsigned>(rng.below(nv))); break;
        case 1:
          g = g.swap_vars(static_cast<unsigned>(rng.below(nv)),
                          static_cast<unsigned>(rng.below(nv)));
          break;
        default: g = ~g; break;
      }
      const auto canon_g = npn_canonize(g).canon;
      EXPECT_EQ(canon_g, canon) << "nv=" << nv << " step=" << step;
      EXPECT_EQ(canon_g.to_hex(), canon.to_hex());
    }
  }
}

TEST(Npn, ConstantAndProjectionClasses) {
  // Constants 0 and 1 share an NPN class; all projections share one.
  EXPECT_EQ(npn_canonize(TruthTable::constant(3, false)).canon,
            npn_canonize(TruthTable::constant(3, true)).canon);
  EXPECT_EQ(npn_canonize(TruthTable::projection(3, 0)).canon,
            npn_canonize(~TruthTable::projection(3, 2)).canon);
}

// ---------- NPN against the per-bit reference (npn_reference.hpp) ----------

bool same_transform(const NpnTransform& a, const NpnTransform& b) {
  return a.perm == b.perm && a.input_phase == b.input_phase &&
         a.output_phase == b.output_phase;
}

/// Every function of 0..3 variables, then fixed-seed samples of 4, 5 and 6
/// variables (few at 5 and 6: the reference takes ~140 ms per 6-variable
/// canonization).
std::vector<TruthTable> canonize_corpus() {
  std::vector<TruthTable> corpus;
  for (unsigned nv = 0; nv <= 3; ++nv) {
    for (std::uint64_t v = 0; v < (std::uint64_t{1} << (1u << nv)); ++v) {
      TruthTable t(nv);
      t.set_word(0, v);
      corpus.push_back(t);
    }
  }
  util::Rng rng(1801);
  for (const auto& [nv, count] : {std::pair{4u, 200}, {5u, 20}, {6u, 4}}) {
    for (int i = 0; i < count; ++i) {
      corpus.push_back(random_table(nv, rng));
    }
  }
  return corpus;
}

TEST(NpnReference, CanonizeMatchesThePerBitSearch) {
  for (const TruthTable& f : canonize_corpus()) {
    const NpnCanonization want = reference::npn_canonize(f);
    const NpnCanonization got = npn_canonize(f);
    EXPECT_EQ(got.canon, want.canon) << f.num_vars() << ":" << f.to_hex();
    EXPECT_TRUE(same_transform(got.transform, want.transform))
        << f.num_vars() << ":" << f.to_hex();
  }
}

TEST(NpnReference, CanonizeCorpusDigestIsPinned) {
  // CRC32 of "canon perm input_phase output_phase" over the corpus, as
  // npn_canonize produced it before the word engine: an edit that moves
  // the reference and the library together still fails here.
  std::string lines;
  for (const TruthTable& f : canonize_corpus()) {
    const NpnCanonization c = npn_canonize(f);
    lines += c.canon.to_hex() + ' ';
    for (const unsigned p : c.transform.perm) {
      lines += static_cast<char>('0' + p);
    }
    lines += ' ' + std::to_string(c.transform.input_phase) + ' ' +
             std::to_string(c.transform.output_phase ? 1 : 0) + '\n';
  }
  EXPECT_EQ(util::crc32(lines), 0x3de8d3a9u);
}

TEST(NpnReference, ApplyAndUnapplyMatchThePerBitLoops) {
  util::Rng rng(1802);
  for (unsigned nv = 0; nv <= kMaxNpnVars; ++nv) {
    for (int round = 0; round < 50; ++round) {
      const TruthTable f = random_table(nv, rng);
      NpnTransform tr;
      for (unsigned i = nv; i-- > 1;) {
        std::swap(tr.perm[i], tr.perm[rng.below(i + 1)]);
      }
      // Phase bits at or above the arity are ignored; draw them anyway.
      tr.input_phase = static_cast<unsigned>(rng.below(1u << kMaxNpnVars));
      tr.output_phase = rng.chance(0.5);
      EXPECT_EQ(npn_apply(f, tr), reference::npn_apply(f, tr))
          << "nv=" << nv << " round=" << round;
      EXPECT_EQ(npn_unapply(f, tr), reference::npn_unapply(f, tr))
          << "nv=" << nv << " round=" << round;
    }
  }
}

// ---------- ISOP ----------

TEST(Isop, CoversExactlyTheFunction) {
  util::Rng rng(71);
  for (unsigned nv : {1u, 2u, 3u, 4u, 5u, 6u, 7u}) {
    for (int round = 0; round < 10; ++round) {
      TruthTable f(nv);
      for (std::size_t w = 0; w < f.num_words(); ++w) {
        f.set_word(w, rng.next());
      }
      const auto cubes = isop(f);
      EXPECT_EQ(cover_to_table(cubes, nv), f)
          << "nv=" << nv << " round=" << round;
    }
  }
}

TEST(Isop, ConstantCovers) {
  EXPECT_TRUE(isop(TruthTable::constant(3, false)).empty());
  const auto ones = isop(TruthTable::constant(3, true));
  ASSERT_EQ(ones.size(), 1u);
  EXPECT_EQ(ones[0].mask, 0u);
}

TEST(Isop, SingleMintermIsOneFullCube) {
  TruthTable f(3);
  f.set_bit(5, true); // 101
  const auto cubes = isop(f);
  ASSERT_EQ(cubes.size(), 1u);
  EXPECT_EQ(cubes[0].num_literals(), 3u);
  EXPECT_TRUE(cubes[0].evaluates_true(5));
  EXPECT_FALSE(cubes[0].evaluates_true(4));
}

TEST(Isop, DontCaresShrinkTheCover) {
  // Onset {3}, dc {1,2}: the cover may use a smaller cube than the
  // exact minterm but must stay inside onset|dc and cover the onset.
  TruthTable onset(2);
  onset.set_bit(3, true);
  TruthTable dc(2);
  dc.set_bit(1, true);
  dc.set_bit(2, true);
  const auto cubes = isop(onset, dc);
  const auto covered = cover_to_table(cubes, 2);
  EXPECT_TRUE(covered.bit(3));
  EXPECT_FALSE(covered.bit(0));
}

TEST(Isop, CubeToString) {
  Cube c;
  c.mask = 0b101;
  c.polarity = 0b001;
  EXPECT_EQ(c.to_string(3), "1-0");
}

TEST(Isop, XorNeedsFourCubes) {
  const auto x = TruthTable::projection(2, 0) ^ TruthTable::projection(2, 1);
  EXPECT_EQ(isop(x).size(), 2u);
  const auto x3 = TruthTable::projection(3, 0) ^
                  TruthTable::projection(3, 1) ^
                  TruthTable::projection(3, 2);
  EXPECT_EQ(isop(x3).size(), 4u);
}

// ---------- ISOP against the table recursion (isop_reference.hpp) ----------

/// A random sum of `cubes` random cubes of 2..nv literals over `nv`
/// variables: a wide table whose ISOP stays short.
TruthTable random_cube_sum(unsigned nv, unsigned cubes, util::Rng& rng) {
  TruthTable t(nv);
  for (unsigned c = 0; c < cubes; ++c) {
    TruthTable cube = TruthTable::constant(nv, true);
    const unsigned lits = 2 + static_cast<unsigned>(rng.below(nv - 1));
    for (unsigned l = 0; l < lits; ++l) {
      const auto v = static_cast<unsigned>(rng.below(nv));
      const TruthTable p = TruthTable::projection(nv, v);
      cube &= rng.chance(0.5) ? p : ~p;
    }
    t |= cube;
  }
  return t;
}

/// (onset, dc) pairs: every function of 0..4 variables with dc = 0 (the
/// set holds every complement too, the second ISOP build_factored runs),
/// every interval [lower, upper] of 0..3 variables, then fixed-seed
/// intervals of 5..16 variables (1 to 1024 words): dense random words up
/// to 10 variables, short cube sums above.
std::vector<std::pair<TruthTable, TruthTable>> isop_corpus() {
  std::vector<std::pair<TruthTable, TruthTable>> corpus;
  for (unsigned nv = 0; nv <= 4; ++nv) {
    for (std::uint64_t v = 0; v < (std::uint64_t{1} << (1u << nv)); ++v) {
      TruthTable t(nv);
      t.set_word(0, v);
      corpus.emplace_back(t, TruthTable(nv));
    }
  }
  for (unsigned nv = 0; nv <= 3; ++nv) {
    const std::uint64_t all = (std::uint64_t{1} << (1u << nv)) - 1;
    for (std::uint64_t upper = 0; upper <= all; ++upper) {
      // Every lower ⊆ upper, enumerated as the submasks of upper.
      for (std::uint64_t lower = upper;; lower = (lower - 1) & upper) {
        TruthTable on(nv);
        TruthTable dc(nv);
        on.set_word(0, lower);
        dc.set_word(0, upper & ~lower);
        corpus.emplace_back(on, dc);
        if (lower == 0) {
          break;
        }
      }
    }
  }
  util::Rng rng(2101);
  for (unsigned nv = 5; nv <= 16; ++nv) {
    const int rounds = nv <= 8 ? 24 : nv <= 10 ? 8 : 3;
    for (int r = 0; r < rounds; ++r) {
      if (nv <= 10) {
        const TruthTable a = random_table(nv, rng);
        const TruthTable b = random_table(nv, rng);
        const TruthTable c = random_table(nv, rng);
        // dc = 0, a dense dc, and a sparse dc in turn.
        corpus.emplace_back(a, r % 3 == 0   ? TruthTable(nv)
                               : r % 3 == 1 ? b & ~a
                                            : b & c & ~a);
      } else {
        const TruthTable on = random_cube_sum(nv, 12, rng);
        corpus.emplace_back(on, random_cube_sum(nv, 6, rng) & ~on);
      }
    }
  }
  return corpus;
}

std::string describe_cover(const std::vector<Cube>& cubes, unsigned nv) {
  std::string s;
  for (const Cube& c : cubes) {
    s += c.to_string(nv) + ' ';
  }
  return s;
}

TEST(IsopReference, MatchesTheTableRecursion) {
  for (const auto& [on, dc] : isop_corpus()) {
    const std::vector<Cube> want = reference::isop(on, dc);
    const std::vector<Cube> got = isop(on, dc);
    ASSERT_EQ(got, want) << on.num_vars() << ":" << on.to_hex() << " dc "
                         << dc.to_hex() << "\n got  "
                         << describe_cover(got, on.num_vars()) << "\n want "
                         << describe_cover(want, on.num_vars());
  }
}

TEST(IsopReference, CorpusDigestIsPinned) {
  // CRC32 of every cover of the corpus, cube by cube in order, as
  // tt::isop produced it before the word kernels: an edit that moves the
  // reference and the library together still fails here.
  std::string lines;
  for (const auto& [on, dc] : isop_corpus()) {
    lines += describe_cover(isop(on, dc), on.num_vars()) + '\n';
  }
  EXPECT_EQ(util::crc32(lines), 0x3e1c19dau);
}

} // namespace
} // namespace rcgp::tt
