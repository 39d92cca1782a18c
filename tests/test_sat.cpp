#include <gtest/gtest.h>

#include <vector>

#include "sat/cnf.hpp"
#include "sat/solver.hpp"
#include "tt/truth_table.hpp"
#include "util/rng.hpp"

namespace rcgp::sat {
namespace {

TEST(Lit, PackingAndNegation) {
  const Lit a(3, false);
  EXPECT_EQ(a.var(), 3);
  EXPECT_FALSE(a.negated());
  EXPECT_EQ((~a).var(), 3);
  EXPECT_TRUE((~a).negated());
  EXPECT_EQ(~~a, a);
}

TEST(Luby, Sequence) {
  const std::uint64_t expect[] = {1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8};
  for (std::size_t i = 0; i < std::size(expect); ++i) {
    EXPECT_EQ(luby(i), expect[i]) << i;
  }
}

TEST(Solver, EmptyIsSat) {
  Solver s;
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(Solver, UnitPropagation) {
  Solver s;
  const Lit a(s.new_var(), false);
  const Lit b(s.new_var(), false);
  s.add_clause({a});
  s.add_clause({~a, b});
  EXPECT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_TRUE(s.model_value(a));
  EXPECT_TRUE(s.model_value(b));
}

TEST(Solver, TrivialUnsat) {
  Solver s;
  const Lit a(s.new_var(), false);
  s.add_clause({a});
  EXPECT_FALSE(s.add_clause({~a}));
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
}

TEST(Solver, TautologyIgnored) {
  Solver s;
  const Lit a(s.new_var(), false);
  EXPECT_TRUE(s.add_clause({a, ~a}));
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(Solver, DuplicateLiteralsCollapsed) {
  Solver s;
  const Lit a(s.new_var(), false);
  s.add_clause({a, a, a});
  EXPECT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_TRUE(s.model_value(a));
}

TEST(Solver, ThreeVarUnsatCore) {
  // (a|b)(a|~b)(~a|c)(~a|~c) is UNSAT.
  Solver s;
  const Lit a(s.new_var(), false);
  const Lit b(s.new_var(), false);
  const Lit c(s.new_var(), false);
  s.add_clause({a, b});
  s.add_clause({a, ~b});
  s.add_clause({~a, c});
  s.add_clause({~a, ~c});
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
}

TEST(Solver, AssumptionsSatAndConflicting) {
  Solver s;
  const Lit a(s.new_var(), false);
  const Lit b(s.new_var(), false);
  s.add_clause({a, b});
  std::vector<Lit> assume{~a};
  EXPECT_EQ(s.solve(assume), SolveResult::kSat);
  EXPECT_TRUE(s.model_value(b));
  std::vector<Lit> both{~a, ~b};
  EXPECT_EQ(s.solve(both), SolveResult::kUnsat);
  // Solver remains usable without assumptions.
  EXPECT_EQ(s.solve(), SolveResult::kSat);
}

TEST(Solver, PigeonholePrinciple) {
  // n+1 pigeons into n holes is UNSAT; exercises clause learning.
  for (int holes : {3, 4, 5}) {
    Solver s;
    const int pigeons = holes + 1;
    std::vector<std::vector<Lit>> x(pigeons, std::vector<Lit>(holes));
    for (auto& row : x) {
      for (auto& l : row) {
        l = Lit(s.new_var(), false);
      }
    }
    for (int p = 0; p < pigeons; ++p) {
      s.add_clause(std::span<const Lit>(x[p]));
    }
    for (int h = 0; h < holes; ++h) {
      for (int p1 = 0; p1 < pigeons; ++p1) {
        for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
          s.add_clause({~x[p1][h], ~x[p2][h]});
        }
      }
    }
    EXPECT_EQ(s.solve(), SolveResult::kUnsat) << holes;
    EXPECT_GT(s.num_conflicts(), 0u);
  }
}

TEST(Solver, ConflictBudgetReturnsUnknown) {
  Solver s;
  const int holes = 8;
  const int pigeons = holes + 1;
  std::vector<std::vector<Lit>> x(pigeons, std::vector<Lit>(holes));
  for (auto& row : x) {
    for (auto& l : row) {
      l = Lit(s.new_var(), false);
    }
  }
  for (int p = 0; p < pigeons; ++p) {
    s.add_clause(std::span<const Lit>(x[p]));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        s.add_clause({~x[p1][h], ~x[p2][h]});
      }
    }
  }
  SolveLimits limits;
  limits.max_conflicts = 5;
  EXPECT_EQ(s.solve({}, limits), SolveResult::kUnknown);
}

TEST(Solver, RandomSatInstancesHaveValidModels) {
  util::Rng rng(17);
  for (int round = 0; round < 25; ++round) {
    Solver s;
    const int nv = 12;
    for (int i = 0; i < nv; ++i) {
      s.new_var();
    }
    // Plant a solution and generate clauses satisfied by it.
    std::vector<bool> planted(nv);
    for (auto&& p : planted) {
      p = rng.chance(0.5);
    }
    std::vector<std::vector<Lit>> clauses;
    for (int c = 0; c < 60; ++c) {
      std::vector<Lit> clause;
      for (int k = 0; k < 3; ++k) {
        const int v = static_cast<int>(rng.below(nv));
        clause.push_back(Lit(v, rng.chance(0.5)));
      }
      // Force at least one literal true under the planted assignment
      // (positive literal when the planted value is true).
      const int v = clause[0].var();
      clause[0] = Lit(v, !planted[v]);
      clauses.push_back(clause);
      s.add_clause(std::span<const Lit>(clause));
    }
    ASSERT_EQ(s.solve(), SolveResult::kSat) << round;
    for (const auto& clause : clauses) {
      bool ok = false;
      for (const Lit l : clause) {
        if (s.model_value(l)) {
          ok = true;
          break;
        }
      }
      EXPECT_TRUE(ok) << "model violates a clause in round " << round;
    }
  }
}

TEST(Solver, ManySolveCallsReuseState) {
  Solver s;
  const Lit a(s.new_var(), false);
  const Lit b(s.new_var(), false);
  s.add_clause({a, b});
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(s.solve(), SolveResult::kSat);
  }
  s.add_clause({~a});
  s.add_clause({~b});
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
  EXPECT_EQ(s.solve(), SolveResult::kUnsat);
}

// ---------- CnfBuilder gates ----------

class CnfGateTest : public ::testing::Test {
protected:
  /// Checks `gate` against `truth` on all 4 input combinations by solving
  /// with assumptions.
  void check2(Lit (CnfBuilder::*make)(Lit, Lit), unsigned truth) {
    Solver s;
    CnfBuilder b(s);
    const Lit x = b.new_lit();
    const Lit y = b.new_lit();
    const Lit out = (b.*make)(x, y);
    for (unsigned i = 0; i < 4; ++i) {
      std::vector<Lit> assume{i & 1 ? x : ~x, i & 2 ? y : ~y};
      ASSERT_EQ(s.solve(assume), SolveResult::kSat);
      EXPECT_EQ(s.model_value(out), ((truth >> i) & 1) != 0)
          << "input " << i;
    }
  }
};

TEST_F(CnfGateTest, And) { check2(&CnfBuilder::make_and, 0b1000); }
TEST_F(CnfGateTest, Or) { check2(&CnfBuilder::make_or, 0b1110); }
TEST_F(CnfGateTest, Xor) { check2(&CnfBuilder::make_xor, 0b0110); }

TEST(CnfBuilder, Majority) {
  Solver s;
  CnfBuilder b(s);
  const Lit x = b.new_lit();
  const Lit y = b.new_lit();
  const Lit z = b.new_lit();
  const Lit m = b.make_maj(x, y, z);
  for (unsigned i = 0; i < 8; ++i) {
    std::vector<Lit> assume{i & 1 ? x : ~x, i & 2 ? y : ~y, i & 4 ? z : ~z};
    ASSERT_EQ(s.solve(assume), SolveResult::kSat);
    const int pop = (i & 1) + ((i >> 1) & 1) + ((i >> 2) & 1);
    EXPECT_EQ(s.model_value(m), pop >= 2) << i;
  }
}

TEST(CnfBuilder, Mux) {
  Solver s;
  CnfBuilder b(s);
  const Lit sel = b.new_lit();
  const Lit t = b.new_lit();
  const Lit e = b.new_lit();
  const Lit m = b.make_mux(sel, t, e);
  for (unsigned i = 0; i < 8; ++i) {
    std::vector<Lit> assume{i & 1 ? sel : ~sel, i & 2 ? t : ~t,
                            i & 4 ? e : ~e};
    ASSERT_EQ(s.solve(assume), SolveResult::kSat);
    const bool want = (i & 1) ? ((i >> 1) & 1) : ((i >> 2) & 1);
    EXPECT_EQ(s.model_value(m), want) << i;
  }
}

TEST(CnfBuilder, WideAndOr) {
  Solver s;
  CnfBuilder b(s);
  std::vector<Lit> in;
  for (int i = 0; i < 5; ++i) {
    in.push_back(b.new_lit());
  }
  const Lit all = b.make_and(std::span<const Lit>(in));
  const Lit any = b.make_or(std::span<const Lit>(in));
  std::vector<Lit> assume;
  for (const Lit l : in) {
    assume.push_back(l);
  }
  ASSERT_EQ(s.solve(assume), SolveResult::kSat);
  EXPECT_TRUE(s.model_value(all));
  EXPECT_TRUE(s.model_value(any));
  assume[2] = ~assume[2];
  ASSERT_EQ(s.solve(assume), SolveResult::kSat);
  EXPECT_FALSE(s.model_value(all));
  EXPECT_TRUE(s.model_value(any));
  for (auto& l : assume) {
    l = Lit(l.var(), true);
  }
  ASSERT_EQ(s.solve(assume), SolveResult::kSat);
  EXPECT_FALSE(s.model_value(any));
}

TEST(CnfBuilder, EmptyAndIsTrue) {
  Solver s;
  CnfBuilder b(s);
  const Lit t = b.make_and(std::span<const Lit>{});
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_TRUE(s.model_value(t));
}

TEST(CnfBuilder, ConstantsAndEquality) {
  Solver s;
  CnfBuilder b(s);
  const Lit x = b.new_lit();
  b.assert_equal(x, b.true_lit());
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_TRUE(s.model_value(x));
  const Lit y = b.new_lit();
  b.assert_equal(y, b.false_lit());
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  EXPECT_FALSE(s.model_value(y));
}

TEST(CnfBuilder, ExactlyOne) {
  Solver s;
  CnfBuilder b(s);
  std::vector<Lit> in;
  for (int i = 0; i < 4; ++i) {
    in.push_back(b.new_lit());
  }
  b.exactly_one(std::span<const Lit>(in));
  ASSERT_EQ(s.solve(), SolveResult::kSat);
  int count = 0;
  for (const Lit l : in) {
    count += s.model_value(l) ? 1 : 0;
  }
  EXPECT_EQ(count, 1);
  // Forcing two true must be UNSAT.
  std::vector<Lit> assume{in[0], in[1]};
  EXPECT_EQ(s.solve(assume), SolveResult::kUnsat);
  // Forcing all false must be UNSAT.
  std::vector<Lit> none;
  for (const Lit l : in) {
    none.push_back(~l);
  }
  EXPECT_EQ(s.solve(none), SolveResult::kUnsat);
}

} // namespace
} // namespace rcgp::sat
