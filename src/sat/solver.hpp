#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace rcgp::robust {
class StopToken;
}

namespace rcgp::sat {

/// A literal is a variable with a sign, packed as 2*var + (negated ? 1 : 0).
class Lit {
public:
  Lit() = default;
  Lit(int var, bool negated) : code_(2 * var + (negated ? 1 : 0)) {}

  static Lit from_code(int code) {
    Lit l;
    l.code_ = code;
    return l;
  }
  int var() const { return code_ >> 1; }
  bool negated() const { return code_ & 1; }
  int code() const { return code_; }

  Lit operator~() const { return from_code(code_ ^ 1); }
  bool operator==(const Lit&) const = default;

private:
  int code_ = -1;
};

enum class SolveResult { kSat, kUnsat, kUnknown };

/// Resource budget for a solve call; 0 means unlimited.
struct SolveLimits {
  std::uint64_t max_conflicts = 0;
  std::uint64_t max_propagations = 0;
  /// Wall-clock cap, checked every 512 decisions.
  double max_seconds = 0.0;
  /// Cooperative stop, polled with max_seconds (not owned; nullptr =
  /// never stops). A tripped token ends the call with kUnknown.
  const robust::StopToken* stop = nullptr;
};

/// Conflict-driven clause-learning SAT solver.
///
/// Features: two-literal watches, VSIDS variable activity with phase
/// saving, Luby restarts, first-UIP learning with self-subsumption
/// minimization, LBD-based learned-clause reduction, and budgeted solving
/// (returns kUnknown when the conflict/propagation budget is exhausted,
/// which the CGP fitness loop uses to bound verification cost).
class Solver {
public:
  Solver();

  int new_var();
  int num_vars() const { return static_cast<int>(assigns_.size()); }

  /// Adds a clause; returns false if the database is already inconsistent
  /// (empty clause derived at level 0).
  bool add_clause(std::span<const Lit> lits);
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  SolveResult solve(std::span<const Lit> assumptions = {},
                    const SolveLimits& limits = {});

  /// Model value of a variable after kSat. Unassigned vars default false.
  bool model_value(int var) const;
  bool model_value(Lit l) const {
    return model_value(l.var()) ^ l.negated();
  }

  // Statistics for benches / diagnostics.
  std::uint64_t num_conflicts() const { return stats_conflicts_; }

private:
  // Clause storage: header + literals in one arena.
  struct Clause {
    std::vector<Lit> lits;
    double activity = 0.0;
    int lbd = 0;
    bool learnt = false;
  };
  using ClauseRef = int;

  struct Watcher {
    ClauseRef cref;
    Lit blocker;
  };

  enum class LBool : std::uint8_t { kFalse = 0, kTrue = 1, kUndef = 2 };

  LBool value(int var) const { return assigns_[var]; }
  LBool value(Lit l) const {
    const LBool v = assigns_[l.var()];
    if (v == LBool::kUndef) {
      return LBool::kUndef;
    }
    return (v == LBool::kTrue) != l.negated() ? LBool::kTrue : LBool::kFalse;
  }

  void attach_clause(ClauseRef cref);
  void enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();
  void analyze(ClauseRef confl, std::vector<Lit>& out_learnt,
               int& out_btlevel);
  bool lit_redundant(Lit l, std::uint32_t abstract_levels);
  void backtrack(int level);
  Lit pick_branch_lit();
  void bump_var(int var);
  void decay_var_activity() { var_inc_ /= kVarDecay; }
  void bump_clause(Clause& c);
  void reduce_db();
  void rebuild_order_heap();

  // Binary-heap priority queue over variable activity.
  void heap_insert(int var);
  int heap_pop();
  void heap_decrease(int var);
  bool heap_contains(int var) const { return heap_index_[var] >= 0; }
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);

  int decision_level() const { return static_cast<int>(trail_lim_.size()); }
  int level(int var) const { return var_level_[var]; }

  static constexpr double kVarDecay = 0.95;
  static constexpr double kClauseDecay = 0.999;

  std::vector<Clause> clause_arena_;
  std::vector<ClauseRef> clauses_;
  std::vector<ClauseRef> learnts_;
  std::vector<std::vector<Watcher>> watches_; // indexed by literal code

  std::vector<LBool> assigns_;
  std::vector<bool> polarity_; // saved phases
  std::vector<int> var_level_;
  std::vector<ClauseRef> var_reason_;
  std::vector<double> activity_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  std::size_t qhead_ = 0;

  std::vector<int> heap_;
  std::vector<int> heap_index_;

  std::vector<bool> seen_;
  std::vector<Lit> analyze_stack_;
  std::vector<Lit> analyze_clear_;

  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  bool ok_ = true;

  std::uint64_t stats_conflicts_ = 0;
  std::uint64_t stats_decisions_ = 0;
  std::uint64_t stats_propagations_ = 0;
  std::uint64_t max_learnts_ = 4096;
};

/// Luby restart sequence value (1-indexed): 1,1,2,1,1,2,4,...
std::uint64_t luby(std::uint64_t i);

} // namespace rcgp::sat
