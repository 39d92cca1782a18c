#include "sat/solver.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/metrics.hpp"
#include "robust/stop.hpp"

namespace rcgp::sat {

namespace {
constexpr int kNoReason = -1;
constexpr std::uint64_t kRestartBase = 64;
} // namespace

std::uint64_t luby(std::uint64_t i) {
  // Find the finite subsequence containing index i and its position.
  std::uint64_t size = 1;
  std::uint64_t seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) / 2;
    --seq;
    i = i % size;
  }
  return std::uint64_t{1} << seq;
}

Solver::Solver() = default;

int Solver::new_var() {
  const int v = static_cast<int>(assigns_.size());
  assigns_.push_back(LBool::kUndef);
  polarity_.push_back(false);
  var_level_.push_back(0);
  var_reason_.push_back(kNoReason);
  activity_.push_back(0.0);
  seen_.push_back(false);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_index_.push_back(-1);
  heap_insert(v);
  return v;
}

bool Solver::add_clause(std::span<const Lit> lits) {
  if (!ok_) {
    return false;
  }
  // Sort, dedupe, drop tautologies and level-0 false literals.
  std::vector<Lit> c(lits.begin(), lits.end());
  std::sort(c.begin(), c.end(),
            [](Lit a, Lit b) { return a.code() < b.code(); });
  std::vector<Lit> out;
  out.reserve(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i > 0 && c[i] == c[i - 1]) {
      continue;
    }
    if (i > 0 && c[i] == ~c[i - 1]) {
      return true; // tautology
    }
    const LBool v = value(c[i]);
    if (v == LBool::kTrue && level(c[i].var()) == 0) {
      return true; // satisfied at root
    }
    if (v == LBool::kFalse && level(c[i].var()) == 0) {
      continue; // falsified at root: drop literal
    }
    out.push_back(c[i]);
  }
  if (out.empty()) {
    ok_ = false;
    return false;
  }
  if (out.size() == 1) {
    if (value(out[0]) == LBool::kFalse) {
      ok_ = false;
      return false;
    }
    if (value(out[0]) == LBool::kUndef) {
      enqueue(out[0], kNoReason);
      if (propagate() != kNoReason) {
        ok_ = false;
        return false;
      }
    }
    return true;
  }
  const auto cref = static_cast<ClauseRef>(clause_arena_.size());
  clause_arena_.push_back(Clause{std::move(out), 0.0, 0, false});
  clauses_.push_back(cref);
  attach_clause(cref);
  return true;
}

void Solver::attach_clause(ClauseRef cref) {
  const auto& c = clause_arena_[cref];
  watches_[(~c.lits[0]).code()].push_back({cref, c.lits[1]});
  watches_[(~c.lits[1]).code()].push_back({cref, c.lits[0]});
}

void Solver::enqueue(Lit l, ClauseRef reason) {
  assigns_[l.var()] = l.negated() ? LBool::kFalse : LBool::kTrue;
  var_level_[l.var()] = decision_level();
  var_reason_[l.var()] = reason;
  trail_.push_back(l);
}

Solver::ClauseRef Solver::propagate() {
  ClauseRef confl = kNoReason;
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++stats_propagations_;
    auto& ws = watches_[p.code()];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < ws.size(); ++i) {
      const Watcher w = ws[i];
      if (value(w.blocker) == LBool::kTrue) {
        ws[keep++] = w;
        continue;
      }
      Clause& c = clause_arena_[w.cref];
      // Normalize: false literal (~p) at position 1.
      const Lit not_p = ~p;
      if (c.lits[0] == not_p) {
        std::swap(c.lits[0], c.lits[1]);
      }
      if (value(c.lits[0]) == LBool::kTrue) {
        ws[keep++] = {w.cref, c.lits[0]};
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      for (std::size_t k = 2; k < c.lits.size(); ++k) {
        if (value(c.lits[k]) != LBool::kFalse) {
          std::swap(c.lits[1], c.lits[k]);
          watches_[(~c.lits[1]).code()].push_back({w.cref, c.lits[0]});
          moved = true;
          break;
        }
      }
      if (moved) {
        continue;
      }
      // Unit or conflicting.
      ws[keep++] = {w.cref, c.lits[0]};
      if (value(c.lits[0]) == LBool::kFalse) {
        confl = w.cref;
        qhead_ = trail_.size();
        for (std::size_t k = i + 1; k < ws.size(); ++k) {
          ws[keep++] = ws[k];
        }
        break;
      }
      enqueue(c.lits[0], w.cref);
    }
    ws.resize(keep);
    if (confl != kNoReason) {
      break;
    }
  }
  return confl;
}

void Solver::bump_var(int var) {
  activity_[var] += var_inc_;
  if (activity_[var] > 1e100) {
    for (auto& a : activity_) {
      a *= 1e-100;
    }
    var_inc_ *= 1e-100;
  }
  if (heap_contains(var)) {
    heap_decrease(var);
  }
}

void Solver::bump_clause(Clause& c) {
  c.activity += clause_inc_;
  if (c.activity > 1e20) {
    for (const auto ref : learnts_) {
      clause_arena_[ref].activity *= 1e-20;
    }
    clause_inc_ *= 1e-20;
  }
}

void Solver::analyze(ClauseRef confl, std::vector<Lit>& out_learnt,
                     int& out_btlevel) {
  out_learnt.clear();
  out_learnt.push_back(Lit()); // placeholder for the asserting literal
  int counter = 0;
  Lit p;
  bool have_p = false;
  std::size_t index = trail_.size();

  do {
    Clause& c = clause_arena_[confl];
    if (c.learnt) {
      bump_clause(c);
    }
    const std::size_t start = have_p ? 1 : 0;
    for (std::size_t j = start; j < c.lits.size(); ++j) {
      const Lit q = c.lits[j];
      if (!seen_[q.var()] && level(q.var()) > 0) {
        seen_[q.var()] = true;
        bump_var(q.var());
        if (level(q.var()) >= decision_level()) {
          ++counter;
        } else {
          out_learnt.push_back(q);
        }
      }
    }
    // Select next literal on the trail to resolve on.
    while (!seen_[trail_[index - 1].var()]) {
      --index;
    }
    --index;
    p = trail_[index];
    have_p = true;
    confl = var_reason_[p.var()];
    seen_[p.var()] = false;
    --counter;
  } while (counter > 0);
  out_learnt[0] = ~p;

  // Minimize: remove literals implied by the rest of the clause.
  analyze_clear_.assign(out_learnt.begin() + 1, out_learnt.end());
  std::uint32_t abstract_levels = 0;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    abstract_levels |= 1u << (level(out_learnt[i].var()) & 31);
  }
  std::size_t keep = 1;
  for (std::size_t i = 1; i < out_learnt.size(); ++i) {
    if (var_reason_[out_learnt[i].var()] == kNoReason ||
        !lit_redundant(out_learnt[i], abstract_levels)) {
      out_learnt[keep++] = out_learnt[i];
    }
  }
  out_learnt.resize(keep);

  // Compute backtrack level: max level among non-asserting literals.
  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    std::size_t max_i = 1;
    for (std::size_t i = 2; i < out_learnt.size(); ++i) {
      if (level(out_learnt[i].var()) > level(out_learnt[max_i].var())) {
        max_i = i;
      }
    }
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = level(out_learnt[1].var());
  }

  for (const Lit l : out_learnt) {
    seen_[l.var()] = false;
  }
  for (const Lit l : analyze_clear_) {
    seen_[l.var()] = false;
  }
}

bool Solver::lit_redundant(Lit l, std::uint32_t abstract_levels) {
  analyze_stack_.clear();
  analyze_stack_.push_back(l);
  const std::size_t top = analyze_clear_.size();
  while (!analyze_stack_.empty()) {
    const Lit q = analyze_stack_.back();
    analyze_stack_.pop_back();
    const ClauseRef r = var_reason_[q.var()];
    if (r == kNoReason) {
      // Hit a decision: l is not redundant. Undo marks made here.
      for (std::size_t i = top; i < analyze_clear_.size(); ++i) {
        seen_[analyze_clear_[i].var()] = false;
      }
      analyze_clear_.resize(top);
      return false;
    }
    const Clause& c = clause_arena_[r];
    for (std::size_t j = 1; j < c.lits.size(); ++j) {
      const Lit x = c.lits[j];
      if (seen_[x.var()] || level(x.var()) == 0) {
        continue;
      }
      if ((1u << (level(x.var()) & 31)) & ~abstract_levels) {
        for (std::size_t i = top; i < analyze_clear_.size(); ++i) {
          seen_[analyze_clear_[i].var()] = false;
        }
        analyze_clear_.resize(top);
        return false;
      }
      seen_[x.var()] = true;
      analyze_clear_.push_back(x);
      analyze_stack_.push_back(x);
    }
  }
  return true;
}

void Solver::backtrack(int target) {
  if (decision_level() <= target) {
    return;
  }
  const std::size_t bound = static_cast<std::size_t>(trail_lim_[target]);
  for (std::size_t i = trail_.size(); i-- > bound;) {
    const int v = trail_[i].var();
    polarity_[v] = assigns_[v] == LBool::kTrue;
    assigns_[v] = LBool::kUndef;
    var_reason_[v] = kNoReason;
    if (!heap_contains(v)) {
      heap_insert(v);
    }
  }
  trail_.resize(bound);
  trail_lim_.resize(target);
  qhead_ = bound;
}

Lit Solver::pick_branch_lit() {
  while (!heap_.empty()) {
    const int v = heap_pop();
    if (assigns_[v] == LBool::kUndef) {
      return Lit(v, !polarity_[v]);
    }
  }
  return Lit();
}

void Solver::reduce_db() {
  // Keep clauses with small LBD or high activity; drop the bottom half.
  std::sort(learnts_.begin(), learnts_.end(), [&](ClauseRef a, ClauseRef b) {
    const Clause& ca = clause_arena_[a];
    const Clause& cb = clause_arena_[b];
    if (ca.lbd != cb.lbd) {
      return ca.lbd < cb.lbd;
    }
    return ca.activity > cb.activity;
  });
  const std::size_t keep_target = learnts_.size() / 2;
  std::vector<ClauseRef> kept;
  kept.reserve(learnts_.size());
  for (std::size_t i = 0; i < learnts_.size(); ++i) {
    const ClauseRef ref = learnts_[i];
    const Clause& c = clause_arena_[ref];
    // A clause that is the reason for a current assignment must stay.
    const bool locked = value(c.lits[0]) == LBool::kTrue &&
                        var_reason_[c.lits[0].var()] == ref;
    if (i < keep_target || c.lbd <= 3 || locked) {
      kept.push_back(ref);
      continue;
    }
    // Detach from watch lists.
    for (int k = 0; k < 2; ++k) {
      auto& ws = watches_[(~c.lits[k]).code()];
      ws.erase(std::remove_if(ws.begin(), ws.end(),
                              [&](const Watcher& w) { return w.cref == ref; }),
               ws.end());
    }
  }
  learnts_ = std::move(kept);
}

void Solver::rebuild_order_heap() {
  heap_.clear();
  std::fill(heap_index_.begin(), heap_index_.end(), -1);
  for (int v = 0; v < num_vars(); ++v) {
    if (assigns_[v] == LBool::kUndef) {
      heap_insert(v);
    }
  }
}

namespace {

/// Flushes per-call solver statistics deltas into the process-wide metrics
/// registry on every return path (registered once, then atomics only).
class SolveStatsReporter {
public:
  SolveStatsReporter(const std::uint64_t& conflicts,
                     const std::uint64_t& decisions,
                     const std::uint64_t& propagations)
      : conflicts_(conflicts),
        decisions_(decisions),
        propagations_(propagations),
        conflicts0_(conflicts),
        decisions0_(decisions),
        propagations0_(propagations) {}

  ~SolveStatsReporter() {
    static constexpr double kConflictBounds[] = {0,   10,  100, 1000,
                                                 1e4, 1e5, 1e6};
    static obs::Counter& c_solves = obs::registry().counter("sat.solves");
    static obs::Counter& c_conflicts =
        obs::registry().counter("sat.conflicts");
    static obs::Counter& c_decisions =
        obs::registry().counter("sat.decisions");
    static obs::Counter& c_propagations =
        obs::registry().counter("sat.propagations");
    static obs::Histogram& h_conflicts = obs::registry().histogram(
        "sat.conflicts_per_solve", kConflictBounds);
    c_solves.inc();
    c_conflicts.inc(conflicts_ - conflicts0_);
    c_decisions.inc(decisions_ - decisions0_);
    c_propagations.inc(propagations_ - propagations0_);
    h_conflicts.observe(static_cast<double>(conflicts_ - conflicts0_));
  }

private:
  const std::uint64_t& conflicts_;
  const std::uint64_t& decisions_;
  const std::uint64_t& propagations_;
  std::uint64_t conflicts0_, decisions0_, propagations0_;
};

} // namespace

SolveResult Solver::solve(std::span<const Lit> assumptions,
                          const SolveLimits& limits) {
  if (!ok_) {
    return SolveResult::kUnsat;
  }
  SolveStatsReporter stats_reporter(stats_conflicts_, stats_decisions_,
                                    stats_propagations_);
  backtrack(0);
  rebuild_order_heap();

  std::vector<Lit> learnt;
  std::uint64_t conflicts_this_call = 0;
  std::uint64_t props_start = stats_propagations_;
  const auto start_time = std::chrono::steady_clock::now();
  std::uint64_t loop_ticks = 0;
  std::uint64_t restart_round = 0;
  std::uint64_t restart_budget = kRestartBase * luby(restart_round);
  std::uint64_t conflicts_since_restart = 0;

  for (;;) {
    const ClauseRef confl = propagate();
    if (confl != kNoReason) {
      ++stats_conflicts_;
      ++conflicts_this_call;
      ++conflicts_since_restart;
      if (decision_level() == 0) {
        ok_ = false;
        return SolveResult::kUnsat;
      }
      int bt = 0;
      analyze(confl, learnt, bt);
      // Never undo assumption decisions below their level unless forced:
      // clamp to assumption prefix only when the asserting literal allows.
      backtrack(bt);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNoReason);
      } else {
        const auto cref = static_cast<ClauseRef>(clause_arena_.size());
        // LBD = number of distinct decision levels among literals.
        int lbd = 0;
        std::uint64_t level_mask = 0;
        for (const Lit l : learnt) {
          const std::uint64_t bit = std::uint64_t{1} << (level(l.var()) & 63);
          if (!(level_mask & bit)) {
            level_mask |= bit;
            ++lbd;
          }
        }
        clause_arena_.push_back(Clause{learnt, 0.0, lbd, true});
        learnts_.push_back(cref);
        attach_clause(cref);
        bump_clause(clause_arena_[cref]);
        enqueue(learnt[0], cref);
      }
      decay_var_activity();
      clause_inc_ /= kClauseDecay;

      if (learnts_.size() >= max_learnts_) {
        reduce_db();
        max_learnts_ += max_learnts_ / 2;
      }
      continue;
    }

    if (limits.max_conflicts && conflicts_this_call >= limits.max_conflicts) {
      backtrack(0);
      return SolveResult::kUnknown;
    }
    if (limits.max_propagations &&
        stats_propagations_ - props_start >= limits.max_propagations) {
      backtrack(0);
      return SolveResult::kUnknown;
    }
    if ((limits.max_seconds > 0.0 || limits.stop != nullptr) &&
        (++loop_ticks & 511) == 0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start_time;
      if ((limits.stop != nullptr && limits.stop->stop_requested()) ||
          (limits.max_seconds > 0.0 && elapsed.count() > limits.max_seconds)) {
        backtrack(0);
        return SolveResult::kUnknown;
      }
    }
    if (conflicts_since_restart >= restart_budget) {
      conflicts_since_restart = 0;
      restart_budget = kRestartBase * luby(++restart_round);
      backtrack(0);
      continue;
    }

    // Apply assumptions in order, as pseudo-decisions.
    if (decision_level() < static_cast<int>(assumptions.size())) {
      const Lit a = assumptions[decision_level()];
      if (value(a) == LBool::kTrue) {
        trail_lim_.push_back(static_cast<int>(trail_.size()));
        continue;
      }
      if (value(a) == LBool::kFalse) {
        return SolveResult::kUnsat; // conflicting assumptions
      }
      trail_lim_.push_back(static_cast<int>(trail_.size()));
      enqueue(a, kNoReason);
      continue;
    }

    const Lit next = pick_branch_lit();
    if (next.code() < 0) {
      return SolveResult::kSat;
    }
    ++stats_decisions_;
    trail_lim_.push_back(static_cast<int>(trail_.size()));
    enqueue(next, kNoReason);
  }
}

bool Solver::model_value(int var) const {
  return assigns_[var] == LBool::kTrue;
}

// ---- activity heap -------------------------------------------------------

void Solver::heap_insert(int var) {
  heap_index_[var] = static_cast<int>(heap_.size());
  heap_.push_back(var);
  heap_sift_up(heap_.size() - 1);
}

int Solver::heap_pop() {
  const int top = heap_[0];
  heap_index_[top] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_index_[heap_[0]] = 0;
    heap_sift_down(0);
  }
  return top;
}

void Solver::heap_decrease(int var) {
  heap_sift_up(static_cast<std::size_t>(heap_index_[var]));
}

void Solver::heap_sift_up(std::size_t i) {
  const int v = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[v]) {
      break;
    }
    heap_[i] = heap_[parent];
    heap_index_[heap_[i]] = static_cast<int>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_index_[v] = static_cast<int>(i);
}

void Solver::heap_sift_down(std::size_t i) {
  const int v = heap_[i];
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= heap_.size()) {
      break;
    }
    if (child + 1 < heap_.size() &&
        activity_[heap_[child + 1]] > activity_[heap_[child]]) {
      ++child;
    }
    if (activity_[heap_[child]] <= activity_[v]) {
      break;
    }
    heap_[i] = heap_[child];
    heap_index_[heap_[i]] = static_cast<int>(i);
    i = child;
  }
  heap_[i] = v;
  heap_index_[v] = static_cast<int>(i);
}

} // namespace rcgp::sat
