#include "exact/exact_rqfp.hpp"

#include <stdexcept>

#include "cec/sim_cec.hpp"
#include "robust/stop.hpp"
#include "sat/cnf.hpp"
#include "util/stopwatch.hpp"

namespace rcgp::exact {

namespace {

using sat::Lit;

/// One (gates, garbage) feasibility encoding.
class Encoding {
public:
  Encoding(std::span<const tt::TruthTable> spec, std::uint32_t num_gates)
      : spec_(spec),
        num_pis_(spec.empty() ? 0 : spec[0].num_vars()),
        num_gates_(num_gates),
        solver_(),
        builder_(solver_) {
    build();
  }

  /// Number of selectable ports before gate i: constant + PIs + 3 per gate.
  std::uint32_t ports_before(std::uint32_t i) const {
    return 1 + num_pis_ + 3 * i;
  }
  std::uint32_t total_ports() const { return ports_before(num_gates_); }

  sat::Solver& solver() { return solver_; }

  /// Adds the cardinality bound: at most `g` gate-output ports unused.
  void bound_garbage(std::uint32_t g);

  /// Decodes a model into a netlist.
  rqfp::Netlist decode() const;

private:
  void build();
  /// Value of port p under assignment x as a literal (constant ports fold
  /// to true/false literals).
  Lit port_value(std::uint32_t p, std::uint64_t x) const;

  std::span<const tt::TruthTable> spec_;
  unsigned num_pis_;
  std::uint32_t num_gates_;
  sat::Solver solver_;
  sat::CnfBuilder builder_;

  // sel_[i][s][p]: gate i input slot s reads port p.
  std::vector<std::vector<std::vector<Lit>>> sel_;
  // cfg_[i][slot9]: inverter configuration bits.
  std::vector<std::vector<Lit>> cfg_;
  // val_[i][k][x]: output k of gate i under assignment x.
  std::vector<std::vector<std::vector<Lit>>> val_;
  // po_[o][p]: output o bound to port p.
  std::vector<std::vector<Lit>> po_;
  // unused_[i*3+k]: gate output port has no consumer.
  std::vector<Lit> unused_;
};

Lit Encoding::port_value(std::uint32_t p, std::uint64_t x) const {
  // This helper is only valid for constant and PI ports; gate ports are
  // covered by val_ variables (callers dispatch).
  if (p == 0) {
    return const_cast<Encoding*>(this)->builder_.true_lit();
  }
  const unsigned pi = p - 1;
  const bool v = (x >> pi) & 1;
  auto& b = const_cast<Encoding*>(this)->builder_;
  return v ? b.true_lit() : b.false_lit();
}

void Encoding::build() {
  const std::uint64_t num_assignments = std::uint64_t{1} << num_pis_;

  // Allocate selection, config, and value variables.
  sel_.resize(num_gates_);
  cfg_.resize(num_gates_);
  val_.resize(num_gates_);
  for (std::uint32_t i = 0; i < num_gates_; ++i) {
    sel_[i].resize(3);
    for (unsigned s = 0; s < 3; ++s) {
      sel_[i][s].resize(ports_before(i));
      for (auto& lit : sel_[i][s]) {
        lit = builder_.new_lit();
      }
      builder_.exactly_one(sel_[i][s]);
    }
    cfg_[i].resize(9);
    for (auto& lit : cfg_[i]) {
      lit = builder_.new_lit();
    }
    val_[i].resize(3);
    for (unsigned k = 0; k < 3; ++k) {
      val_[i][k].resize(num_assignments);
      for (auto& lit : val_[i][k]) {
        lit = builder_.new_lit();
      }
    }
  }
  po_.resize(spec_.size());
  for (auto& row : po_) {
    row.resize(total_ports());
    for (auto& lit : row) {
      lit = builder_.new_lit();
    }
    builder_.exactly_one(row);
  }

  // Single fan-out: every non-constant port has at most one consumer.
  for (std::uint32_t p = 1; p < total_ports(); ++p) {
    std::vector<Lit> consumers;
    for (std::uint32_t i = 0; i < num_gates_; ++i) {
      if (p >= ports_before(i)) {
        continue;
      }
      for (unsigned s = 0; s < 3; ++s) {
        consumers.push_back(sel_[i][s][p]);
      }
    }
    for (std::size_t o = 0; o < po_.size(); ++o) {
      consumers.push_back(po_[o][p]);
    }
    builder_.at_most_one(consumers);
  }

  // Gate semantics: for each gate, slot, assignment, define the selected
  // input value, apply the inverter bit, and take the majority.
  for (std::uint32_t i = 0; i < num_gates_; ++i) {
    // in_val[s][x]: value feeding slot s of gate i.
    std::vector<std::vector<Lit>> in_val(3);
    for (unsigned s = 0; s < 3; ++s) {
      in_val[s].resize(num_assignments);
      for (std::uint64_t x = 0; x < num_assignments; ++x) {
        in_val[s][x] = builder_.new_lit();
      }
      for (std::uint32_t p = 0; p < ports_before(i); ++p) {
        for (std::uint64_t x = 0; x < num_assignments; ++x) {
          Lit pv;
          if (p <= num_pis_) {
            pv = port_value(p, x);
          } else {
            const std::uint32_t src = (p - num_pis_ - 1) / 3;
            const unsigned k = (p - num_pis_ - 1) % 3;
            pv = val_[src][k][x];
          }
          // sel -> (in_val == pv)
          solver_.add_clause({~sel_[i][s][p], ~in_val[s][x], pv});
          solver_.add_clause({~sel_[i][s][p], in_val[s][x], ~pv});
        }
      }
    }
    for (unsigned k = 0; k < 3; ++k) {
      for (std::uint64_t x = 0; x < num_assignments; ++x) {
        Lit phased[3];
        for (unsigned s = 0; s < 3; ++s) {
          phased[s] = builder_.make_xor(in_val[s][x], cfg_[i][3 * k + s]);
        }
        const Lit m = builder_.make_maj(phased[0], phased[1], phased[2]);
        builder_.assert_equal(val_[i][k][x], m);
      }
    }
  }

  // PO correctness: choosing port p for output o forces p's value to match
  // the specification on every assignment.
  for (std::size_t o = 0; o < spec_.size(); ++o) {
    for (std::uint32_t p = 0; p < total_ports(); ++p) {
      for (std::uint64_t x = 0; x < num_assignments; ++x) {
        const bool want = spec_[o].bit(x);
        Lit pv;
        if (p <= num_pis_) {
          pv = port_value(p, x);
        } else {
          const std::uint32_t src = (p - num_pis_ - 1) / 3;
          const unsigned k = (p - num_pis_ - 1) % 3;
          pv = val_[src][k][x];
        }
        solver_.add_clause({~po_[o][p], want ? pv : ~pv});
      }
    }
  }

  // Symmetry breaking: any permutation of a gate's input slots is
  // absorbed by permuting its inverter-configuration columns, so force
  // in[0] <= in[1] <= in[2].
  for (std::uint32_t i = 0; i < num_gates_; ++i) {
    for (unsigned s = 0; s + 1 < 3; ++s) {
      for (std::uint32_t p = 1; p < ports_before(i); ++p) {
        for (std::uint32_t q = 0; q < p; ++q) {
          solver_.add_clause({~sel_[i][s][p], ~sel_[i][s + 1][q]});
        }
      }
    }
  }

  // unused[p]: gate output port p has no consumer (for the garbage bound).
  unused_.resize(3 * num_gates_);
  for (std::uint32_t g = 0; g < num_gates_; ++g) {
    for (unsigned k = 0; k < 3; ++k) {
      const std::uint32_t p = 1 + num_pis_ + 3 * g + k;
      std::vector<Lit> consumers;
      for (std::uint32_t i = g + 1; i < num_gates_; ++i) {
        for (unsigned s = 0; s < 3; ++s) {
          consumers.push_back(sel_[i][s][p]);
        }
      }
      for (std::size_t o = 0; o < po_.size(); ++o) {
        consumers.push_back(po_[o][p]);
      }
      const Lit used = builder_.make_or(consumers);
      unused_[3 * g + k] = ~used;
    }
  }

  // Every gate drives something: a circuit with a fully-unused gate would
  // already have been found at a smaller gate count (the driver searches
  // gate counts in ascending order), so this strengthening is sound.
  for (std::uint32_t g = 0; g < num_gates_; ++g) {
    solver_.add_clause(
        {~unused_[3 * g], ~unused_[3 * g + 1], ~unused_[3 * g + 2]});
  }
}

void Encoding::bound_garbage(std::uint32_t g) {
  // Sinz sequential counter: sum(unused_) <= g.
  const std::size_t n = unused_.size();
  if (g >= n) {
    return;
  }
  if (g == 0) {
    for (const Lit u : unused_) {
      solver_.add_clause({~u});
    }
    return;
  }
  // s[i][j]: among the first i+1 inputs at least j+1 are true (j < g).
  std::vector<std::vector<Lit>> s(n, std::vector<Lit>(g));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::uint32_t j = 0; j < g; ++j) {
      s[i][j] = builder_.new_lit();
    }
  }
  solver_.add_clause({~unused_[0], s[0][0]});
  for (std::uint32_t j = 1; j < g; ++j) {
    solver_.add_clause({~s[0][j]});
  }
  for (std::size_t i = 1; i < n; ++i) {
    solver_.add_clause({~unused_[i], s[i][0]});
    solver_.add_clause({~s[i - 1][0], s[i][0]});
    for (std::uint32_t j = 1; j < g; ++j) {
      solver_.add_clause({~unused_[i], ~s[i - 1][j - 1], s[i][j]});
      solver_.add_clause({~s[i - 1][j], s[i][j]});
    }
    // Taking unused_[i] when g are already used up would exceed the bound.
    solver_.add_clause({~unused_[i], ~s[i - 1][g - 1]});
  }
}

rqfp::Netlist Encoding::decode() const {
  rqfp::Netlist net(num_pis_);
  for (std::uint32_t i = 0; i < num_gates_; ++i) {
    std::array<rqfp::Port, 3> in{};
    for (unsigned s = 0; s < 3; ++s) {
      for (std::uint32_t p = 0; p < ports_before(i); ++p) {
        if (solver_.model_value(sel_[i][s][p])) {
          in[s] = p;
          break;
        }
      }
    }
    std::uint16_t bits = 0;
    for (unsigned b = 0; b < 9; ++b) {
      if (solver_.model_value(cfg_[i][b])) {
        bits |= 1u << b;
      }
    }
    net.add_gate(in, rqfp::InvConfig(bits));
  }
  for (std::size_t o = 0; o < po_.size(); ++o) {
    for (std::uint32_t p = 0; p < total_ports(); ++p) {
      if (solver_.model_value(po_[o][p])) {
        net.add_po(p);
        break;
      }
    }
  }
  return net;
}

} // namespace

ExactResult exact_try(std::span<const tt::TruthTable> spec,
                      std::uint32_t num_gates,
                      std::optional<std::uint32_t> max_garbage,
                      const ExactParams& params) {
  util::Stopwatch watch;
  ExactResult result;
  Encoding enc(spec, num_gates);
  if (max_garbage) {
    enc.bound_garbage(*max_garbage);
  }
  sat::SolveLimits limits;
  limits.max_conflicts = params.conflicts_per_call;
  limits.max_seconds = params.time_limit_seconds;
  limits.stop = params.stop;
  const auto verdict = enc.solver().solve({}, limits);
  result.sat_calls = 1;
  result.seconds = watch.seconds();
  switch (verdict) {
    case sat::SolveResult::kSat: {
      result.status = ExactStatus::kSolved;
      result.netlist = enc.decode();
      result.gates = num_gates;
      result.garbage = result.netlist->count_garbage_outputs();
      // Safety net: the decoded circuit must simulate to the spec.
      const auto sim = cec::sim_check(*result.netlist, spec);
      if (!sim.all_match) {
        throw std::logic_error("exact_try: decoded netlist mismatches spec");
      }
      break;
    }
    case sat::SolveResult::kUnsat:
      result.status = ExactStatus::kUnsat;
      break;
    case sat::SolveResult::kUnknown:
      result.status = ExactStatus::kTimeout;
      break;
  }
  return result;
}

ExactResult exact_synthesize(std::span<const tt::TruthTable> spec,
                             const ExactParams& params) {
  util::Stopwatch watch;
  ExactResult overall;
  auto budget_spent = [&]() {
    return (params.stop != nullptr && params.stop->stop_requested()) ||
           (params.time_limit_seconds > 0.0 &&
            watch.seconds() > params.time_limit_seconds);
  };

  for (std::uint32_t r = 0; r <= params.max_gates; ++r) {
    if (budget_spent()) {
      overall.status = ExactStatus::kTimeout;
      break;
    }
    // Each feasibility call gets at most the remaining wall-clock budget.
    ExactParams step = params;
    if (params.time_limit_seconds > 0.0) {
      step.time_limit_seconds =
          params.time_limit_seconds - watch.seconds();
    }
    auto res = exact_try(spec, r, std::nullopt, step);
    overall.sat_calls += res.sat_calls;
    if (res.status == ExactStatus::kTimeout) {
      overall.status = ExactStatus::kTimeout;
      break;
    }
    if (res.status == ExactStatus::kUnsat) {
      overall.status = ExactStatus::kUnsat; // keep trying more gates
      continue;
    }
    // Feasible at r gates: now minimize garbage (paper [15] optimizes the
    // pair (gates, garbage)).
    overall = res;
    if (params.minimize_garbage && res.netlist) {
      std::uint32_t best_g = res.garbage;
      while (best_g > 0 && !budget_spent()) {
        ExactParams tight_step = params;
        if (params.time_limit_seconds > 0.0) {
          tight_step.time_limit_seconds =
              params.time_limit_seconds - watch.seconds();
        }
        auto tighter = exact_try(spec, r, best_g - 1, tight_step);
        overall.sat_calls += tighter.sat_calls;
        if (tighter.status != ExactStatus::kSolved) {
          break;
        }
        overall.netlist = tighter.netlist;
        overall.garbage = tighter.garbage;
        best_g = tighter.garbage;
      }
    }
    overall.status = ExactStatus::kSolved;
    overall.gates = r;
    break;
  }
  overall.seconds = watch.seconds();
  return overall;
}

} // namespace rcgp::exact
