#include "core/fitness.hpp"

#include <stdexcept>

#include "cec/sim_cec.hpp"
#include "rqfp/cost.hpp"

namespace rcgp::core {

bool Fitness::better_or_equal(const Fitness& other) const {
  if (success_rate != other.success_rate) {
    return success_rate > other.success_rate;
  }
  if (!functionally_correct()) {
    return true; // equally wrong: allow drift
  }
  if (objective == Objective::kJjCount) {
    if (jjs() != other.jjs()) {
      return jjs() < other.jjs();
    }
    return n_g <= other.n_g;
  }
  if (n_r != other.n_r) {
    return n_r < other.n_r;
  }
  if (n_g != other.n_g) {
    return n_g < other.n_g;
  }
  return n_b <= other.n_b;
}

std::string Fitness::to_string() const {
  return "rate=" + std::to_string(success_rate) +
         " n_r=" + std::to_string(n_r) + " n_g=" + std::to_string(n_g) +
         " n_b=" + std::to_string(n_b);
}

namespace {

Fitness from_sim(const rqfp::Netlist& net, const cec::SimResult& sim,
                 const FitnessOptions& options) {
  Fitness f;
  f.objective = options.objective;
  f.success_rate = sim.success_rate;
  if (!sim.all_match) {
    return f;
  }
  f.success_rate = 1.0;
  const auto cost = rqfp::cost_of(net);
  f.n_r = cost.n_r;
  f.n_g = cost.n_g;
  f.n_b = cost.n_b;
  return f;
}

} // namespace

Fitness evaluate(const rqfp::Netlist& net,
                 std::span<const tt::TruthTable> spec,
                 const FitnessOptions& options) {
  return from_sim(net, cec::sim_check(net, spec), options);
}

void evaluate_delta_batch(const rqfp::Netlist& base,
                          const rqfp::SimCache& cache,
                          rqfp::CostCache& cost_cache,
                          const std::vector<const rqfp::Netlist*>& children,
                          std::span<const tt::TruthTable> spec,
                          const FitnessOptions& options,
                          rqfp::DeltaBatch& batch,
                          std::span<Fitness> out_fitness,
                          bool early_reject) {
  if (out_fitness.size() < children.size()) {
    throw std::invalid_argument("evaluate_delta_batch: fitness span too "
                                "small");
  }
  rqfp::simulate_delta_batch(
      base, children, cache, batch,
      early_reject ? spec : std::span<const tt::TruthTable>{});
  for (std::size_t c = 0; c < children.size(); ++c) {
    const rqfp::Netlist& child = *children[c];
    Fitness f;
    f.objective = options.objective;
    if (batch.children[c].rejected) {
      // Below 1: the first wrong PO's differing bits of word 0, over the
      // bits of word 0 of every PO.
      f.success_rate =
          1.0 - static_cast<double>(batch.children[c].word0_mismatches) /
                    (64.0 * static_cast<double>(spec.size()));
      out_fitness[c] = f;
      continue;
    }
    const auto sim = cec::sim_compare(batch.children[c].po, spec);
    f.success_rate = sim.success_rate;
    if (sim.all_match) {
      f.success_rate = 1.0;
      if (!cost_cache.valid) {
        rqfp::build_cost_cache(base, rqfp::BufferSchedule::kAsap, cost_cache);
      }
      const auto cost = rqfp::cost_of_delta(base, child, cost_cache);
      f.n_r = cost.n_r;
      f.n_g = cost.n_g;
      f.n_b = cost.n_b;
    }
    out_fitness[c] = f;
  }
}

} // namespace rcgp::core
