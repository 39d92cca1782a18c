#include "core/anneal.hpp"

#include <cmath>
#include <stdexcept>

#include "cec/sim_cec.hpp"
#include "core/shrink.hpp"
#include "obs/metrics.hpp"
#include "rqfp/cost.hpp"
#include "util/stopwatch.hpp"

namespace rcgp::core {

double anneal_energy(const rqfp::Netlist& net,
                     std::span<const tt::TruthTable> spec) {
  const auto sim = cec::sim_check(net, spec);
  const auto cost = rqfp::cost_of(net);
  // Mismatched output bits dominate everything; then the paper's
  // lexicographic order flattened with well-separated weights.
  return 1e9 * static_cast<double>(sim.mismatching_bits) +
         1e6 * cost.n_r + 1e3 * cost.n_g + cost.n_b;
}

AnnealResult detail::anneal_impl(const rqfp::Netlist& initial,
                                 std::span<const tt::TruthTable> spec,
                                 const AnnealParams& params) {
  if (spec.size() != initial.num_pos()) {
    throw std::invalid_argument("anneal: spec/PO count mismatch");
  }
  static obs::Counter& c_runs = obs::registry().counter("anneal.runs");
  static obs::Counter& c_steps = obs::registry().counter("anneal.steps");
  static obs::Counter& c_accepted =
      obs::registry().counter("anneal.accepted");
  static obs::Counter& c_uphill =
      obs::registry().counter("anneal.uphill_accepted");

  util::Stopwatch watch;
  util::Rng rng(params.seed);
  obs::TraceSink* const trace = params.trace;

  AnnealResult result;
  rqfp::Netlist current = shrink(initial);
  double current_energy = anneal_energy(current, spec);
  // Mutation preserves the shape, so one cost cache follows the whole
  // walk: candidates are priced with cost_of_delta against `current` and
  // committed with update_cost_cache on acceptance.
  rqfp::CostCache cost_cache;
  rqfp::build_cost_cache(current, rqfp::BufferSchedule::kAsap, cost_cache);
  Fitness init_fit = evaluate(current, spec, params.fitness);
  if (!init_fit.functionally_correct()) {
    throw std::invalid_argument("anneal: initial netlist incorrect");
  }
  result.best = current;
  result.best_fitness = init_fit;
  c_runs.inc();

  if (trace) {
    trace->event("run_start")
        .field("optimizer", "anneal")
        .field("steps", params.steps)
        .field("t0", params.initial_temperature)
        .field("t1", params.final_temperature)
        .field("seed", params.seed)
        .field("success_rate", init_fit.success_rate)
        .field("n_r", init_fit.n_r)
        .field("n_g", init_fit.n_g)
        .field("n_b", init_fit.n_b);
  }

  const double t0 = params.initial_temperature;
  const double t1 = params.final_temperature;
  for (;;) {
    // A step is one evaluation. Annealing keeps no stagnation clock, so
    // the rule never reports stagnation here.
    const std::uint64_t step = result.steps_run;
    if (const auto stop = params.budget.check({step, params.steps, step, 1, 0},
                                              watch.seconds())) {
      result.stop_reason = *stop;
      break;
    }
    ++result.steps_run;
    const double progress =
        params.steps > 1
            ? static_cast<double>(step) / static_cast<double>(params.steps - 1)
            : 1.0;
    const double temperature = t0 * std::pow(t1 / t0, progress);

    rqfp::Netlist candidate = current;
    mutate(candidate, rng, params.mutation);
    const auto cand_sim = cec::sim_check(candidate, spec);
    const auto cand_cost = rqfp::cost_of_delta(current, candidate, cost_cache);
    const double candidate_energy =
        1e9 * static_cast<double>(cand_sim.mismatching_bits) +
        1e6 * cand_cost.n_r + 1e3 * cand_cost.n_g + cand_cost.n_b;
    const double delta = candidate_energy - current_energy;
    const bool accept =
        delta <= 0 || rng.uniform01() < std::exp(-delta / (1e3 * temperature));
    if (trace && params.trace_heartbeat &&
        (step + 1) % params.trace_heartbeat == 0) {
      trace->event("heartbeat")
          .field("step", step)
          .field("temperature", temperature)
          .field("energy", current_energy)
          .field("accepted", result.accepted)
          .field("uphill_accepted", result.uphill_accepted)
          .field("elapsed_s", watch.seconds());
    }
    if (!accept) {
      continue;
    }
    ++result.accepted;
    if (delta > 0) {
      ++result.uphill_accepted;
    }
    rqfp::update_cost_cache(current, candidate, cost_cache);
    current = std::move(candidate);
    current_energy = candidate_energy;

    const Fitness fit = evaluate(current, spec, params.fitness);
    if (fit.functionally_correct() &&
        fit.strictly_better(result.best_fitness)) {
      result.best = shrink(current);
      result.best_fitness = fit;
      if (trace) {
        trace->event("improvement")
            .field("step", step)
            .field("energy", current_energy)
            .field("elapsed_s", watch.seconds())
            .field("success_rate", fit.success_rate)
            .field("n_r", fit.n_r)
            .field("n_g", fit.n_g)
            .field("n_b", fit.n_b);
      }
    }
  }
  result.seconds = watch.seconds();
  c_steps.inc(result.steps_run);
  c_accepted.inc(result.accepted);
  c_uphill.inc(result.uphill_accepted);
  if (trace) {
    trace->event("run_end")
        .field("optimizer", "anneal")
        .field("reason", std::string_view(to_string(result.stop_reason)))
        .field("steps_run", result.steps_run)
        .field("accepted", result.accepted)
        .field("uphill_accepted", result.uphill_accepted)
        .field("elapsed_s", result.seconds)
        .field("success_rate", result.best_fitness.success_rate)
        .field("n_r", result.best_fitness.n_r)
        .field("n_g", result.best_fitness.n_g)
        .field("n_b", result.best_fitness.n_b);
    trace->flush();
  }
  return result;
}

} // namespace rcgp::core
