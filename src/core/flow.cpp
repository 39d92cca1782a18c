#include "core/flow.hpp"

#include <stdexcept>
#include <utility>

#include "core/window.hpp"

#include "aig/aig_simulate.hpp"
#include "aig/fraig.hpp"
#include "cec/sim_cec.hpp"
#include "obs/metrics.hpp"
#include "aig/resyn.hpp"
#include "aig/rewrite.hpp"
#include "mig/mig_from_aig.hpp"
#include "mig/mig_rewrite.hpp"
#include "obs/phase.hpp"
#include "rqfp/map_from_mig.hpp"
#include "rqfp/splitter.hpp"
#include "util/stopwatch.hpp"

namespace rcgp::core {

double FlowResult::phase_seconds(std::string_view name) const {
  for (const auto& r : phases) {
    if (r.depth == 0 && r.path == name) {
      return r.seconds;
    }
  }
  return 0.0;
}

aig::Aig aig_from_tables(std::span<const tt::TruthTable> spec,
                         std::span<const std::string> po_names) {
  if (spec.empty()) {
    throw std::invalid_argument("aig_from_tables: empty specification");
  }
  const unsigned nv = spec[0].num_vars();
  for (const auto& t : spec) {
    if (t.num_vars() != nv) {
      throw std::invalid_argument("aig_from_tables: mixed arities");
    }
  }
  aig::Aig net;
  std::vector<aig::Signal> pis;
  pis.reserve(nv);
  for (unsigned i = 0; i < nv; ++i) {
    pis.push_back(net.create_pi());
  }
  for (std::size_t o = 0; o < spec.size(); ++o) {
    const aig::Signal s = aig::build_factored(net, spec[o], pis);
    net.add_po(s, o < po_names.size() ? po_names[o] : "");
  }
  return net.cleanup();
}

FlowResult synthesize(const aig::Aig& input, const FlowOptions& options) {
  util::Stopwatch watch;
  FlowResult result;
  obs::PhaseCollector phases;
  // Checked between phases: a cooperative stop skips the remaining
  // optional phases but the mandatory mapping still runs, so the caller
  // always gets a valid (if unoptimized) netlist back. Both the
  // evolve.budget token and the limits token are honored.
  const auto stopped = [&] {
    return options.evolve.budget.stop_requested() ||
           options.limits.stop_requested();
  };
  // Costs are priced the way the CGP loop scores them.
  const rqfp::BufferSchedule schedule =
      options.algorithm == Algorithm::kAnneal
          ? options.anneal.fitness.schedule
          : options.evolve.fitness.schedule;

  // Phase 1: conventional logic synthesis (ABC resyn2 stand-in).
  aig::Aig net = input.cleanup();
  if (options.run_aig_optimization && !stopped()) {
    obs::PhaseSpan timer("aig-opt");
    net = aig::resyn2(net);
  }
  if (options.run_fraig && !stopped()) {
    obs::PhaseSpan timer("fraig");
    net = aig::fraig(net);
  }

  // Phase 2: AQFP-oriented majority logic (aqfp_resynthesis stand-in).
  mig::Mig m = [&] {
    obs::PhaseSpan timer("mig-map");
    return mig::mig_from_aig(net);
  }();
  if (options.run_mig_optimization && !stopped()) {
    obs::PhaseSpan timer("mig-opt");
    m = mig::optimize_mig(m);
  }

  // Phase 3: direct RQFP conversion + splitter insertion → the
  // initialization baseline.
  {
    obs::PhaseSpan timer("rqfp-map");
    rqfp::MapOptions map_options;
    map_options.pack_shared_fanins = options.pack_shared_fanins;
    rqfp::Netlist raw = rqfp::map_from_mig(m, nullptr, map_options);
    obs::PhaseSpan splitter_timer("splitter");
    result.initial = rqfp::insert_splitters(raw);
  }
  const std::string problem = result.initial.validate();
  if (!problem.empty()) {
    throw std::logic_error("flow: initialization produced illegal netlist: " +
                           problem);
  }
  result.initial_cost = rqfp::cost_of(result.initial, schedule);

  // Phase 4: CGP-based optimization against the exact specification.
  const auto spec = [&] {
    obs::PhaseSpan timer("spec-sim");
    return aig::simulate(net);
  }();
  if (options.evolve.paranoia >= robust::ParanoiaLevel::kBoundaries) {
    robust::enforce_integrity(result.initial, spec, "flow:initial");
  }
  if (options.run_cgp && !stopped()) {
    obs::PhaseSpan timer("cgp");
    // A fleet resume restores from state_dir through run() — never-started
    // islands still need the mapped baseline as their starting netlist.
    const bool fleet_resume =
        options.resume && !options.island.state_dir.empty();
    OptimizerOptions oo = options;
    oo.island.resume = oo.island.resume || fleet_resume;
    const Optimizer optimizer(std::move(oo));
    if (options.resume && !fleet_resume) {
      if (options.evolve.checkpoint_path.empty()) {
        throw std::invalid_argument(
            "flow: resume requested without a checkpoint path");
      }
      result.optimization = optimizer.resume(spec);
    } else {
      const rqfp::Netlist* start = &result.initial;
      if (options.cgp_seed != nullptr) {
        const bool fits =
            options.cgp_seed->num_pis() == result.initial.num_pis() &&
            options.cgp_seed->num_pos() == result.initial.num_pos() &&
            options.cgp_seed->validate().empty() &&
            cec::sim_check(*options.cgp_seed, spec).all_match;
        obs::registry()
            .counter(fits ? "flow.seed.used" : "flow.seed.rejected")
            .inc();
        if (fits) {
          start = options.cgp_seed;
        }
      }
      result.optimization = optimizer.run(*start, spec);
    }
    result.optimized = result.optimization.best;
  } else {
    result.optimized = result.initial;
  }
  if (options.run_exact_polish && !stopped()) {
    obs::PhaseSpan timer("exact-polish");
    ExactPolishParams polish;
    polish.budget = robust::overlay(options.evolve.budget, options.limits);
    result.optimized = exact_polish(result.optimized, polish);
  }
  if (options.evolve.paranoia >= robust::ParanoiaLevel::kBoundaries) {
    robust::enforce_integrity(result.optimized, spec, "flow:optimized");
  }
  {
    obs::PhaseSpan timer("cost");
    result.optimized_cost = rqfp::cost_of(result.optimized, schedule);
  }
  result.seconds_total = watch.seconds();
  result.phases = phases.records();

  if (obs::TraceSink* trace = options.evolve.trace) {
    auto ev = trace->event("flow");
    ev.field("seconds_total", result.seconds_total);
    ev.begin("phases");
    for (const auto& r : result.phases) {
      if (r.depth == 0) {
        ev.field(r.path, r.seconds);
      }
    }
    ev.end();
    ev.begin("initial")
        .field("n_r", result.initial_cost.n_r)
        .field("n_g", result.initial_cost.n_g)
        .field("n_b", result.initial_cost.n_b)
        .field("jjs", result.initial_cost.jjs)
        .end();
    ev.begin("optimized")
        .field("n_r", result.optimized_cost.n_r)
        .field("n_g", result.optimized_cost.n_g)
        .field("n_b", result.optimized_cost.n_b)
        .field("jjs", result.optimized_cost.jjs)
        .end();
  }
  return result;
}

FlowResult synthesize(std::span<const tt::TruthTable> spec,
                      const FlowOptions& options) {
  return synthesize(aig_from_tables(spec), options);
}

} // namespace rcgp::core
