#include "core/optimizer.hpp"

#include <stdexcept>
#include <utility>

#include "island/island.hpp"
#include "obs/metrics.hpp"
#include "robust/checkpoint.hpp"

namespace rcgp::core {

std::string_view to_string(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kEvolve: return "evolve";
    case Algorithm::kAnneal: return "anneal";
  }
  return "unknown";
}

Algorithm parse_algorithm(std::string_view name) {
  if (name == "evolve") return Algorithm::kEvolve;
  if (name == "anneal") return Algorithm::kAnneal;
  throw std::invalid_argument("unknown optimizer algorithm '" +
                              std::string(name) +
                              "' (expected evolve|anneal)");
}

std::string_view to_string(Topology topology) {
  switch (topology) {
    case Topology::kNone: return "none";
    case Topology::kRing: return "ring";
    case Topology::kStar: return "star";
    case Topology::kFull: return "full";
  }
  return "unknown";
}

Topology parse_topology(std::string_view name) {
  if (name == "none") return Topology::kNone;
  if (name == "ring") return Topology::kRing;
  if (name == "star") return Topology::kStar;
  if (name == "full") return Topology::kFull;
  throw std::invalid_argument("unknown island topology '" +
                              std::string(name) +
                              "' (expected none|ring|star|full)");
}

namespace {

OptimizeResult from_evolve(EvolveResult evolve) {
  OptimizeResult r;
  r.best = evolve.best;
  r.best_fitness = evolve.best_fitness;
  r.evaluations = evolve.evaluations;
  r.seconds = evolve.seconds;
  r.stop_reason = evolve.stop_reason;
  r.evolve = std::move(evolve);
  return r;
}

/// Loads the lineage saved at params.checkpoint_path and continues it.
EvolveResult resume_lineage(std::span<const tt::TruthTable> spec,
                            const EvolveParams& params) {
  static obs::Counter& c_resumes = obs::registry().counter("evolve.resumes");
  if (params.checkpoint_path.empty()) {
    throw std::invalid_argument(
        "Optimizer: resume needs a checkpoint path (set "
        "EvolveParams::checkpoint_path)");
  }
  robust::EvolveCheckpoint state =
      robust::load_checkpoint(params.checkpoint_path);
  c_resumes.inc();
  if (params.trace != nullptr) {
    params.trace->event("checkpoint_loaded")
        .field("path", std::string_view(params.checkpoint_path))
        .field("generation", state.generations_run)
        .field("evaluations", state.evaluations);
  }
  return detail::continue_lineage(std::move(state), spec, params,
                                  /*resumed=*/true);
}

} // namespace

Optimizer::Optimizer(OptimizerOptions options) : options_(std::move(options)) {
  if (options_.island.islands == 0) {
    throw std::invalid_argument("Optimizer: islands must be >= 1");
  }
  if (options_.island.islands > 1 &&
      options_.algorithm != Algorithm::kEvolve) {
    throw std::invalid_argument(
        "Optimizer: islands > 1 requires Algorithm::kEvolve");
  }
  if (options_.island.resume && options_.algorithm != Algorithm::kEvolve) {
    throw std::invalid_argument(
        "Optimizer: only Algorithm::kEvolve supports checkpointed resume");
  }
}

OptimizeResult Optimizer::run(const rqfp::Netlist& initial,
                              std::span<const tt::TruthTable> spec) const {
  static obs::Counter& c_runs = obs::registry().counter("optimizer.runs");
  c_runs.inc();
  OptimizeResult r;
  switch (options_.algorithm) {
    case Algorithm::kEvolve: {
      const island::FleetOptions& fleet = options_.island;
      EvolveParams p = options_.evolve;
      p.budget = robust::overlay(p.budget, options_.limits);
      if (fleet.islands > 1 || fleet.executor != nullptr) {
        r = from_evolve(island::run_fleet(initial, spec, p, fleet));
      } else if (fleet.resume) {
        r = from_evolve(resume_lineage(spec, p));
      } else {
        r = from_evolve(detail::continue_lineage(
            detail::start_lineage(initial, spec, p), spec, p));
      }
      break;
    }
    case Algorithm::kAnneal: {
      AnnealParams p = options_.anneal;
      p.budget = robust::overlay(p.budget, options_.limits);
      r.anneal = detail::anneal_impl(initial, spec, p);
      r.best = r.anneal.best;
      r.best_fitness = r.anneal.best_fitness;
      // Annealing evaluates once per step (an accepted candidate's re-check
      // is not counted).
      r.evaluations = r.anneal.steps_run;
      r.seconds = r.anneal.seconds;
      r.stop_reason = r.anneal.stop_reason;
      break;
    }
  }
  return r;
}

} // namespace rcgp::core
