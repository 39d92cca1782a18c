#include "core/evolve.hpp"

#include <stdexcept>
#include <vector>

#include "cec/sat_cec.hpp"
#include "core/eval_pool.hpp"
#include "core/shrink.hpp"
#include "io/rqfp_writer.hpp"
#include "obs/metrics.hpp"
#include "robust/checkpoint.hpp"
#include "util/stopwatch.hpp"

namespace rcgp::core {

namespace {

void put_fitness(obs::TraceEvent& ev, const Fitness& f) {
  ev.field("success_rate", f.success_rate)
      .field("n_r", f.n_r)
      .field("n_g", f.n_g)
      .field("n_b", f.n_b);
}

void put_mix(obs::TraceEvent& ev, const char* key, const MutationMix& m) {
  ev.begin(key)
      .field("mutations", m.mutations)
      .field("genes_changed", m.genes_changed)
      .field("swaps", m.swaps)
      .field("direct_assigns", m.direct_assigns)
      .field("config_flips", m.config_flips)
      .field("po_moves", m.po_moves)
      .field("skipped_infeasible", m.skipped_infeasible)
      .end();
}

constexpr double kImprovementGapBounds[] = {1,    10,    100,   1000,
                                            1e4,  1e5,   1e6};

/// Stable run_end reason string; a resumed run that consumes its full
/// budget reports "resumed-complete" so the kill/resume smoke test can
/// assert the whole chain finished.
std::string run_end_reason(robust::StopReason reason, bool resumed) {
  if (resumed && reason == robust::StopReason::kCompleted) {
    return "resumed-complete";
  }
  return to_string(reason);
}

/// Shared implementation behind evolve() and evolve_resume(). When
/// `resume` is non-null the loop continues from the checkpointed state;
/// all result counters are then cumulative across the resume chain.
///
/// Offspring are evaluated λ-parallel through an EvalPool. Every stateful
/// decision (budget checks, checkpoints, selection, acceptance) happens at
/// generation boundaries on this thread, and offspring k of generation g
/// draws from the counter-based stream (seed, g, k), so the run is
/// bit-identical for every thread count and never needs to persist RNG
/// engine state.
EvolveResult evolve_run(const rqfp::Netlist& initial,
                        std::span<const tt::TruthTable> spec,
                        const EvolveParams& params,
                        const robust::EvolveCheckpoint* resume) {
  if (spec.size() != initial.num_pos()) {
    throw std::invalid_argument("evolve: spec/PO count mismatch");
  }
  // Registered once; afterwards only relaxed atomic adds touch these.
  static obs::Counter& c_runs = obs::registry().counter("evolve.runs");
  static obs::Counter& c_generations =
      obs::registry().counter("evolve.generations");
  static obs::Counter& c_evaluations =
      obs::registry().counter("evolve.evaluations");
  static obs::Counter& c_improvements =
      obs::registry().counter("evolve.improvements");
  static obs::Counter& c_sat_confirmations =
      obs::registry().counter("evolve.sat_confirmations");
  static obs::Histogram& h_gap = obs::registry().histogram(
      "evolve.generations_between_improvements", kImprovementGapBounds);

  util::Stopwatch watch;
  // Resumed runs keep counting the checkpointed wall clock, so deadlines
  // and the reported seconds span the whole resume chain.
  const double base_seconds = resume ? resume->elapsed_seconds : 0.0;
  const auto elapsed = [&] { return base_seconds + watch.seconds(); };

  obs::TraceSink* const trace = params.trace;

  EvolveResult result;
  result.resumed = resume != nullptr;
  rqfp::Netlist parent;
  Fitness parent_fit;
  if (resume) {
    parent = resume->parent;
    // Re-evaluating restores Fitness::objective (not serialized) and
    // cross-checks the checkpointed netlist against the checkpointed
    // fitness — a corrupted-but-CRC-valid state never continues silently.
    // Not counted: the checkpoint already accounts for this evaluation.
    parent_fit = evaluate(parent, spec, params.fitness);
    if (!parent_fit.functionally_correct()) {
      throw robust::IntegrityError(
          robust::IntegrityError::Kind::kFunctional, "evolve:resume",
          "checkpointed parent does not implement the specification",
          io::write_rqfp_string(parent));
    }
    if (parent_fit.success_rate != resume->fitness.success_rate ||
        parent_fit.n_r != resume->fitness.n_r ||
        parent_fit.n_g != resume->fitness.n_g ||
        parent_fit.n_b != resume->fitness.n_b) {
      throw robust::IntegrityError(
          robust::IntegrityError::Kind::kFunctional, "evolve:resume",
          "checkpointed fitness " + resume->fitness.to_string() +
              " does not match re-evaluated parent " + parent_fit.to_string(),
          io::write_rqfp_string(parent));
    }
    result.generations_run = resume->generation;
    result.evaluations = resume->evaluations;
    result.improvements = resume->improvements;
    result.sat_confirmations = resume->sat_confirmations;
    result.sat_cec_conflicts = resume->sat_cec_conflicts;
    result.mutations_attempted = resume->mutations_attempted;
    result.mutations_accepted = resume->mutations_accepted;
  } else {
    parent = params.disable_shrink ? initial : shrink(initial);
    parent_fit = evaluate(parent, spec, params.fitness);
    ++result.evaluations;
    if (!parent_fit.functionally_correct()) {
      throw std::invalid_argument(
          "evolve: initial netlist does not implement the specification");
    }
  }
  c_runs.inc();
  if (params.paranoia >= robust::ParanoiaLevel::kBoundaries) {
    robust::enforce_integrity(parent, spec,
                              resume ? "evolve:resume" : "evolve:start");
  }

  EvalPool pool(EvalPool::resolve_threads(params.threads, params.lambda));
  std::vector<OffspringResult> offspring(params.lambda);

  if (trace) {
    if (resume) {
      trace->event("checkpoint_loaded")
          .field("path", std::string_view(params.checkpoint_path))
          .field("generation", resume->generation)
          .field("evaluations", resume->evaluations);
    }
    auto ev = trace->event("run_start");
    ev.field("optimizer", "evolve")
        .field("generations", params.generations)
        .field("lambda", static_cast<std::uint64_t>(params.lambda))
        .field("mu", params.mutation.mu)
        .field("seed", params.seed)
        .field("threads", static_cast<std::uint64_t>(pool.threads()))
        .field("resumed", result.resumed);
    put_fitness(ev, parent_fit);
  }

  std::uint64_t since_improvement = resume ? resume->since_improvement : 0;
  std::uint64_t last_improvement_gen =
      resume ? resume->last_improvement_gen : 0;
  auto stop_reason = robust::StopReason::kCompleted;

  // Boundary budget predicate, checked once per generation before the λ
  // dispatch. The evaluation-budget form `evaluations + λ > max` is
  // arithmetically identical to the historical per-offspring check with
  // mid-generation rollback: a generation runs iff it fits the budget
  // whole. Check order (stop, evaluations, time) matches the historical
  // predicate so resumed runs report identical stop reasons.
  const auto boundary_stop = [&]() -> bool {
    if (params.budget.stop_requested()) {
      stop_reason = robust::StopReason::kStopRequested;
      return true;
    }
    if (params.budget.max_evaluations &&
        result.evaluations + params.lambda > params.budget.max_evaluations) {
      stop_reason = robust::StopReason::kEvaluationBudget;
      return true;
    }
    if (params.budget.deadline_seconds > 0.0 &&
        elapsed() > params.budget.deadline_seconds) {
      stop_reason = robust::StopReason::kTimeLimit;
      return true;
    }
    return false;
  };
  // Polled between offspring on every worker, so a deadline or a SIGINT is
  // honored within one evaluation even for SAT-heavy configurations. Only
  // monotone conditions: once true mid-generation it is still true at the
  // boundary, where boundary_stop() re-derives the reason after the
  // partial generation is discarded. The evaluation budget is not polled
  // here — it is fully decided at the boundary.
  const auto mid_generation_abort = [&]() -> bool {
    return params.budget.stop_requested() ||
           (params.budget.deadline_seconds > 0.0 &&
            elapsed() > params.budget.deadline_seconds);
  };

  const bool checkpointing = !params.checkpoint_path.empty();
  const auto make_checkpoint = [&] {
    robust::EvolveCheckpoint ck;
    ck.seed = params.seed;
    ck.lambda = params.lambda;
    ck.mu = params.mutation.mu;
    ck.generations_total = params.generations;
    ck.generation = result.generations_run;
    ck.evaluations = result.evaluations;
    ck.improvements = result.improvements;
    ck.sat_confirmations = result.sat_confirmations;
    ck.sat_cec_conflicts = result.sat_cec_conflicts;
    ck.since_improvement = since_improvement;
    ck.last_improvement_gen = last_improvement_gen;
    ck.elapsed_seconds = elapsed();
    ck.fitness = parent_fit;
    ck.mutations_attempted = result.mutations_attempted;
    ck.mutations_accepted = result.mutations_accepted;
    ck.parent = parent;
    return ck;
  };
  const auto save_checkpoint_now = [&] {
    robust::save_checkpoint(make_checkpoint(), params.checkpoint_path);
    if (trace) {
      trace->event("checkpoint_saved")
          .field("path", std::string_view(params.checkpoint_path))
          .field("generation", result.generations_run)
          .field("evaluations", result.evaluations);
    }
  };

  const std::uint64_t start_gen = resume ? resume->generation : 0;
  for (std::uint64_t gen = start_gen; gen < params.generations; ++gen) {
    if (params.budget.max_generations &&
        gen >= params.budget.max_generations) {
      stop_reason = robust::StopReason::kGenerationBudget;
      break;
    }
    if (checkpointing && params.checkpoint_interval && gen > start_gen &&
        gen % params.checkpoint_interval == 0) {
      save_checkpoint_now();
    }
    if (boundary_stop()) {
      break;
    }

    EvalJob job;
    job.parent = &parent;
    job.spec = spec;
    job.mutation = params.mutation;
    job.fitness = params.fitness;
    job.seed = params.seed;
    job.generation = gen;
    job.lambda = params.lambda;
    job.should_abort = mid_generation_abort;
    if (!pool.evaluate_generation(job, offspring)) {
      // Aborted mid-generation: the partial generation is discarded (a
      // generation is atomic w.r.t. both the result and resume) and the
      // reason is re-derived — the abort conditions are monotone, so
      // boundary_stop() finds the same verdict the worker saw.
      if (!boundary_stop()) {
        stop_reason = robust::StopReason::kStopRequested;
      }
      break;
    }
    result.evaluations += params.lambda;

    // Selection scan in offspring-index order: a later offspring with
    // better-or-equal fitness wins the tie, exactly as the historical
    // sequential loop decided — and independent of which worker finished
    // first.
    std::size_t best_k = 0;
    bool have_child = false;
    for (unsigned k = 0; k < params.lambda; ++k) {
      result.mutations_attempted.add(offspring[k].stats);
      if (!have_child ||
          offspring[k].fitness.better_or_equal(offspring[best_k].fitness)) {
        best_k = k;
        have_child = true;
      }
    }

    if (have_child &&
        offspring[best_k].fitness.better_or_equal(parent_fit)) {
      rqfp::Netlist& best_child = offspring[best_k].child;
      const Fitness best_child_fit = offspring[best_k].fitness;
      const bool improved = best_child_fit.strictly_better(parent_fit);
      bool accept = true;
      if (improved && params.sat_verify_improvements) {
        // Formal confirmation (paper §3.2.1 pairs simulation with formal
        // verification before trusting a candidate).
        const auto cec =
            cec::sat_check(best_child, spec, params.sat_conflict_budget);
        ++result.sat_confirmations;
        result.sat_cec_conflicts += cec.conflicts;
        accept = cec.verdict != cec::CecVerdict::kNotEquivalent;
      }
      if (accept) {
        parent = params.disable_shrink ? std::move(best_child)
                                       : shrink(best_child);
        parent_fit = best_child_fit;
        result.mutations_accepted.add(offspring[best_k].stats);
        if (params.paranoia == robust::ParanoiaLevel::kEveryAcceptance) {
          robust::enforce_integrity(
              parent, spec,
              "evolve:acceptance:gen=" + std::to_string(gen));
        }
        if (improved) {
          ++result.improvements;
          since_improvement = 0;
          h_gap.observe(static_cast<double>(gen - last_improvement_gen));
          last_improvement_gen = gen;
          if (trace) {
            auto ev = trace->event("improvement");
            ev.field("gen", gen)
                .field("evaluations", result.evaluations)
                .field("improvements", result.improvements)
                .field("elapsed_s", elapsed());
            put_fitness(ev, parent_fit);
          }
          if (params.on_improvement) {
            params.on_improvement(gen, parent_fit);
          }
        } else {
          ++since_improvement;
        }
      } else {
        ++since_improvement;
      }
    } else {
      ++since_improvement;
    }
    result.generations_run = gen + 1;

    if (trace && params.trace_heartbeat &&
        (gen + 1) % params.trace_heartbeat == 0) {
      auto ev = trace->event("heartbeat");
      ev.field("gen", gen)
          .field("evaluations", result.evaluations)
          .field("improvements", result.improvements)
          .field("elapsed_s", elapsed());
      put_fitness(ev, parent_fit);
    }

    if (params.stagnation_limit &&
        since_improvement >= params.stagnation_limit) {
      stop_reason = robust::StopReason::kStagnation;
      break;
    }
  }

  if (params.paranoia >= robust::ParanoiaLevel::kBoundaries) {
    robust::enforce_integrity(parent, spec, "evolve:end");
  }
  if (checkpointing) {
    // Final boundary checkpoint on every exit path, so an interrupted run
    // can always be continued and a completed run leaves an auditable
    // terminal state.
    save_checkpoint_now();
  }

  result.best = std::move(parent);
  result.best_fitness = parent_fit;
  result.seconds = elapsed();
  result.stop_reason = stop_reason;
  result.since_improvement = since_improvement;
  result.last_improvement_gen = last_improvement_gen;

  c_generations.inc(result.generations_run -
                    (resume ? resume->generation : 0));
  c_evaluations.inc(result.evaluations -
                    (resume ? resume->evaluations : 0));
  c_improvements.inc(result.improvements -
                     (resume ? resume->improvements : 0));
  c_sat_confirmations.inc(result.sat_confirmations -
                          (resume ? resume->sat_confirmations : 0));

  if (trace) {
    auto ev = trace->event("run_end");
    ev.field("optimizer", "evolve")
        .field("reason",
               std::string_view(run_end_reason(stop_reason, result.resumed)))
        .field("generations_run", result.generations_run)
        .field("evaluations", result.evaluations)
        .field("improvements", result.improvements)
        .field("sat_confirmations", result.sat_confirmations)
        .field("sat_cec_conflicts", result.sat_cec_conflicts)
        .field("elapsed_s", result.seconds);
    put_fitness(ev, result.best_fitness);
    put_mix(ev, "mutations_attempted", result.mutations_attempted);
    put_mix(ev, "mutations_accepted", result.mutations_accepted);
    trace->flush();
  }
  return result;
}

} // namespace

namespace detail {

EvolveResult evolve_impl(const rqfp::Netlist& initial,
                         std::span<const tt::TruthTable> spec,
                         const EvolveParams& params) {
  return evolve_run(initial, spec, params, nullptr);
}

EvolveResult evolve_resume_impl(const std::string& checkpoint_path,
                                std::span<const tt::TruthTable> spec,
                                const EvolveParams& params) {
  static obs::Counter& c_resumes = obs::registry().counter("evolve.resumes");
  const robust::EvolveCheckpoint ck = robust::load_checkpoint(checkpoint_path);
  EvolveParams run_params = params;
  if (run_params.checkpoint_path.empty()) {
    run_params.checkpoint_path = checkpoint_path;
  }
  c_resumes.inc();
  return evolve_continue_impl(ck, spec, run_params);
}

EvolveResult evolve_continue_impl(const robust::EvolveCheckpoint& state,
                                  std::span<const tt::TruthTable> spec,
                                  const EvolveParams& params) {
  if (state.seed != params.seed ||
      state.lambda != params.lambda ||
      state.mu != params.mutation.mu ||
      state.generations_total != params.generations) {
    throw std::invalid_argument(
        "evolve_resume: checkpoint was taken under a different run "
        "configuration (seed/lambda/mu/generations mismatch)");
  }
  return evolve_run(state.parent, spec, params, &state);
}

} // namespace detail

EvolveResult evolve_resume(const std::string& checkpoint_path,
                           std::span<const tt::TruthTable> spec,
                           const EvolveParams& params) {
  return detail::evolve_resume_impl(checkpoint_path, spec, params);
}

} // namespace rcgp::core
