#include "core/evolve.hpp"

#include <optional>
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

} // namespace

namespace detail {

robust::EvolveCheckpoint start_lineage(const rqfp::Netlist& initial,
                                       std::span<const tt::TruthTable> spec,
                                       const EvolveParams& params) {
  static obs::Counter& c_evaluations =
      obs::registry().counter("evolve.evaluations");
  if (spec.size() != initial.num_pos()) {
    throw std::invalid_argument("evolve: spec/PO count mismatch");
  }
  robust::EvolveCheckpoint state;
  state.seed = params.seed;
  state.lambda = params.lambda;
  state.mu = params.mutation.mu;
  state.generations_total = params.generations;
  state.best = params.disable_shrink ? initial : shrink(initial);
  state.best_fitness = evaluate(state.best, spec, params.fitness);
  if (!state.best_fitness.functionally_correct()) {
    throw std::invalid_argument(
        "evolve: initial netlist does not implement the specification");
  }
  state.evaluations = 1;
  c_evaluations.inc();
  return state;
}

/// Offspring are evaluated λ-parallel through an EvalPool. Every stateful
/// decision (budget checks, checkpoints, selection, acceptance) happens at
/// generation boundaries on this thread, and offspring k of generation g
/// draws from the counter-based stream (seed, g, k), so the run is
/// bit-identical for every thread count and never needs to persist RNG
/// engine state.
EvolveResult continue_lineage(robust::EvolveCheckpoint state,
                              std::span<const tt::TruthTable> spec,
                              const EvolveParams& params, bool resumed) {
  if (state.seed != params.seed || state.lambda != params.lambda ||
      state.mu != params.mutation.mu ||
      state.generations_total != params.generations) {
    throw std::invalid_argument(
        "evolve: the lineage state was taken under a different run "
        "configuration (seed/lambda/mu/generations mismatch)");
  }
  if (spec.size() != state.best.num_pos()) {
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

  // The state's own clock keeps running, so deadlines and the reported
  // seconds span the whole resume chain.
  util::Stopwatch watch;
  const double base_seconds = state.seconds;
  const auto elapsed = [&] { return base_seconds + watch.seconds(); };
  // Counted into the registry at exit: only this call's share.
  const std::uint64_t start_gen = state.generations_run;
  const std::uint64_t start_evaluations = state.evaluations;
  const std::uint64_t start_improvements = state.improvements;
  const std::uint64_t start_sat_confirmations = state.sat_confirmations;

  obs::TraceSink* const trace = params.trace;

  rqfp::Netlist& parent = state.best;
  Fitness& parent_fit = state.best_fitness;
  {
    // Re-evaluating restores Fitness::objective (not serialized) and
    // cross-checks the state's netlist against its fitness — a
    // corrupted-but-CRC-valid checkpoint never continues silently. Not
    // counted: the state already accounts for this evaluation.
    const Fitness fit = evaluate(parent, spec, params.fitness);
    if (!fit.functionally_correct()) {
      throw robust::IntegrityError(
          robust::IntegrityError::Kind::kFunctional, "evolve:resume",
          "checkpointed parent does not implement the specification",
          io::write_rqfp_string(parent));
    }
    if (fit.success_rate != parent_fit.success_rate ||
        fit.n_r != parent_fit.n_r || fit.n_g != parent_fit.n_g ||
        fit.n_b != parent_fit.n_b) {
      throw robust::IntegrityError(
          robust::IntegrityError::Kind::kFunctional, "evolve:resume",
          "checkpointed fitness " + parent_fit.to_string() +
              " does not match re-evaluated parent " + fit.to_string(),
          io::write_rqfp_string(parent));
    }
    parent_fit = fit;
  }
  c_runs.inc();
  if (params.paranoia >= robust::ParanoiaLevel::kBoundaries) {
    robust::enforce_integrity(parent, spec,
                              resumed ? "evolve:resume" : "evolve:start");
  }

  EvalPool pool(EvalPool::resolve_threads(params.threads, params.lambda));
  std::vector<OffspringResult> offspring(params.lambda);
  // Bumped on every accept, so a worker whose base holds the current
  // parent skips comparing the two gene by gene.
  std::uint64_t parent_version = 1;

  if (trace) {
    auto ev = trace->event("run_start");
    ev.field("optimizer", "evolve")
        .field("generations", params.generations)
        .field("lambda", static_cast<std::uint64_t>(params.lambda))
        .field("mu", params.mutation.mu)
        .field("seed", params.seed)
        .field("threads", static_cast<std::uint64_t>(pool.threads()))
        .field("resumed", resumed);
    put_fitness(ev, parent_fit);
  }

  const bool checkpointing = !params.checkpoint_path.empty();
  const auto save_checkpoint_now = [&] {
    state.seconds = elapsed();
    robust::save_checkpoint(state, params.checkpoint_path);
    if (trace) {
      trace->event("checkpoint_saved")
          .field("path", std::string_view(params.checkpoint_path))
          .field("generation", state.generations_run)
          .field("evaluations", state.evaluations);
    }
  };

  // One stop rule at the top of every generation (RunBudget::check). The
  // periodic checkpoint comes after it, so a stop on a checkpoint
  // boundary writes once, at exit.
  std::optional<robust::StopReason> stop;
  while (!(stop = params.budget.check(state.progress(), elapsed()))) {
    const std::uint64_t gen = state.generations_run;
    if (checkpointing && params.checkpoint_interval && gen > start_gen &&
        gen % params.checkpoint_interval == 0) {
      save_checkpoint_now();
    }

    EvalJob job;
    job.parent = &parent;
    job.spec = spec;
    job.mutation = params.mutation;
    job.fitness = params.fitness;
    job.seed = params.seed;
    job.generation = gen;
    job.lambda = params.lambda;
    job.parent_version = parent_version;
    // Selection below never takes a wrong child over the correct parent,
    // so a child need not be simulated past its first wrong output.
    job.early_reject = true;
    // Polled between offspring on every worker, so a deadline or a SIGINT
    // is honored within one evaluation even for SAT-heavy configurations.
    job.should_abort = [&] {
      return params.budget.interrupted(elapsed()).has_value();
    };
    if (!pool.evaluate_generation(job, offspring)) {
      // Aborted mid-generation: the partial generation is discarded (a
      // generation is atomic w.r.t. both the result and resume), and the
      // monotone interrupt rule still gives the verdict the worker saw.
      stop = params.budget.interrupted(elapsed())
                 .value_or(robust::StopReason::kStopRequested);
      break;
    }
    state.evaluations += params.lambda;

    // Selection scan in offspring-index order: a later offspring with
    // better-or-equal fitness wins the tie, exactly as the historical
    // sequential loop decided — and independent of which worker finished
    // first.
    std::size_t best_k = 0;
    bool have_child = false;
    for (unsigned k = 0; k < params.lambda; ++k) {
      state.mutations_attempted.add(offspring[k].stats);
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
        ++state.sat_confirmations;
        state.sat_cec_conflicts += cec.conflicts;
        accept = cec.verdict != cec::CecVerdict::kNotEquivalent;
      }
      if (accept) {
        parent = params.disable_shrink ? std::move(best_child)
                                       : shrink(best_child);
        parent_fit = best_child_fit;
        ++parent_version;
        state.mutations_accepted.add(offspring[best_k].stats);
        if (params.paranoia == robust::ParanoiaLevel::kEveryAcceptance) {
          robust::enforce_integrity(
              parent, spec,
              "evolve:acceptance:gen=" + std::to_string(gen));
        }
        if (improved) {
          ++state.improvements;
          state.since_improvement = 0;
          h_gap.observe(static_cast<double>(gen - state.last_improvement_gen));
          state.last_improvement_gen = gen;
          if (trace) {
            auto ev = trace->event("improvement");
            ev.field("gen", gen)
                .field("evaluations", state.evaluations)
                .field("improvements", state.improvements)
                .field("elapsed_s", elapsed());
            put_fitness(ev, parent_fit);
          }
          if (params.on_improvement) {
            params.on_improvement(gen, parent_fit);
          }
        } else {
          ++state.since_improvement;
        }
      } else {
        ++state.since_improvement;
      }
    } else {
      ++state.since_improvement;
    }
    state.generations_run = gen + 1;

    if (trace && params.trace_heartbeat &&
        (gen + 1) % params.trace_heartbeat == 0) {
      auto ev = trace->event("heartbeat");
      ev.field("gen", gen)
          .field("evaluations", state.evaluations)
          .field("improvements", state.improvements)
          .field("elapsed_s", elapsed());
      put_fitness(ev, parent_fit);
    }
  }

  const robust::StopReason stop_reason = *stop;
  if (params.paranoia >= robust::ParanoiaLevel::kBoundaries) {
    robust::enforce_integrity(parent, spec, "evolve:end");
  }
  if (checkpointing) {
    // Final boundary checkpoint on every exit path, so an interrupted run
    // can always be continued and a completed run leaves an auditable
    // terminal state.
    save_checkpoint_now();
  }
  state.seconds = elapsed();

  c_generations.inc(state.generations_run - start_gen);
  c_evaluations.inc(state.evaluations - start_evaluations);
  c_improvements.inc(state.improvements - start_improvements);
  c_sat_confirmations.inc(state.sat_confirmations - start_sat_confirmations);

  if (trace) {
    auto ev = trace->event("run_end");
    ev.field("optimizer", "evolve")
        .field("reason",
               std::string_view(run_end_reason(stop_reason, resumed)))
        .field("generations_run", state.generations_run)
        .field("evaluations", state.evaluations)
        .field("improvements", state.improvements)
        .field("sat_confirmations", state.sat_confirmations)
        .field("sat_cec_conflicts", state.sat_cec_conflicts)
        .field("elapsed_s", state.seconds);
    put_fitness(ev, parent_fit);
    put_mix(ev, "mutations_attempted", state.mutations_attempted);
    put_mix(ev, "mutations_accepted", state.mutations_accepted);
    trace->flush();
  }
  return EvolveResult{std::move(state), stop_reason, resumed};
}

} // namespace detail

} // namespace rcgp::core
