#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

namespace rcgp::robust {

/// Why an optimizer loop handed control back. Every loop in the framework
/// (evolve, island fleet, anneal, exact polish) exits through one of these
/// and reports it in its result and in the trace `run_end{reason}` event.
enum class StopReason : std::uint8_t {
  kCompleted,        // full configured budget consumed
  kStagnation,       // stagnation_limit generations without improvement
  kTimeLimit,        // RunBudget::deadline_seconds hit
  kGenerationBudget, // RunBudget::max_generations hit
  kEvaluationBudget, // RunBudget::max_evaluations hit
  kStopRequested,    // cooperative StopToken tripped (SIGINT/SIGTERM, API)
};

/// Stable string used in traces, logs, and the CLI ("completed",
/// "stagnation", "time-limit", ...).
std::string to_string(StopReason reason);
/// Inverse of to_string ("resumed-complete" also maps to kCompleted);
/// throws std::invalid_argument on unknown names.
StopReason parse_stop_reason(const std::string& name);

/// True for the reasons of RunBudget::interrupted (a stop token, a
/// deadline): the run was cut short and may be continued. Every other
/// reason is final.
bool is_interrupt(StopReason reason);

/// Cooperative cancellation flag. Loops poll `stop_requested()` between
/// offspring evaluations, so a trip is honored within one evaluation — not
/// one generation — even for SAT-heavy configs. Lock-free and async-signal
/// safe: `request_stop()` may be called from a signal handler.
class StopToken {
public:
  void request_stop() noexcept {
    stop_.store(true, std::memory_order_relaxed);
  }
  bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }
  /// Re-arms the token (e.g. between CLI runs in one process).
  void reset() noexcept { stop_.store(false, std::memory_order_relaxed); }

private:
  std::atomic<bool> stop_{false};
};

/// Where a loop stands at a generation boundary: everything the
/// deterministic stop rule reads. A run cut into pieces presents the same
/// record at the same boundary, so every piece reaches the same verdict.
struct Progress {
  std::uint64_t generations = 0; ///< generations (anneal: steps) done
  std::uint64_t planned = 0;     ///< generations the run is planned for
  std::uint64_t evaluations = 0; ///< evaluations spent
  std::uint64_t next_cost = 0;   ///< evaluations the next generation spends
  /// Generations since the last strict improvement (0 without a clock).
  std::uint64_t since_improvement = 0;
};

/// Run budgets threaded through every optimizer loop, combining hard
/// resource ceilings with a cooperative stop flag, and the one place that
/// decides whether a loop stops early and why. All limits are best-so-far
/// preserving: tripping any of them exits the loop cleanly with the
/// current best netlist. Every field left at its default (0, nullptr)
/// never stops anything.
struct RunBudget {
  /// Wall-clock ceiling in seconds measured from loop entry (resumed runs
  /// count the checkpointed elapsed time too). 0 = unlimited.
  double deadline_seconds = 0.0;
  /// Ceiling on the generation index — the run stops once this many
  /// generations have completed, counting generations replayed from a
  /// checkpoint (0 = unlimited). Lets tests and schedulers slice one
  /// logical run into resumable chunks.
  std::uint64_t max_generations = 0;
  /// Ceiling on fitness evaluations, cumulative across resumes
  /// (0 = unlimited). A generation runs only if it fits whole.
  std::uint64_t max_evaluations = 0;
  /// Stop after this many generations without a strict improvement
  /// (0 = off). Anneal keeps no stagnation clock and never stops on it.
  std::uint64_t stagnation_limit = 0;
  /// Cooperative stop flag (not owned; nullptr = never stops). The CLI
  /// points this at the process-wide signal token.
  StopToken* stop = nullptr;

  bool stop_requested() const {
    return stop != nullptr && stop->stop_requested();
  }

  /// The deterministic rule: why a loop at `at` may run no further
  /// generation, or nullopt while it may. Checked in the order
  /// stagnation, completed, generation cap, evaluation budget. It reads
  /// only the progress record, so a resumed state gets the verdict the
  /// uninterrupted run got at the same boundary: every reason it gives is
  /// idempotent under resume.
  std::optional<StopReason> settled(const Progress& at) const;
  /// The interrupt rule over the caller's elapsed seconds: the stop
  /// token, then the deadline, which stops once strictly exceeded.
  std::optional<StopReason> interrupted(double elapsed_seconds) const;
  /// Both rules in order, the deterministic one first — the check at the
  /// top of every generation.
  std::optional<StopReason> check(const Progress& at,
                                  double elapsed_seconds) const {
    if (const auto reason = settled(at)) return reason;
    return interrupted(elapsed_seconds);
  }
};

/// `limits` laid over `own`: every field `limits` sets (a positive
/// deadline, a non-zero ceiling, a stop token) replaces `own`'s value, the
/// others keep it. How one set of run limits reaches the budget of every
/// loop an optimizer or flow runs.
RunBudget overlay(RunBudget own, const RunBudget& limits);

/// Installs SIGINT/SIGTERM handlers that trip `token` (first signal) and
/// restore default disposition (second signal force-kills). Returns the
/// token so call sites can write
/// `params.budget.stop = &install_signal_stop(token);`. The token must
/// outlive every signal delivery; the CLI uses a function-local static.
StopToken& install_signal_stop(StopToken& token);

} // namespace rcgp::robust
