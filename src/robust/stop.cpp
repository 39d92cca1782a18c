#include "robust/stop.hpp"

#include <csignal>
#include <stdexcept>

namespace rcgp::robust {

std::string to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kCompleted: return "completed";
    case StopReason::kStagnation: return "stagnation";
    case StopReason::kTimeLimit: return "time-limit";
    case StopReason::kGenerationBudget: return "generation-budget";
    case StopReason::kEvaluationBudget: return "evaluation-budget";
    case StopReason::kStopRequested: return "stop-requested";
  }
  return "unknown";
}

StopReason parse_stop_reason(const std::string& name) {
  if (name == "completed" || name == "resumed-complete") {
    return StopReason::kCompleted;
  }
  if (name == "stagnation") return StopReason::kStagnation;
  if (name == "time-limit") return StopReason::kTimeLimit;
  if (name == "generation-budget") return StopReason::kGenerationBudget;
  if (name == "evaluation-budget") return StopReason::kEvaluationBudget;
  if (name == "stop-requested") return StopReason::kStopRequested;
  throw std::invalid_argument("unknown stop reason '" + name + "'");
}

bool is_interrupt(StopReason reason) {
  return reason == StopReason::kStopRequested ||
         reason == StopReason::kTimeLimit;
}

std::optional<StopReason> RunBudget::settled(const Progress& at) const {
  if (stagnation_limit != 0 && at.since_improvement >= stagnation_limit) {
    return StopReason::kStagnation;
  }
  if (at.generations >= at.planned) return StopReason::kCompleted;
  if (max_generations != 0 && at.generations >= max_generations) {
    return StopReason::kGenerationBudget;
  }
  if (max_evaluations != 0 &&
      at.evaluations + at.next_cost > max_evaluations) {
    return StopReason::kEvaluationBudget;
  }
  return std::nullopt;
}

std::optional<StopReason> RunBudget::interrupted(
    double elapsed_seconds) const {
  if (stop_requested()) return StopReason::kStopRequested;
  if (deadline_seconds > 0.0 && elapsed_seconds > deadline_seconds) {
    return StopReason::kTimeLimit;
  }
  return std::nullopt;
}

RunBudget overlay(RunBudget own, const RunBudget& limits) {
  if (limits.deadline_seconds > 0.0) {
    own.deadline_seconds = limits.deadline_seconds;
  }
  if (limits.max_generations != 0) {
    own.max_generations = limits.max_generations;
  }
  if (limits.max_evaluations != 0) {
    own.max_evaluations = limits.max_evaluations;
  }
  if (limits.stagnation_limit != 0) {
    own.stagnation_limit = limits.stagnation_limit;
  }
  if (limits.stop != nullptr) {
    own.stop = limits.stop;
  }
  return own;
}

namespace {

// Signal handlers can only touch lock-free atomics; the token itself is
// one, so a plain pointer handoff is safe.
std::atomic<StopToken*> g_signal_token{nullptr};

extern "C" void rcgp_signal_handler(int sig) {
  if (StopToken* token = g_signal_token.load(std::memory_order_relaxed)) {
    token->request_stop();
  }
  // Second delivery of the same signal kills the process the default way:
  // an operator double-tapping Ctrl-C must always win over a wedged run.
  std::signal(sig, SIG_DFL);
}

} // namespace

StopToken& install_signal_stop(StopToken& token) {
  g_signal_token.store(&token, std::memory_order_relaxed);
  std::signal(SIGINT, rcgp_signal_handler);
  std::signal(SIGTERM, rcgp_signal_handler);
  return token;
}

} // namespace rcgp::robust
