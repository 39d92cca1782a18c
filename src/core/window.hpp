#pragma once

#include <cstdint>
#include <vector>

#include "robust/stop.hpp"
#include "rqfp/netlist.hpp"

namespace rcgp::core {

// Window sweeps over a netlist: contiguous gate ranges are extracted as
// sub-netlists with their exact local function, and a strictly smaller
// replacement is spliced back, so the global PO functions are preserved
// by construction. exact_polish is the one sweep; its replacements come
// from the SAT-based exact synthesizer.

/// What one sweep did, and why it stopped.
struct WindowStats {
  std::uint32_t windows_tried = 0;
  /// kStopRequested or kTimeLimit when the budget cut the sweep short
  /// (the windows spliced until then are kept), else kCompleted.
  robust::StopReason stop_reason = robust::StopReason::kCompleted;
};

/// A window extracted from a netlist, with the port maps needed to splice
/// an optimized replacement back in. Exposed for testing.
struct Window {
  rqfp::Netlist sub;
  /// sub PI index -> outer port feeding it.
  std::vector<rqfp::Port> boundary_inputs;
  /// sub PO index -> outer window port it replaces.
  std::vector<rqfp::Port> boundary_outputs;
  std::uint32_t first_gate = 0;
  std::uint32_t num_gates = 0;
};

/// Extracts gates [first, first+count) as a window; returns false when the
/// boundary-input limit is exceeded.
bool extract_window(const rqfp::Netlist& net, std::uint32_t first,
                    std::uint32_t count, unsigned max_inputs, Window& out);

/// Replaces the window's gate range with `replacement` (a netlist over the
/// window's boundary inputs implementing the same boundary functions) and
/// renumbers all ports.
rqfp::Netlist splice_window(const rqfp::Netlist& net, const Window& window,
                            const rqfp::Netlist& replacement);

struct ExactPolishParams {
  /// Windows of at most this many gates and boundary inputs are handed to
  /// the SAT-based exact synthesizer. Both bounds keep the encoding tiny.
  std::uint32_t window_gates = 6;
  unsigned max_window_inputs = 4;
  /// Per-window exact budget, cut to the time the budget's deadline
  /// leaves.
  double seconds_per_window = 5.0;
  std::uint64_t conflicts_per_call = 200000;
  unsigned passes = 1;
  /// Sweep-level stop token / deadline, checked between windows. A window
  /// already in the SAT solver is bounded by seconds_per_window and the
  /// deadline, and the solver polls the token too.
  robust::RunBudget budget;
};

/// Hybrid CGP+exact refinement: sweeps small windows and replaces each
/// with a SAT-proven optimal sub-circuit when that is strictly smaller.
/// Combines the paper's two methods — CGP for global scale, exact
/// synthesis where it is tractable.
rqfp::Netlist exact_polish(const rqfp::Netlist& input,
                           const ExactPolishParams& params = {},
                           WindowStats* stats = nullptr);

} // namespace rcgp::core
