#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "rqfp/netlist.hpp"

namespace rcgp::rqfp {

/// Clock-stage assignment buffers are priced under. ASAP — every gate
/// fires one stage after its latest input — is the paper's (§3.3) and the
/// only one; `FitnessOptions::schedule`, `CostCache::schedule` and
/// `build_cost_cache` still name it.
enum class BufferSchedule {
  kAsap,
};

struct BufferPlan {
  /// Buffers on each gate-input edge, indexed [gate][input 0..2].
  std::vector<std::array<std::uint32_t, 3>> gate_edges;
  /// Buffers aligning each PO to the final clock stage.
  std::vector<std::uint32_t> po_edges;
  std::uint32_t total = 0;
  std::uint32_t depth = 0;
};

/// Path-balancing buffer computation (paper §3.3): every input of a gate
/// at clock stage L must be produced at stage L-1; the difference is made
/// up with RQFP buffers (2 cascaded AQFP buffers, 4 JJs each). Primary
/// inputs sit at stage 0 and all primary outputs are aligned to the final
/// stage. Constant inputs are supplied by the excitation current and need
/// no buffers. With ASAP levels l, a gate edge needs l(g) − 1 − l(src)
/// buffers and a PO depth − l(src). Every gate is planned, dead ones
/// included; cost_of prices only the live subnetwork.
BufferPlan plan_buffers(const Netlist& net);

/// Buffer total of the live subnetwork: the same per-edge sum over the
/// gates with `live[g] != 0`. `level` holds the full-netlist ASAP levels
/// (live gates read only live inputs, so their levels coincide with the
/// dead-gate-free copy's) and `depth` the live depth (`net.depth(level)`).
/// Equals `plan_buffers(net.remove_dead_gates()).total` without the copy.
std::uint32_t live_buffer_total(const Netlist& net,
                                const std::vector<std::uint8_t>& live,
                                const std::vector<std::uint32_t>& level,
                                std::uint32_t depth);

} // namespace rcgp::rqfp
