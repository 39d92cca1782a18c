#include "core/window.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "exact/exact_rqfp.hpp"
#include "rqfp/simulate.hpp"
#include "util/stopwatch.hpp"

namespace rcgp::core {

bool extract_window(const rqfp::Netlist& net, std::uint32_t first,
                    std::uint32_t count, unsigned max_inputs, Window& out) {
  if (first + count > net.num_gates()) {
    count = net.num_gates() - first;
  }
  if (count == 0) {
    return false;
  }
  const rqfp::Port window_begin = net.port_of(first, 0);
  const rqfp::Port window_end = net.port_of(first + count, 0);
  auto in_window = [&](rqfp::Port p) {
    return p >= window_begin && p < window_end;
  };

  // Boundary inputs: outer ports (non-const) read by window gates.
  std::vector<rqfp::Port> inputs;
  std::unordered_map<rqfp::Port, unsigned> input_index;
  for (std::uint32_t g = first; g < first + count; ++g) {
    for (const rqfp::Port p : net.gate(g).in) {
      if (p == rqfp::kConstPort || in_window(p)) {
        continue;
      }
      if (!input_index.count(p)) {
        input_index[p] = static_cast<unsigned>(inputs.size());
        inputs.push_back(p);
      }
    }
  }
  if (inputs.size() > max_inputs) {
    return false;
  }

  // Boundary outputs: window ports consumed outside the window (by later
  // gates or POs).
  std::vector<rqfp::Port> outputs;
  {
    std::vector<bool> needed(window_end, false);
    for (std::uint32_t g = first + count; g < net.num_gates(); ++g) {
      for (const rqfp::Port p : net.gate(g).in) {
        if (in_window(p)) {
          needed[p] = true;
        }
      }
    }
    for (std::uint32_t o = 0; o < net.num_pos(); ++o) {
      const rqfp::Port p = net.po_at(o);
      if (in_window(p)) {
        needed[p] = true;
      }
    }
    for (rqfp::Port p = window_begin; p < window_end; ++p) {
      if (needed[p]) {
        outputs.push_back(p);
      }
    }
  }

  // Build the sub-netlist.
  rqfp::Netlist sub(static_cast<unsigned>(inputs.size()));
  auto map_port = [&](rqfp::Port p) -> rqfp::Port {
    if (p == rqfp::kConstPort) {
      return rqfp::kConstPort;
    }
    if (in_window(p)) {
      const std::uint32_t g = net.gate_of_port(p) - first;
      return sub.port_of(g, net.slot_of_port(p));
    }
    return 1 + input_index.at(p);
  };
  for (std::uint32_t g = first; g < first + count; ++g) {
    const auto& gate = net.gate(g);
    sub.add_gate({map_port(gate.in[0]), map_port(gate.in[1]),
                  map_port(gate.in[2])},
                 gate.config);
  }
  for (const rqfp::Port p : outputs) {
    sub.add_po(map_port(p));
  }

  out.sub = std::move(sub);
  out.boundary_inputs = std::move(inputs);
  out.boundary_outputs = std::move(outputs);
  out.first_gate = first;
  out.num_gates = count;
  return true;
}

rqfp::Netlist splice_window(const rqfp::Netlist& net, const Window& window,
                            const rqfp::Netlist& replacement) {
  if (replacement.num_pis() != window.boundary_inputs.size() ||
      replacement.num_pos() != window.boundary_outputs.size()) {
    throw std::invalid_argument("splice_window: interface mismatch");
  }
  rqfp::Netlist out(net.num_pis());
  if (net.has_pi_names()) {
    std::vector<std::string> names;
    for (std::uint32_t i = 0; i < net.num_pis(); ++i) {
      names.push_back(net.pi_name(i));
    }
    out.set_pi_names(std::move(names));
  }

  // old outer port -> new port (identity for prefix gates and PIs).
  std::unordered_map<rqfp::Port, rqfp::Port> remap;
  remap[rqfp::kConstPort] = rqfp::kConstPort;
  for (rqfp::Port p = 1; p <= net.num_pis(); ++p) {
    remap[p] = p;
  }
  auto mapped = [&](rqfp::Port p) {
    const auto it = remap.find(p);
    if (it == remap.end()) {
      throw std::logic_error("splice_window: unmapped port");
    }
    return it->second;
  };

  // 1. Prefix gates unchanged.
  for (std::uint32_t g = 0; g < window.first_gate; ++g) {
    const auto& gate = net.gate(g);
    const auto ng = out.add_gate({mapped(gate.in[0]), mapped(gate.in[1]),
                                  mapped(gate.in[2])},
                                 gate.config);
    for (unsigned k = 0; k < 3; ++k) {
      remap[net.port_of(g, k)] = out.port_of(ng, k);
    }
  }

  // 2. Replacement gates, with its PIs remapped to boundary inputs.
  std::vector<rqfp::Port> repl_port_map(replacement.first_free_port(), 0);
  repl_port_map[rqfp::kConstPort] = rqfp::kConstPort;
  for (std::uint32_t i = 0; i < replacement.num_pis(); ++i) {
    repl_port_map[1 + i] = mapped(window.boundary_inputs[i]);
  }
  for (std::uint32_t g = 0; g < replacement.num_gates(); ++g) {
    const auto& gate = replacement.gate(g);
    const auto ng = out.add_gate({repl_port_map[gate.in[0]],
                                  repl_port_map[gate.in[1]],
                                  repl_port_map[gate.in[2]]},
                                 gate.config);
    for (unsigned k = 0; k < 3; ++k) {
      repl_port_map[replacement.port_of(g, k)] = out.port_of(ng, k);
    }
  }
  for (std::uint32_t o = 0; o < replacement.num_pos(); ++o) {
    remap[window.boundary_outputs[o]] = repl_port_map[replacement.po_at(o)];
  }

  // 3. Suffix gates.
  for (std::uint32_t g = window.first_gate + window.num_gates;
       g < net.num_gates(); ++g) {
    const auto& gate = net.gate(g);
    const auto ng = out.add_gate({mapped(gate.in[0]), mapped(gate.in[1]),
                                  mapped(gate.in[2])},
                                 gate.config);
    for (unsigned k = 0; k < 3; ++k) {
      remap[net.port_of(g, k)] = out.port_of(ng, k);
    }
  }

  // 4. POs.
  for (std::uint32_t o = 0; o < net.num_pos(); ++o) {
    out.add_po(mapped(net.po_at(o)), net.po_name(o));
  }
  return out;
}

rqfp::Netlist exact_polish(const rqfp::Netlist& input,
                           const ExactPolishParams& params,
                           WindowStats* stats) {
  WindowStats local;
  rqfp::Netlist net = input.remove_dead_gates();
  util::Stopwatch watch;
  auto& reason = local.stop_reason;

  for (unsigned pass = 0;
       pass < params.passes && reason == robust::StopReason::kCompleted;
       ++pass) {
    std::uint32_t start = 0;
    while (start < net.num_gates()) {
      const double elapsed = watch.seconds();
      if (const auto stop = params.budget.interrupted(elapsed)) {
        reason = *stop;
        break;
      }
      Window window;
      std::uint32_t count = params.window_gates;
      bool ok = false;
      while (count >= 2) {
        if (extract_window(net, start, count, params.max_window_inputs,
                           window)) {
          ok = true;
          break;
        }
        count /= 2;
      }
      if (!ok) {
        ++start;
        continue;
      }
      ++local.windows_tried;
      const auto spec = rqfp::simulate(window.sub);
      exact::ExactParams ep;
      // Only gate counts strictly below the window size are interesting.
      ep.max_gates = window.sub.num_gates() - 1;
      ep.time_limit_seconds = params.seconds_per_window;
      if (params.budget.deadline_seconds > 0.0) {
        // The window gets no more than the sweep has left (not interrupted
        // means elapsed <= deadline; a limit of 0 would mean none).
        const double left =
            std::max(params.budget.deadline_seconds - elapsed, 1e-6);
        if (ep.time_limit_seconds <= 0.0 || left < ep.time_limit_seconds) {
          ep.time_limit_seconds = left;
        }
      }
      ep.conflicts_per_call = params.conflicts_per_call;
      ep.stop = params.budget.stop;
      ep.minimize_garbage = false; // size is the objective here
      const auto result = exact::exact_synthesize(spec, ep);
      if (result.status == exact::ExactStatus::kSolved &&
          result.netlist->num_gates() < window.sub.num_gates()) {
        net = splice_window(net, window, *result.netlist);
        net = net.remove_dead_gates();
      }
      start += window.num_gates;
    }
  }

  if (stats) {
    *stats = local;
  }
  return net;
}

} // namespace rcgp::core
