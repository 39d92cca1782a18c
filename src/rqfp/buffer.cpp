#include "rqfp/buffer.hpp"

#include "obs/span.hpp"

namespace rcgp::rqfp {

namespace {

/// The per-edge formula, once: hands the buffers of every non-constant
/// input of every gate the mask admits (a null mask admits all of them)
/// to gate_edge(g, i, n), those of every non-constant PO to po_edge(o, n),
/// and returns their sum.
template <class GateEdge, class PoEdge>
std::uint32_t price_edges(const Netlist& net, const std::uint8_t* live,
                          const std::vector<std::uint32_t>& level,
                          std::uint32_t depth, GateEdge&& gate_edge,
                          PoEdge&& po_edge) {
  const auto source = [&](Port p) -> std::uint32_t {
    return net.is_gate_port(p) ? level[net.gate_of_port(p)] : 0;
  };
  std::uint32_t total = 0;
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    if (live != nullptr && live[g] == 0) {
      continue;
    }
    for (unsigned i = 0; i < 3; ++i) {
      const Port p = net.gate(g).in[i];
      if (net.is_const_port(p)) {
        continue;
      }
      const std::uint32_t n = level[g] - 1 - source(p);
      gate_edge(g, i, n);
      total += n;
    }
  }
  for (std::uint32_t o = 0; o < net.num_pos(); ++o) {
    const Port p = net.po_at(o);
    if (net.is_const_port(p)) {
      continue;
    }
    const std::uint32_t n = depth - source(p);
    po_edge(o, n);
    total += n;
  }
  return total;
}

} // namespace

BufferPlan plan_buffers(const Netlist& net) {
  obs::Span span("buffer.plan");
  span.arg("gates", net.num_gates());
  const std::vector<std::uint32_t> level = net.gate_levels();
  BufferPlan plan;
  plan.depth = net.depth(level);
  plan.gate_edges.assign(net.num_gates(), {0, 0, 0});
  plan.po_edges.assign(net.num_pos(), 0);
  plan.total = price_edges(
      net, nullptr, level, plan.depth,
      [&](std::uint32_t g, unsigned i, std::uint32_t n) {
        plan.gate_edges[g][i] = n;
      },
      [&](std::uint32_t o, std::uint32_t n) { plan.po_edges[o] = n; });
  return plan;
}

std::uint32_t live_buffer_total(const Netlist& net,
                                const std::vector<std::uint8_t>& live,
                                const std::vector<std::uint32_t>& level,
                                std::uint32_t depth) {
  return price_edges(
      net, live.data(), level, depth,
      [](std::uint32_t, unsigned, std::uint32_t) {},
      [](std::uint32_t, std::uint32_t) {});
}

} // namespace rcgp::rqfp
