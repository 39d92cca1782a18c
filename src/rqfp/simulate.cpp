#include "rqfp/simulate.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "rqfp/simd.hpp"

namespace rcgp::rqfp {

namespace {

/// Shared PI/constant-port initialisation of every exhaustive-simulation
/// entry point: arity check, one all-zero table per port, constant-1 on
/// kConstPort and a projection per PI. Returns the number of PIs.
unsigned init_port_tables(const Netlist& net,
                          std::vector<tt::TruthTable>& port,
                          const char* who) {
  const unsigned nv = net.num_pis();
  if (nv > tt::TruthTable::kMaxVars) {
    throw std::invalid_argument(std::string(who) + ": too many PIs");
  }
  port.assign(net.first_free_port(), tt::TruthTable(nv));
  port[kConstPort] = tt::TruthTable::constant(nv, true);
  for (unsigned i = 0; i < nv; ++i) {
    port[1 + i] = tt::TruthTable::projection(nv, i);
  }
  return nv;
}

/// Words one truth table over `nv` variables occupies.
std::size_t table_words(unsigned nv) {
  return nv >= 6 ? std::size_t{1} << (nv - 6) : 1;
}

/// Words the last exhaustive pass pushed through the gate kernels —
/// 3 output tables per evaluated gate (docs/SIMD.md digest).
void count_sim_words(std::uint64_t gates_evaluated, std::size_t words) {
  static obs::Counter& c_words = obs::registry().counter("sim.words");
  c_words.inc(3 * gates_evaluated * words);
}

} // namespace

std::vector<tt::TruthTable> simulate(const Netlist& net) {
  const auto live = net.live_gates();
  std::vector<tt::TruthTable> port;
  init_port_tables(net, port, "rqfp::simulate");
  std::uint64_t evaluated = 0;
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    if (!live[g]) {
      continue;
    }
    const auto& gate = net.gate(g);
    // Gate outputs are always-fresh ports, so writing them in place never
    // aliases the (earlier) input ports.
    eval_gate_tables_into(gate.config, port[gate.in[0]], port[gate.in[1]],
                          port[gate.in[2]], port[net.port_of(g, 0)],
                          port[net.port_of(g, 1)], port[net.port_of(g, 2)]);
    ++evaluated;
  }
  count_sim_words(evaluated, table_words(net.num_pis()));
  std::vector<tt::TruthTable> out;
  out.reserve(net.num_pos());
  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    out.push_back(port[net.po_at(i)]);
  }
  return out;
}

void build_sim_cache(const Netlist& net, SimCache& cache) {
  const unsigned nv =
      init_port_tables(net, cache.ports, "rqfp::build_sim_cache");
  cache.num_pis = nv;
  cache.num_gates = net.num_gates();
  cache.dirty.assign(net.first_free_port(), 0);
  cache.undo_size = 0;
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    const auto& gate = net.gate(g);
    eval_gate_tables_into(gate.config, cache.ports[gate.in[0]],
                          cache.ports[gate.in[1]], cache.ports[gate.in[2]],
                          cache.ports[net.port_of(g, 0)],
                          cache.ports[net.port_of(g, 1)],
                          cache.ports[net.port_of(g, 2)]);
  }
  count_sim_words(net.num_gates(), table_words(nv));
}

namespace {

void check_delta_shape(const Netlist& base, const Netlist& child,
                       const SimCache& cache, const char* who) {
  if (base.num_pis() != cache.num_pis ||
      base.num_gates() != cache.num_gates) {
    throw std::invalid_argument(std::string(who) +
                                ": cache was built from a different netlist "
                                "shape");
  }
  if (child.num_pis() != base.num_pis() ||
      child.num_gates() != base.num_gates()) {
    throw std::invalid_argument(std::string(who) +
                                ": netlist shapes differ (PI or gate count)");
  }
}

/// Re-evaluates `to`'s gates whose genes differ from `from` or whose
/// inputs are already dirty, saving every displaced port value on the
/// cache's undo list. A recomputed value equal to the cached one is not a
/// change — the cone stops there.
void propagate_dirty(const Netlist& from, const Netlist& to,
                     SimCache& cache) {
  cache.undo_size = 0;
  auto& out = cache.gate_scratch;
  std::uint64_t evaluated = 0;
  for (std::uint32_t g = 0; g < to.num_gates(); ++g) {
    const auto& tg = to.gate(g);
    const bool gene_changed = !(tg == from.gate(g));
    const bool input_dirty = cache.dirty[tg.in[0]] != 0 ||
                             cache.dirty[tg.in[1]] != 0 ||
                             cache.dirty[tg.in[2]] != 0;
    if (!gene_changed && !input_dirty) {
      continue;
    }
    eval_gate_tables_into(tg.config, cache.ports[tg.in[0]],
                          cache.ports[tg.in[1]], cache.ports[tg.in[2]],
                          out[0], out[1], out[2]);
    ++evaluated;
    for (unsigned k = 0; k < 3; ++k) {
      const Port p = to.port_of(g, k);
      if (out[k] == cache.ports[p]) {
        continue;
      }
      if (cache.undo_size == cache.undo.size()) {
        cache.undo.emplace_back();
      }
      auto& u = cache.undo[cache.undo_size++];
      u.port = p;
      // Swaps keep every table's allocation in circulation: the displaced
      // value parks in the undo slot, the undo slot's stale table becomes
      // next round's scratch.
      std::swap(u.value, cache.ports[p]);
      std::swap(cache.ports[p], out[k]);
      cache.dirty[p] = 1;
    }
  }
  if (evaluated != 0) {
    count_sim_words(evaluated, table_words(cache.num_pis));
  }
}

} // namespace

void update_sim_cache(const Netlist& from, const Netlist& to,
                      SimCache& cache) {
  check_delta_shape(from, to, cache, "rqfp::update_sim_cache");
  propagate_dirty(from, to, cache);
  // Commit: keep the new values, only clear the dirty marks.
  for (std::size_t i = 0; i < cache.undo_size; ++i) {
    cache.dirty[cache.undo[i].port] = 0;
  }
  cache.undo_size = 0;
}

void simulate_delta_batch(const Netlist& base,
                          const std::vector<const Netlist*>& children,
                          const SimCache& cache, DeltaBatch& batch) {
  const Port num_ports = base.first_free_port();
  if (batch.children.size() < children.size()) {
    batch.children.resize(children.size());
  }
  for (std::size_t c = 0; c < children.size(); ++c) {
    check_delta_shape(base, *children[c], cache,
                      "rqfp::simulate_delta_batch");
    auto& ch = batch.children[c];
    ch.dirty.assign(num_ports, 0);
    ch.slot.assign(num_ports, DeltaBatch::kNoSlot);
    ch.used = 0;
    ch.touched.clear();
  }
  std::array<tt::TruthTable, 3> scratch;
  std::uint64_t evaluated = 0;
  // Gate-major: each gate's base-port rows are touched once for the whole
  // λ-block. Per child, a port reads its private overlay when dirty and
  // the shared (read-only) base cache otherwise — exactly the child's own
  // port values, in topological order.
  for (std::uint32_t g = 0; g < base.num_gates(); ++g) {
    const auto& bg = base.gate(g);
    for (std::size_t c = 0; c < children.size(); ++c) {
      auto& ch = batch.children[c];
      const auto& tg = children[c]->gate(g);
      const bool gene_changed = !(tg == bg);
      const bool input_dirty = ch.dirty[tg.in[0]] != 0 ||
                               ch.dirty[tg.in[1]] != 0 ||
                               ch.dirty[tg.in[2]] != 0;
      if (!gene_changed && !input_dirty) {
        continue;
      }
      const auto in = [&](Port p) -> const tt::TruthTable& {
        return ch.dirty[p] != 0 ? ch.values[ch.slot[p]] : cache.ports[p];
      };
      eval_gate_tables_into(tg.config, in(tg.in[0]), in(tg.in[1]),
                            in(tg.in[2]), scratch[0], scratch[1],
                            scratch[2]);
      ++evaluated;
      for (unsigned k = 0; k < 3; ++k) {
        const Port p = base.port_of(g, k);
        // Cone cut-off: a recomputed value equal to the base one is not a
        // change.
        if (scratch[k] == cache.ports[p]) {
          continue;
        }
        if (ch.used == ch.values.size()) {
          ch.values.emplace_back();
        }
        std::swap(ch.values[ch.used], scratch[k]);
        ch.slot[p] = static_cast<std::uint32_t>(ch.used++);
        ch.dirty[p] = 1;
        ch.touched.push_back(p);
      }
    }
  }
  for (std::size_t c = 0; c < children.size(); ++c) {
    auto& ch = batch.children[c];
    const Netlist& net = *children[c];
    ch.po.resize(net.num_pos());
    for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
      const Port p = net.po_at(i);
      ch.po[i] = ch.dirty[p] != 0 ? ch.values[ch.slot[p]] : cache.ports[p];
    }
  }
  if (evaluated != 0) {
    count_sim_words(evaluated, table_words(cache.num_pis));
  }
}

void simulate_patterns(const Netlist& net, const SimBatch& pi, SimBatch& po,
                       SimBatch& scratch) {
  if (pi.rows() != net.num_pis()) {
    throw std::invalid_argument(
        "rqfp::simulate_patterns: netlist has " +
        std::to_string(net.num_pis()) + " PIs but the batch has " +
        std::to_string(pi.rows()) + " rows");
  }
  const std::size_t words = pi.words();
  const auto& kernels = simd::kernels();
  scratch.resize(net.first_free_port(), words);
  scratch.fill_row(kConstPort, ~std::uint64_t{0});
  for (unsigned i = 0; i < net.num_pis(); ++i) {
    std::copy(pi.row(i), pi.row(i) + words, scratch.row(1 + i));
  }
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    const auto& gate = net.gate(g);
    kernels.gate3(gate.config.bits(), scratch.row(gate.in[0]),
                  scratch.row(gate.in[1]), scratch.row(gate.in[2]),
                  scratch.row(net.port_of(g, 0)),
                  scratch.row(net.port_of(g, 1)),
                  scratch.row(net.port_of(g, 2)), words);
  }
  count_sim_words(net.num_gates(), words);
  po.resize(net.num_pos(), words);
  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    const std::uint64_t* src = scratch.row(net.po_at(i));
    std::copy(src, src + words, po.row(i));
  }
}

void simulate_patterns(const Netlist& net, const SimBatch& pi, SimBatch& po) {
  SimBatch scratch;
  simulate_patterns(net, pi, po, scratch);
}

std::vector<bool> evaluate(const Netlist& net, std::uint64_t assignment) {
  std::vector<std::uint64_t> port(net.first_free_port(), 0);
  port[kConstPort] = 1;
  for (unsigned i = 0; i < net.num_pis(); ++i) {
    port[1 + i] = (assignment >> i) & 1;
  }
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    const auto& gate = net.gate(g);
    const auto out =
        eval_gate_words(gate.config, port[gate.in[0]] ? ~std::uint64_t{0} : 0,
                        port[gate.in[1]] ? ~std::uint64_t{0} : 0,
                        port[gate.in[2]] ? ~std::uint64_t{0} : 0);
    for (unsigned k = 0; k < 3; ++k) {
      port[net.port_of(g, k)] = out[k] & 1;
    }
  }
  std::vector<bool> result;
  result.reserve(net.num_pos());
  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    result.push_back(port[net.po_at(i)] != 0);
  }
  return result;
}

} // namespace rcgp::rqfp
