#include "aqfp/aqfp.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace rcgp::aqfp {

unsigned jj_cost(CellKind kind) {
  switch (kind) {
    case CellKind::kInput:
    case CellKind::kConst:
      return 0;
    case CellKind::kBuffer:
    case CellKind::kSplitter:
      return 2;
    case CellKind::kMajority:
      return 6;
  }
  return 0;
}

std::uint32_t Netlist::add_cell(Cell cell) {
  if (cell.inverted.empty()) {
    cell.inverted.assign(cell.fanins.size(), false);
  }
  if (cell.inverted.size() != cell.fanins.size()) {
    throw std::invalid_argument("aqfp: inverted/fanin size mismatch");
  }
  for (const auto f : cell.fanins) {
    if (f >= cells_.size()) {
      throw std::invalid_argument("aqfp: fanin forward reference");
    }
  }
  cells_.push_back(std::move(cell));
  return static_cast<std::uint32_t>(cells_.size() - 1);
}

void Netlist::add_output(std::uint32_t cell_id, const std::string& name) {
  if (cell_id >= cells_.size()) {
    throw std::invalid_argument("aqfp: output cell out of range");
  }
  outputs_.push_back(cell_id);
  output_names_.push_back(name);
}

void Netlist::register_input(std::uint32_t cell_id) {
  if (cells_[cell_id].kind != CellKind::kInput) {
    throw std::invalid_argument("aqfp: register_input on non-input cell");
  }
  inputs_.push_back(cell_id);
}

unsigned Netlist::total_jjs() const {
  unsigned total = 0;
  for (const auto& c : cells_) {
    total += jj_cost(c.kind);
  }
  return total;
}

unsigned Netlist::count(CellKind kind) const {
  return static_cast<unsigned>(
      std::count_if(cells_.begin(), cells_.end(),
                    [&](const Cell& c) { return c.kind == kind; }));
}

std::uint32_t Netlist::max_phase() const {
  std::uint32_t m = 0;
  for (const auto& c : cells_) {
    if (c.kind != CellKind::kConst) {
      m = std::max(m, c.phase);
    }
  }
  return m;
}

std::string Netlist::validate() const {
  std::vector<std::uint32_t> fanout(cells_.size(), 0);
  for (std::uint32_t id = 0; id < cells_.size(); ++id) {
    const Cell& c = cells_[id];
    const std::size_t expected_fanins =
        c.kind == CellKind::kMajority ? 3
        : (c.kind == CellKind::kBuffer || c.kind == CellKind::kSplitter) ? 1
                                                                         : 0;
    if (c.fanins.size() != expected_fanins) {
      return "cell " + std::to_string(id) + " has wrong fanin count";
    }
    for (const auto f : c.fanins) {
      const Cell& src = cells_[f];
      ++fanout[f];
      if (src.kind == CellKind::kConst) {
        continue; // excitation-supplied, phase-exempt
      }
      if (src.phase + 1 != c.phase) {
        return "cell " + std::to_string(id) + " at phase " +
               std::to_string(c.phase) + " reads phase " +
               std::to_string(src.phase);
      }
    }
  }
  for (const auto o : outputs_) {
    ++fanout[o];
  }
  for (std::uint32_t id = 0; id < cells_.size(); ++id) {
    const Cell& c = cells_[id];
    const std::uint32_t capacity =
        c.kind == CellKind::kSplitter ? 3
        : c.kind == CellKind::kConst ? 0xFFFFFFFFu
                                     : 1;
    if (fanout[id] > capacity) {
      return "cell " + std::to_string(id) + " drives " +
             std::to_string(fanout[id]) + " loads (capacity " +
             std::to_string(capacity) + ")";
    }
  }
  return "";
}

std::vector<tt::TruthTable> Netlist::simulate() const {
  const unsigned nv = num_inputs();
  if (nv > tt::TruthTable::kMaxVars) {
    throw std::invalid_argument("aqfp: too many inputs to simulate");
  }
  std::vector<tt::TruthTable> value(cells_.size(),
                                    tt::TruthTable::constant(nv, false));
  for (unsigned i = 0; i < nv; ++i) {
    value[inputs_[i]] = tt::TruthTable::projection(nv, i);
  }
  for (std::uint32_t id = 0; id < cells_.size(); ++id) {
    const Cell& c = cells_[id];
    auto fanin_value = [&](unsigned i) {
      const auto v = value[c.fanins[i]];
      return c.inverted[i] ? ~v : v;
    };
    switch (c.kind) {
      case CellKind::kInput:
        break; // already set
      case CellKind::kConst:
        value[id] = tt::TruthTable::constant(nv, true);
        break;
      case CellKind::kBuffer:
      case CellKind::kSplitter:
        value[id] = fanin_value(0);
        break;
      case CellKind::kMajority:
        value[id] = tt::TruthTable::majority(fanin_value(0), fanin_value(1),
                                             fanin_value(2));
        break;
    }
  }
  std::vector<tt::TruthTable> out;
  out.reserve(outputs_.size());
  for (const auto o : outputs_) {
    out.push_back(value[o]);
  }
  return out;
}

namespace {
const char* kind_name(CellKind kind) {
  switch (kind) {
    case CellKind::kInput: return "input";
    case CellKind::kConst: return "const1";
    case CellKind::kBuffer: return "buffer";
    case CellKind::kSplitter: return "splitter";
    case CellKind::kMajority: return "majority";
  }
  return "?";
}
} // namespace

void write_cells(const Netlist& net, std::ostream& out) {
  out << "# AQFP cell netlist: " << net.num_cells() << " cells, "
      << net.total_jjs() << " JJs, " << net.max_phase() << " half-phases\n";
  for (std::uint32_t id = 0; id < net.num_cells(); ++id) {
    const Cell& c = net.cell(id);
    out << "cell " << id << ' ' << kind_name(c.kind) << " phase=" << c.phase;
    if (!c.fanins.empty()) {
      out << " fanins=";
      for (std::size_t i = 0; i < c.fanins.size(); ++i) {
        if (i) {
          out << ',';
        }
        if (c.inverted[i]) {
          out << '!';
        }
        out << c.fanins[i];
      }
    }
    out << '\n';
  }
  for (std::uint32_t o = 0; o < net.num_outputs(); ++o) {
    out << "output " << net.output_at(o) << '\n';
  }
}

std::string write_cells_string(const Netlist& net) {
  std::ostringstream out;
  write_cells(net, out);
  return out.str();
}

void write_cells_dot(const Netlist& net, std::ostream& out) {
  out << "digraph aqfp {\n  rankdir=LR;\n";
  // Group cells of equal phase on one rank so the clock structure shows.
  std::vector<std::vector<std::uint32_t>> by_phase(net.max_phase() + 1);
  for (std::uint32_t id = 0; id < net.num_cells(); ++id) {
    const Cell& c = net.cell(id);
    if (c.kind != CellKind::kConst) {
      by_phase[c.phase].push_back(id);
    }
    const char* shape = c.kind == CellKind::kMajority   ? "invtriangle"
                        : c.kind == CellKind::kSplitter ? "triangle"
                        : c.kind == CellKind::kBuffer   ? "box"
                                                        : "circle";
    out << "  c" << id << " [label=\"" << kind_name(c.kind) << id
        << "\" shape=" << shape << "];\n";
  }
  for (std::size_t phase = 0; phase < by_phase.size(); ++phase) {
    if (by_phase[phase].empty()) {
      continue;
    }
    out << "  { rank=same;";
    for (const auto id : by_phase[phase]) {
      out << " c" << id << ';';
    }
    out << " }\n";
  }
  for (std::uint32_t id = 0; id < net.num_cells(); ++id) {
    const Cell& c = net.cell(id);
    for (std::size_t i = 0; i < c.fanins.size(); ++i) {
      out << "  c" << c.fanins[i] << " -> c" << id;
      if (c.inverted[i]) {
        out << " [style=dashed]";
      }
      out << ";\n";
    }
  }
  for (std::uint32_t o = 0; o < net.num_outputs(); ++o) {
    out << "  out" << o << " [shape=doublecircle];\n";
    out << "  c" << net.output_at(o) << " -> out" << o << ";\n";
  }
  out << "}\n";
}

std::string write_cells_dot_string(const Netlist& net) {
  std::ostringstream out;
  write_cells_dot(net, out);
  return out.str();
}

Netlist expand(const rqfp::Netlist& circuit) {
  const rqfp::Netlist net = circuit.remove_dead_gates();
  const rqfp::BufferPlan plan = rqfp::plan_buffers(net);
  const auto levels = net.gate_levels();

  Netlist out;
  const std::uint32_t const_cell =
      out.add_cell(Cell{CellKind::kConst, {}, {}, 0});
  std::vector<std::uint32_t> pi_cell(net.num_pis());
  for (unsigned i = 0; i < net.num_pis(); ++i) {
    pi_cell[i] = out.add_cell(Cell{CellKind::kInput, {}, {}, 0});
    out.register_input(pi_cell[i]);
  }

  // Cell producing each RQFP port, with its phase (half-stages).
  std::vector<std::uint32_t> port_cell(net.first_free_port(), const_cell);
  auto port_phase = [&](rqfp::Port p) -> std::uint32_t {
    if (net.is_gate_port(p)) {
      return 2 * levels[net.gate_of_port(p)];
    }
    return 0; // PIs at phase 0
  };
  for (unsigned i = 0; i < net.num_pis(); ++i) {
    port_cell[1 + i] = pi_cell[i];
  }

  /// Extends `cell` with buffer cells until it reaches `target_phase`.
  auto buffer_to = [&](std::uint32_t cell, std::uint32_t from_phase,
                       std::uint32_t target_phase) {
    while (from_phase < target_phase) {
      cell = out.add_cell(
          Cell{CellKind::kBuffer, {cell}, {false}, from_phase + 1});
      ++from_phase;
    }
    return cell;
  };

  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    const auto& gate = net.gate(g);
    const std::uint32_t stage = levels[g];
    // Inputs must arrive at phase 2*stage - 2 (the end of the previous
    // stage); the per-edge buffer plan says how many RQFP buffers (2 AQFP
    // buffers each) the edge carries.
    std::array<std::uint32_t, 3> splitter{};
    for (unsigned i = 0; i < 3; ++i) {
      const rqfp::Port p = gate.in[i];
      std::uint32_t src = port_cell[p];
      if (net.is_const_port(p)) {
        // Constants couple directly into the splitter bank.
        splitter[i] = out.add_cell(
            Cell{CellKind::kSplitter, {src}, {false}, 2 * stage - 1});
        continue;
      }
      src = buffer_to(src, port_phase(p), 2 * stage - 2);
      splitter[i] = out.add_cell(
          Cell{CellKind::kSplitter, {src}, {false}, 2 * stage - 1});
    }
    for (unsigned k = 0; k < 3; ++k) {
      Cell maj;
      maj.kind = CellKind::kMajority;
      maj.phase = 2 * stage;
      for (unsigned i = 0; i < 3; ++i) {
        maj.fanins.push_back(splitter[i]);
        maj.inverted.push_back(gate.config.inverts(k, i));
      }
      port_cell[net.port_of(g, k)] = out.add_cell(std::move(maj));
    }
  }

  // POs aligned to the final stage.
  const std::uint32_t out_phase = 2 * plan.depth;
  for (std::uint32_t o = 0; o < net.num_pos(); ++o) {
    const rqfp::Port p = net.po_at(o);
    std::uint32_t cell = port_cell[p];
    if (!net.is_const_port(p)) {
      cell = buffer_to(cell, port_phase(p), out_phase);
    }
    out.add_output(cell, net.po_name(o));
  }
  return out;
}

} // namespace rcgp::aqfp
