#include "io/rqfp_writer.hpp"

#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "io/parse_error.hpp"

namespace rcgp::io {

namespace {

void append_number(std::string& out, std::uint32_t v) {
  char buf[16];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

} // namespace

void write_rqfp(const rqfp::Netlist& net, std::ostream& out) {
  out << write_rqfp_string(net);
}

std::string write_rqfp_string(const rqfp::Netlist& net) {
  // One reserved buffer and std::to_chars: every checkpoint, store save
  // and cache-hit response writes its netlist through here.
  std::string out;
  out.reserve(32 + 36 * std::size_t{net.num_gates()} +
              16 * std::size_t{net.num_pos()});
  out += ".rqfp 1\n.pis ";
  append_number(out, net.num_pis());
  if (net.has_pi_names()) {
    for (std::uint32_t i = 0; i < net.num_pis(); ++i) {
      out += ' ';
      out += net.pi_name(i);
    }
  }
  out += "\n.pos ";
  append_number(out, net.num_pos());
  out += '\n';
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    const auto& gate = net.gate(g);
    out += "gate ";
    for (const rqfp::Port in : gate.in) {
      append_number(out, in);
      out += ' ';
    }
    out += gate.config.to_string();
    out += '\n';
  }
  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    out += "po ";
    append_number(out, net.po_at(i));
    out += ' ';
    out += net.po_name(i);
    out += '\n';
  }
  out += ".end\n";
  return out;
}

rqfp::Netlist parse_rqfp(std::istream& in, const std::string& source) {
  std::string line;
  std::size_t lineno = 0;
  unsigned num_pis = 0;
  bool have_header = false;
  bool have_pis = false;
  rqfp::Netlist net;
  std::vector<std::string> pi_names;
  const auto fail = [&](const std::string& message) {
    fail_parse("rqfp", source, lineno, message);
  };
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream ls(line);
    std::string head;
    if (!(ls >> head)) {
      continue;
    }
    if (head == ".rqfp") {
      have_header = true;
      continue;
    }
    if (!have_header) {
      fail("missing .rqfp header");
    }
    if (head == ".pis") {
      if (!(ls >> num_pis)) {
        fail("malformed .pis line (expected a PI count)");
      }
      std::string name;
      while (ls >> name) {
        pi_names.push_back(name);
      }
      net = rqfp::Netlist(num_pis);
      if (!pi_names.empty()) {
        if (pi_names.size() != num_pis) {
          fail("PI name count mismatch");
        }
        net.set_pi_names(pi_names);
      }
      have_pis = true;
      continue;
    }
    if (head == ".pos") {
      continue; // informational; actual POs come from `po` lines
    }
    if (head == ".end") {
      break;
    }
    if (!have_pis) {
      fail("gate before .pis");
    }
    if (head == "gate") {
      rqfp::Port a = 0;
      rqfp::Port b = 0;
      rqfp::Port c = 0;
      std::string cfg;
      if (!(ls >> a >> b >> c >> cfg)) {
        fail("malformed gate line");
      }
      // InvConfig::parse and Netlist::add_gate throw std::invalid_argument
      // on bad configs / forward port references — on this path those are
      // input errors, not programming errors.
      try {
        net.add_gate({a, b, c}, rqfp::InvConfig::parse(cfg));
      } catch (const std::exception& e) {
        fail(e.what());
      }
      continue;
    }
    if (head == "po") {
      rqfp::Port p = 0;
      std::string name;
      if (!(ls >> p)) {
        fail("malformed po line");
      }
      ls >> name;
      try {
        net.add_po(p, name);
      } catch (const std::exception& e) {
        fail(e.what());
      }
      continue;
    }
    fail("unknown line kind " + head);
  }
  if (!have_header) {
    fail_parse("rqfp", source, 0, "missing .rqfp header (empty input)");
  }
  return net;
}

rqfp::Netlist parse_rqfp_string(const std::string& text) {
  std::istringstream in(text);
  return parse_rqfp(in);
}

rqfp::Netlist parse_rqfp_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    fail_parse("rqfp", path, 0, "cannot open file");
  }
  return parse_rqfp(in, path);
}

void write_rqfp_file(const rqfp::Netlist& net, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("rqfp: cannot write " + path);
  }
  write_rqfp(net, out);
}

void write_dot(const rqfp::Netlist& net, std::ostream& out) {
  out << "digraph rqfp {\n  rankdir=LR;\n  node [shape=record];\n";
  out << "  const [label=\"1\" shape=circle];\n";
  for (std::uint32_t i = 0; i < net.num_pis(); ++i) {
    out << "  pi" << i << " [label=\""
        << (net.has_pi_names() ? net.pi_name(i) : "x" + std::to_string(i))
        << "\" shape=circle];\n";
  }
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    out << "  g" << g << " [label=\"{R" << g << "|"
        << net.gate(g).config.to_string() << "|{<o0>0|<o1>1|<o2>2}}\"];\n";
  }
  auto src = [&](rqfp::Port p) -> std::string {
    if (net.is_const_port(p)) {
      return "const";
    }
    if (net.is_pi_port(p)) {
      return "pi" + std::to_string(net.pi_of_port(p));
    }
    return "g" + std::to_string(net.gate_of_port(p)) + ":o" +
           std::to_string(net.slot_of_port(p));
  };
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    for (unsigned i = 0; i < 3; ++i) {
      out << "  " << src(net.gate(g).in[i]) << " -> g" << g << ";\n";
    }
  }
  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    out << "  po" << i << " [label=\"" << net.po_name(i)
        << "\" shape=doublecircle];\n";
    out << "  " << src(net.po_at(i)) << " -> po" << i << ";\n";
  }
  out << "}\n";
}

std::string write_dot_string(const rqfp::Netlist& net) {
  std::ostringstream out;
  write_dot(net, out);
  return out.str();
}

void write_structural_verilog(const rqfp::Netlist& net, std::ostream& out,
                              const std::string& module_name) {
  // Behavioural cell: three majority outputs with per-input inverter bits
  // taken from a 9-bit parameter (bit 3k+i inverts input i of majority k).
  out << "// Generated by RCGP — RQFP structural netlist\n"
      << "module rqfp_gate #(parameter [8:0] CONFIG = 9'b0)\n"
      << "    (input a, input b, input c,\n"
      << "     output y0, output y1, output y2);\n"
      << "  wire [8:0] s = {c ^ CONFIG[8], b ^ CONFIG[7], a ^ CONFIG[6],\n"
      << "                  c ^ CONFIG[5], b ^ CONFIG[4], a ^ CONFIG[3],\n"
      << "                  c ^ CONFIG[2], b ^ CONFIG[1], a ^ CONFIG[0]};\n"
      << "  assign y0 = (s[0] & s[1]) | (s[0] & s[2]) | (s[1] & s[2]);\n"
      << "  assign y1 = (s[3] & s[4]) | (s[3] & s[5]) | (s[4] & s[5]);\n"
      << "  assign y2 = (s[6] & s[7]) | (s[6] & s[8]) | (s[7] & s[8]);\n"
      << "endmodule\n\n";

  out << "module " << module_name << " (";
  for (std::uint32_t i = 0; i < net.num_pis(); ++i) {
    out << "x" << i << ", ";
  }
  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    if (i) {
      out << ", ";
    }
    out << net.po_name(i);
  }
  out << ");\n";
  for (std::uint32_t i = 0; i < net.num_pis(); ++i) {
    out << "  input x" << i << ";";
    if (net.has_pi_names()) {
      out << " // " << net.pi_name(i);
    }
    out << '\n';
  }
  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    out << "  output " << net.po_name(i) << ";\n";
  }
  out << "  wire const1 = 1'b1;\n";
  auto port_ref = [&](rqfp::Port p) -> std::string {
    if (net.is_const_port(p)) {
      return "const1";
    }
    if (net.is_pi_port(p)) {
      return "x" + std::to_string(net.pi_of_port(p));
    }
    return "p" + std::to_string(p);
  };
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    for (unsigned k = 0; k < 3; ++k) {
      out << "  wire p" << net.port_of(g, k) << ";\n";
    }
  }
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    const auto& gate = net.gate(g);
    out << "  rqfp_gate #(.CONFIG(9'b";
    for (unsigned bit = 9; bit-- > 0;) {
      out << ((gate.config.bits() >> bit) & 1);
    }
    out << ")) g" << g << " (.a(" << port_ref(gate.in[0]) << "), .b("
        << port_ref(gate.in[1]) << "), .c(" << port_ref(gate.in[2])
        << "), .y0(p" << net.port_of(g, 0) << "), .y1(p"
        << net.port_of(g, 1) << "), .y2(p" << net.port_of(g, 2) << "));\n";
  }
  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    out << "  assign " << net.po_name(i) << " = " << port_ref(net.po_at(i))
        << ";\n";
  }
  out << "endmodule\n";
}

std::string write_structural_verilog_string(const rqfp::Netlist& net,
                                            const std::string& module_name) {
  std::ostringstream out;
  write_structural_verilog(net, out, module_name);
  return out.str();
}

} // namespace rcgp::io
