#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>

#include "aig/aig_simulate.hpp"
#include "fuzz/generator.hpp"
#include "io/aiger.hpp"
#include "io/blif.hpp"
#include "io/io.hpp"
#include "io/parse_error.hpp"
#include "io/pla.hpp"
#include "io/real.hpp"
#include "io/rqfp_writer.hpp"
#include "io/verilog.hpp"
#include "rqfp/simulate.hpp"
#include "util/rng.hpp"

namespace rcgp::io {
namespace {

aig::Aig random_aig(unsigned num_pis, unsigned num_nodes, unsigned num_pos,
                    std::uint64_t seed) {
  util::Rng rng(seed);
  aig::Aig net;
  std::vector<aig::Signal> pool{net.const0()};
  for (unsigned i = 0; i < num_pis; ++i) {
    pool.push_back(net.create_pi());
  }
  for (unsigned i = 0; i < num_nodes; ++i) {
    const aig::Signal a = pool[rng.below(pool.size())] ^ rng.chance(0.5);
    const aig::Signal b = pool[rng.below(pool.size())] ^ rng.chance(0.5);
    pool.push_back(net.create_and(a, b));
  }
  for (unsigned i = 0; i < num_pos; ++i) {
    net.add_po(pool[rng.below(pool.size())] ^ rng.chance(0.5));
  }
  return net;
}

// ---------- BLIF ----------

TEST(Blif, ParseSimpleSop) {
  const std::string text = R"(
.model test
.inputs a b c
.outputs f
.names a b w
11 1
.names w c f
1- 1
-1 1
.end
)";
  const auto net = parse_blif_string(text);
  EXPECT_EQ(net.num_pis(), 3u);
  EXPECT_EQ(net.num_pos(), 1u);
  const auto tts = aig::simulate(net);
  const auto a = tt::TruthTable::projection(3, 0);
  const auto b = tt::TruthTable::projection(3, 1);
  const auto c = tt::TruthTable::projection(3, 2);
  EXPECT_EQ(tts[0], (a & b) | c);
}

TEST(Blif, OutOfOrderTables) {
  const std::string text = R"(
.model test
.inputs a b
.outputs f
.names w a f
11 1
.names a b w
01 1
10 1
.end
)";
  const auto net = parse_blif_string(text);
  const auto tts = aig::simulate(net);
  const auto a = tt::TruthTable::projection(2, 0);
  const auto b = tt::TruthTable::projection(2, 1);
  EXPECT_EQ(tts[0], (a ^ b) & a);
}

TEST(Blif, ComplementedOutputColumn) {
  const std::string text = R"(
.model test
.inputs a b
.outputs f
.names a b f
11 0
.end
)";
  const auto tts = aig::simulate(parse_blif_string(text));
  const auto a = tt::TruthTable::projection(2, 0);
  const auto b = tt::TruthTable::projection(2, 1);
  EXPECT_EQ(tts[0], ~(a & b));
}

TEST(Blif, ConstantTables) {
  const std::string text = R"(
.model test
.inputs a
.outputs one zero
.names one
1
.names zero
0
.end
)";
  const auto tts = aig::simulate(parse_blif_string(text));
  EXPECT_TRUE(tts[0].is_constant1());
  EXPECT_TRUE(tts[1].is_constant0());
}

TEST(Blif, Malformed) {
  EXPECT_THROW(parse_blif_string(".model m\n.latch a b\n.end\n"),
               std::runtime_error);
  EXPECT_THROW(parse_blif_string(".model m\n.inputs a\n.outputs f\n.end\n"),
               std::runtime_error); // undriven output
  EXPECT_THROW(
      parse_blif_string(
          ".model m\n.inputs a\n.outputs f\n.names q f\n1 1\n.end\n"),
      std::runtime_error); // undefined dependency
}

class BlifRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BlifRoundTrip, WriteParsePreservesFunction) {
  const auto net = random_aig(5, 30, 3, GetParam());
  const auto text = write_blif_string(net);
  const auto back = parse_blif_string(text);
  EXPECT_EQ(aig::simulate(net), aig::simulate(back));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlifRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------- AIGER ----------

TEST(Aiger, ParseToyCircuit) {
  // AND of two inputs.
  const std::string text = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\ni0 a\ni1 b\no0 f\n";
  const auto net = parse_aiger_string(text);
  EXPECT_EQ(net.num_pis(), 2u);
  EXPECT_EQ(net.pi_name(0), "a");
  EXPECT_EQ(net.po_name(0), "f");
  const auto tts = aig::simulate(net);
  EXPECT_EQ(tts[0], tt::TruthTable::projection(2, 0) &
                        tt::TruthTable::projection(2, 1));
}

TEST(Aiger, ComplementedOutput) {
  const std::string text = "aag 3 2 0 1 1\n2\n4\n7\n6 2 4\n";
  const auto tts = aig::simulate(parse_aiger_string(text));
  EXPECT_EQ(tts[0], ~(tt::TruthTable::projection(2, 0) &
                      tt::TruthTable::projection(2, 1)));
}

TEST(Aiger, RejectsLatchesAndBadLiterals) {
  EXPECT_THROW(parse_aiger_string("aag 1 0 1 0 0\n2 3\n"),
               std::runtime_error);
  EXPECT_THROW(parse_aiger_string("aig 1 1 0 0 0\n2\n"), std::runtime_error);
  EXPECT_THROW(parse_aiger_string("aag 2 1 0 0 1\n2\n4 6 2\n"),
               std::runtime_error); // rhs not below lhs
}

TEST(AigerBinary, RoundTripPreservesFunction) {
  util::Rng unused(0);
  for (std::uint64_t seed : {7ull, 21ull, 90ull}) {
    const auto net = random_aig(6, 50, 4, seed);
    const auto blob = write_aiger_binary_string(net);
    std::istringstream in(blob);
    const auto back = parse_aiger_binary(in);
    EXPECT_EQ(aig::simulate(back), aig::simulate(net)) << seed;
    EXPECT_EQ(back.num_pis(), net.num_pis());
    EXPECT_EQ(back.num_pos(), net.num_pos());
  }
}

TEST(AigerBinary, AutoDetectsBothFormats) {
  const auto net = random_aig(4, 20, 2, 5);
  {
    std::istringstream in(write_aiger_binary_string(net));
    EXPECT_EQ(aig::simulate(parse_aiger_auto(in)), aig::simulate(net));
  }
  {
    std::istringstream in(write_aiger_string(net));
    EXPECT_EQ(aig::simulate(parse_aiger_auto(in)), aig::simulate(net));
  }
}

TEST(AigerBinary, HandlesConstantsAndInverted) {
  aig::Aig net;
  const auto a = net.create_pi("a");
  net.add_po(net.const1(), "one");
  net.add_po(!a, "na");
  net.add_po(net.create_and(a, !a), "zero"); // folds to const0
  const auto blob = write_aiger_binary_string(net);
  std::istringstream in(blob);
  const auto back = parse_aiger_binary(in);
  const auto tts = aig::simulate(back);
  EXPECT_TRUE(tts[0].is_constant1());
  EXPECT_EQ(tts[1], ~tt::TruthTable::projection(1, 0));
  EXPECT_TRUE(tts[2].is_constant0());
  EXPECT_EQ(back.po_name(0), "one");
}

TEST(AigerBinary, MalformedInputsThrow) {
  {
    std::istringstream in("aig 3 2 0 1 2\n6\n"); // M != I + A
    EXPECT_THROW(parse_aiger_binary(in), std::runtime_error);
  }
  {
    std::istringstream in("aig 3 2 0 1 1\n6\n"); // truncated deltas
    EXPECT_THROW(parse_aiger_binary(in), std::runtime_error);
  }
  {
    std::istringstream in("aag 1 1 0 0 0\n2\n");
    EXPECT_THROW(parse_aiger_binary(in), std::runtime_error); // wrong magic
  }
}

class AigerRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AigerRoundTrip, WriteParsePreservesFunction) {
  const auto net = random_aig(6, 40, 4, GetParam() + 100);
  const auto text = write_aiger_string(net);
  const auto back = parse_aiger_string(text);
  EXPECT_EQ(aig::simulate(net), aig::simulate(back));
  EXPECT_EQ(back.num_pis(), net.num_pis());
  EXPECT_EQ(back.num_pos(), net.num_pos());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AigerRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------- PLA ----------

TEST(Pla, ParseCubesWithDontCares) {
  const std::string text = R"(
.i 3
.o 2
.p 2
1-0 10
-11 01
.e
)";
  const auto pla = parse_pla_string(text);
  EXPECT_EQ(pla.num_inputs, 3u);
  EXPECT_EQ(pla.num_outputs, 2u);
  const auto a = tt::TruthTable::projection(3, 0);
  const auto b = tt::TruthTable::projection(3, 1);
  const auto c = tt::TruthTable::projection(3, 2);
  EXPECT_EQ(pla.tables[0], a & ~c);
  EXPECT_EQ(pla.tables[1], b & c);
}

TEST(Pla, RoundTrip) {
  util::Rng rng(3);
  std::vector<tt::TruthTable> tables;
  for (int i = 0; i < 3; ++i) {
    tt::TruthTable t(4);
    t.set_word(0, rng.next());
    tables.push_back(t);
  }
  std::ostringstream out;
  write_pla(tables, out);
  const auto back = parse_pla_string(out.str());
  EXPECT_EQ(back.tables, tables);
}

TEST(Pla, Malformed) {
  EXPECT_THROW(parse_pla_string("10 1\n"), std::runtime_error);
  EXPECT_THROW(parse_pla_string(".i 2\n.o 1\n101 1\n"), std::runtime_error);
  EXPECT_THROW(parse_pla_string(".i 2\n.o 1\n1x 1\n"), std::runtime_error);
}

// ---------- RevLib .real ----------

TEST(Real, ToffoliCascade) {
  // CNOT(a->b); NOT(a): a' = !a, b' = a^b.
  const std::string text = R"(
.version 1.0
.numvars 2
.variables a b
.begin
t2 a b
t1 a
.end
)";
  const auto circuit = parse_real_string(text);
  EXPECT_EQ(circuit.num_lines, 2u);
  EXPECT_EQ(circuit.gates.size(), 2u);
  const auto tables = circuit.to_tables();
  const auto a = tt::TruthTable::projection(2, 0);
  const auto b = tt::TruthTable::projection(2, 1);
  EXPECT_EQ(tables[0], ~a);
  EXPECT_EQ(tables[1], a ^ b);
}

TEST(Real, ToffoliIsReversible) {
  const std::string text = R"(
.numvars 3
.variables a b c
.begin
t3 a b c
.end
)";
  const auto circuit = parse_real_string(text);
  std::vector<bool> seen(8, false);
  for (std::uint64_t x = 0; x < 8; ++x) {
    const auto y = circuit.apply(x);
    EXPECT_FALSE(seen[y]);
    seen[y] = true;
  }
  // Toffoli is self-inverse.
  for (std::uint64_t x = 0; x < 8; ++x) {
    EXPECT_EQ(circuit.apply(circuit.apply(x)), x);
  }
}

TEST(Real, NegativeControls) {
  const std::string text = R"(
.numvars 2
.variables a b
.begin
t2 -a b
.end
)";
  const auto tables = parse_real_string(text).to_tables();
  const auto a = tt::TruthTable::projection(2, 0);
  const auto b = tt::TruthTable::projection(2, 1);
  EXPECT_EQ(tables[1], ~a ^ b);
}

TEST(Real, FredkinSwapsTargets) {
  const std::string text = R"(
.numvars 3
.variables c x y
.begin
f3 c x y
.end
)";
  const auto circuit = parse_real_string(text);
  // c=1: swap x and y; c=0: identity.
  EXPECT_EQ(circuit.apply(0b011), 0b101u);
  EXPECT_EQ(circuit.apply(0b101), 0b011u);
  EXPECT_EQ(circuit.apply(0b010), 0b010u);
  EXPECT_EQ(circuit.apply(0b111), 0b111u);
}

TEST(Real, PeresGate) {
  const std::string text = R"(
.numvars 3
.variables a b c
.begin
p3 a b c
.end
)";
  const auto circuit = parse_real_string(text);
  for (std::uint64_t x = 0; x < 8; ++x) {
    const bool a = x & 1;
    const bool b = (x >> 1) & 1;
    const bool c = (x >> 2) & 1;
    const auto y = circuit.apply(x);
    EXPECT_EQ(y & 1, static_cast<std::uint64_t>(a));
    EXPECT_EQ((y >> 1) & 1, static_cast<std::uint64_t>(a ^ b));
    EXPECT_EQ((y >> 2) & 1, static_cast<std::uint64_t>((a && b) ^ c));
  }
}

TEST(Real, ConstantsAndGarbage) {
  // Line 0 is a constant-0 ancilla; line 1 is garbage at the output.
  const std::string text = R"(
.numvars 3
.variables anc a b
.constants 0--
.garbage -1-
.begin
t3 a b anc
.end
)";
  const auto circuit = parse_real_string(text);
  EXPECT_EQ(circuit.num_real_inputs(), 2u);
  EXPECT_EQ(circuit.num_real_outputs(), 2u);
  const auto tables = circuit.to_tables();
  ASSERT_EQ(tables.size(), 2u);
  // Output 0 is the ancilla line = a&b (Toffoli onto 0); output 1 is b.
  const auto a = tt::TruthTable::projection(2, 0);
  const auto b = tt::TruthTable::projection(2, 1);
  EXPECT_EQ(tables[0], a & b);
  EXPECT_EQ(tables[1], b);
}

TEST(Real, WriteParseRoundTrip) {
  const std::string text = R"(
.numvars 3
.variables a b c
.constants --0
.garbage 1--
.begin
t3 a -b c
f3 -a b c
p3 a b c
q3 a b c
t1 b
.end
)";
  const auto circuit = parse_real_string(text);
  const auto back = parse_real_string(write_real_string(circuit));
  EXPECT_EQ(back.num_lines, circuit.num_lines);
  EXPECT_EQ(back.gates.size(), circuit.gates.size());
  EXPECT_EQ(back.constants, circuit.constants);
  EXPECT_EQ(back.garbage, circuit.garbage);
  for (std::uint64_t x = 0; x < 8; ++x) {
    EXPECT_EQ(back.apply(x), circuit.apply(x)) << x;
  }
}

TEST(Real, InversePeresUndoesPeres) {
  const std::string text = R"(
.numvars 3
.variables a b c
.begin
p3 a b c
q3 a b c
.end
)";
  const auto circuit = parse_real_string(text);
  for (std::uint64_t x = 0; x < 8; ++x) {
    EXPECT_EQ(circuit.apply(x), x) << x;
  }
}

TEST(Real, StructuralAigMatchesTables) {
  const std::string text = R"(
.numvars 4
.variables a b c d
.constants ---0
.garbage --1-
.begin
t3 a b c
f3 c a b
p3 b c d
t1 a
t2 -d a
.end
)";
  const auto circuit = parse_real_string(text);
  const auto net = real_to_aig(circuit);
  EXPECT_EQ(net.num_pis(), circuit.num_real_inputs());
  EXPECT_EQ(net.num_pos(), circuit.num_real_outputs());
  EXPECT_EQ(aig::simulate(net), circuit.to_tables());
}

TEST(Real, StructuralAigScalesWithoutTabulation) {
  // A wide shift-register-like cascade: 40 lines, far beyond exhaustive
  // tabulation, converts structurally in negligible time.
  std::string text = ".numvars 40\n.variables";
  for (int i = 0; i < 40; ++i) {
    text += " l" + std::to_string(i);
  }
  text += "\n.begin\n";
  for (int i = 0; i + 1 < 40; ++i) {
    text += "t2 l" + std::to_string(i) + " l" + std::to_string(i + 1) + "\n";
  }
  text += ".end\n";
  const auto circuit = parse_real_string(text);
  const auto net = real_to_aig(circuit);
  EXPECT_EQ(net.num_pis(), 40u);
  EXPECT_EQ(net.num_pos(), 40u);
  EXPECT_GT(net.count_live_ands(), 0u);
  EXPECT_THROW(circuit.to_tables(), std::runtime_error);
}

TEST(Real, Malformed) {
  EXPECT_THROW(parse_real_string(".numvars 2\n.variables a\n.begin\n.end\n"),
               std::runtime_error);
  EXPECT_THROW(
      parse_real_string(
          ".numvars 1\n.variables a\n.begin\nt1 q\n.end\n"),
      std::runtime_error);
  EXPECT_THROW(
      parse_real_string(".numvars 1\n.variables a\nt1 a\n.end\n"),
      std::runtime_error); // gate before .begin
}

// ---------- Verilog ----------

TEST(Verilog, AssignExpressions) {
  const std::string text = R"(
// full adder from expressions
module fa (a, b, cin, sum, cout);
  input a, b, cin;
  output sum, cout;
  wire t;
  assign t = a ^ b;
  assign sum = t ^ cin;
  assign cout = (a & b) | (t & cin);
endmodule
)";
  const auto net = parse_verilog_string(text);
  const auto tts = aig::simulate(net);
  const auto a = tt::TruthTable::projection(3, 0);
  const auto b = tt::TruthTable::projection(3, 1);
  const auto c = tt::TruthTable::projection(3, 2);
  EXPECT_EQ(tts[0], a ^ b ^ c);
  EXPECT_EQ(tts[1], tt::TruthTable::majority(a, b, c));
}

TEST(Verilog, GatePrimitivesAndTernary) {
  const std::string text = R"(
module m (a, b, s, y, z);
  input a, b, s;
  output y, z;
  wire n;
  nand g1 (n, a, b);
  assign y = s ? a : b;
  assign z = ~n;
endmodule
)";
  const auto tts = aig::simulate(parse_verilog_string(text));
  const auto a = tt::TruthTable::projection(3, 0);
  const auto b = tt::TruthTable::projection(3, 1);
  const auto s = tt::TruthTable::projection(3, 2);
  EXPECT_EQ(tts[0], tt::TruthTable::ite(s, a, b));
  EXPECT_EQ(tts[1], a & b);
}

TEST(Verilog, OutOfOrderAssignsAndConstants) {
  const std::string text = R"(
module m (a, y);
  input a;
  output y;
  wire w;
  assign y = w | 1'b0;
  assign w = a & 1'b1;
endmodule
)";
  const auto tts = aig::simulate(parse_verilog_string(text));
  EXPECT_EQ(tts[0], tt::TruthTable::projection(1, 0));
}

TEST(Verilog, OperatorPrecedence) {
  // ~a & b | c ^ d  ==  ((~a) & b) | (c ^ d)
  const std::string text = R"(
module m (a, b, c, d, y);
  input a, b, c, d;
  output y;
  assign y = ~a & b | c ^ d;
endmodule
)";
  const auto tts = aig::simulate(parse_verilog_string(text));
  const auto a = tt::TruthTable::projection(4, 0);
  const auto b = tt::TruthTable::projection(4, 1);
  const auto c = tt::TruthTable::projection(4, 2);
  const auto d = tt::TruthTable::projection(4, 3);
  EXPECT_EQ(tts[0], (~a & b) | (c ^ d));
}

TEST(Verilog, Malformed) {
  EXPECT_THROW(parse_verilog_string("module m (a); input a;\n"),
               std::runtime_error); // missing endmodule
  EXPECT_THROW(
      parse_verilog_string(
          "module m (y); output y; assign y = q; endmodule\n"),
      std::runtime_error); // undefined name
  EXPECT_THROW(
      parse_verilog_string(
          "module m (y); output y; always @(posedge c) x; endmodule\n"),
      std::runtime_error); // unsupported construct
}

class VerilogRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VerilogRoundTrip, WriteParsePreservesFunction) {
  const auto net = random_aig(5, 25, 3, GetParam() + 50);
  const auto text = write_verilog_string(net);
  const auto back = parse_verilog_string(text);
  EXPECT_EQ(aig::simulate(net), aig::simulate(back));
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerilogRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------- RQFP text format ----------

TEST(RqfpFormat, RoundTrip) {
  rqfp::Netlist net(2);
  net.set_pi_names({"a", "b"});
  const auto g0 =
      net.add_gate({1, 2, rqfp::kConstPort}, rqfp::InvConfig::from_rows(5, 6, 4));
  const auto g1 = net.add_gate({0, net.port_of(g0, 2), 0},
                               rqfp::InvConfig::splitter());
  net.add_po(net.port_of(g1, 0), "f");
  const auto text = write_rqfp_string(net);
  const auto back = parse_rqfp_string(text);
  EXPECT_EQ(back.num_pis(), 2u);
  EXPECT_EQ(back.num_gates(), 2u);
  EXPECT_EQ(back.po_name(0), "f");
  EXPECT_EQ(rqfp::simulate(back), rqfp::simulate(net));
  EXPECT_EQ(back.gate(0).config, net.gate(0).config);
}

/// The stream writer `write_rqfp_string` replaced: the reference its
/// bytes are checked against.
std::string reference_rqfp_text(const rqfp::Netlist& net) {
  std::ostringstream out;
  out << ".rqfp 1\n";
  out << ".pis " << net.num_pis();
  if (net.has_pi_names()) {
    for (std::uint32_t i = 0; i < net.num_pis(); ++i) {
      out << ' ' << net.pi_name(i);
    }
  }
  out << "\n.pos " << net.num_pos() << '\n';
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    const auto& gate = net.gate(g);
    out << "gate " << gate.in[0] << ' ' << gate.in[1] << ' ' << gate.in[2]
        << ' ' << gate.config.to_string() << '\n';
  }
  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    out << "po " << net.po_at(i) << ' ' << net.po_name(i) << '\n';
  }
  out << ".end\n";
  return out.str();
}

TEST(RqfpFormat, StringWriterMatchesTheStreamWriter) {
  util::Rng rng(4242);
  fuzz::NetlistShape shape;
  shape.max_pis = 10;
  shape.max_pos = 6;
  shape.max_gates = 200;
  for (int i = 0; i < 500; ++i) {
    rqfp::Netlist net = fuzz::random_netlist(rng, shape);
    if (i % 2 == 1) {
      std::vector<std::string> names;
      for (std::uint32_t p = 0; p < net.num_pis(); ++p) {
        names.push_back("in_" + std::to_string(p));
      }
      net.set_pi_names(std::move(names));
    }
    const std::string text = write_rqfp_string(net);
    ASSERT_EQ(text, reference_rqfp_text(net)) << "netlist " << i;
    std::ostringstream streamed;
    write_rqfp(net, streamed);
    ASSERT_EQ(streamed.str(), text) << "netlist " << i;
  }
}

TEST(RqfpFormat, MalformedInput) {
  EXPECT_THROW(parse_rqfp_string("gate 0 0 0 000-000-000\n"),
               std::runtime_error);
  EXPECT_THROW(parse_rqfp_string(".rqfp 1\ngate 0 0 0 000-000-000\n"),
               std::runtime_error); // gate before .pis
  EXPECT_THROW(parse_rqfp_string(".rqfp 1\n.pis 1\nbogus\n"),
               std::runtime_error);
}

// ---------- error context (ParseError carries source:line) ----------

/// Runs `fn`, which must throw ParseError, and hands the error back for
/// inspection of its source/line context.
template <typename Fn>
ParseError expect_parse_error(Fn&& fn) {
  try {
    fn();
  } catch (const ParseError& e) {
    return e;
  }
  ADD_FAILURE() << "expected a ParseError, none was thrown";
  return ParseError("none", "none", 0, "no error");
}

TEST(ParseErrorContext, BlifCubeErrorCitesTheOffendingLine) {
  std::istringstream in(
      ".model m\n.inputs a b\n.outputs f\n.names a b f\n111 1\n.end\n");
  const auto e = expect_parse_error([&] { parse_blif(in, "adder.blif"); });
  EXPECT_EQ(e.source(), "adder.blif");
  EXPECT_EQ(e.line(), 5u);
  EXPECT_NE(std::string(e.what()).find("blif:adder.blif:5:"),
            std::string::npos)
      << e.what();
}

TEST(ParseErrorContext, BlifUndefinedDependencyCitesItsNamesLine) {
  std::istringstream in(
      ".model m\n.inputs a\n.outputs f\n.names q f\n1 1\n.end\n");
  const auto e = expect_parse_error([&] { parse_blif(in, "dep.blif"); });
  EXPECT_EQ(e.source(), "dep.blif");
  EXPECT_EQ(e.line(), 4u);
}

TEST(ParseErrorContext, BlifUndrivenOutputOmitsLine) {
  const auto e = expect_parse_error(
      [] { parse_blif_string(".model m\n.inputs a\n.outputs f\n.end\n"); });
  EXPECT_EQ(e.line(), 0u);
  // Line is unknown: the message reads "blif:<blif>: ..." with no line part.
  EXPECT_NE(std::string(e.what()).find("blif:<blif>: "), std::string::npos)
      << e.what();
}

TEST(ParseErrorContext, PlaCubeErrorsCiteTheCubeLine) {
  {
    std::istringstream in(".i 2\n.o 1\n101 1\n.e\n");
    const auto e = expect_parse_error([&] { parse_pla(in, "wide.pla"); });
    EXPECT_EQ(e.source(), "wide.pla");
    EXPECT_EQ(e.line(), 3u);
  }
  {
    std::istringstream in(".i 2\n.o 1\n11 1\n1x 1\n.e\n");
    const auto e = expect_parse_error([&] { parse_pla(in, "char.pla"); });
    EXPECT_EQ(e.line(), 4u);
  }
}

TEST(ParseErrorContext, AigerTruncationNamesTheSource) {
  {
    std::istringstream in("aag 3 2 0 1 1\n2\n4\n"); // output section cut off
    const auto e = expect_parse_error([&] { parse_aiger(in, "toy.aag"); });
    EXPECT_EQ(e.source(), "toy.aag");
    EXPECT_GT(e.line(), 0u);
    EXPECT_NE(std::string(e.what()).find("aiger:toy.aag:"),
              std::string::npos)
        << e.what();
  }
  {
    std::istringstream in("aig 3 2 0 1 1\n6\n"); // binary deltas cut off
    const auto e =
        expect_parse_error([&] { parse_aiger_binary(in, "toy.aig"); });
    EXPECT_EQ(e.source(), "toy.aig");
  }
}

TEST(ParseErrorContext, VerilogUnresolvedAssignCitesItsStatement) {
  std::istringstream in(
      "module m (y);\noutput y;\nassign y = q;\nendmodule\n");
  const auto e = expect_parse_error([&] { parse_verilog(in, "bad.v"); });
  EXPECT_EQ(e.source(), "bad.v");
  EXPECT_EQ(e.line(), 3u);
  EXPECT_NE(std::string(e.what()).find("verilog:bad.v:3:"),
            std::string::npos)
      << e.what();
}

TEST(ParseErrorContext, FileOpenFailuresIncludeThePath) {
  const std::string missing = "/nonexistent/rcgp_test_input.xyz";
  for (const auto& fn : {
           std::function<void()>([&] { parse_blif_file(missing); }),
           std::function<void()>([&] { parse_pla_file(missing); }),
           std::function<void()>([&] { parse_aiger_file(missing); }),
           std::function<void()>([&] { parse_verilog_file(missing); }),
       }) {
    const auto e = expect_parse_error(fn);
    EXPECT_EQ(e.source(), missing);
    EXPECT_EQ(e.line(), 0u);
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos)
        << e.what();
  }
}

// ---------- parser robustness fuzzing ----------

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, MutatedInputsNeverCrashOnlyThrow) {
  // Take valid source texts, randomly corrupt bytes, and require every
  // parser to either succeed or throw a std:: exception — never crash or
  // hang.
  util::Rng rng(GetParam());
  const std::string valid_rqfp =
      ".rqfp 1\n.pis 2 a b\n.pos 1\ngate 1 2 0 101-100-000\npo 5 f\n.end\n";
  const std::string valid_blif =
      ".model m\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n";
  const std::string valid_verilog =
      "module m (a, b, f); input a, b; output f; assign f = a & b; "
      "endmodule\n";
  const std::string valid_aiger = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n";
  const std::string valid_real =
      ".numvars 2\n.variables a b\n.begin\nt2 a b\n.end\n";
  const std::string valid_pla = ".i 2\n.o 1\n11 1\n.e\n";

  auto corrupt = [&](std::string s) {
    const int edits = 1 + static_cast<int>(rng.below(6));
    for (int e = 0; e < edits && !s.empty(); ++e) {
      const std::size_t pos = rng.below(s.size());
      switch (rng.below(3)) {
        case 0: s[pos] = static_cast<char>(32 + rng.below(95)); break;
        case 1: s.erase(pos, 1); break;
        default: s.insert(pos, 1, static_cast<char>(32 + rng.below(95)));
      }
    }
    return s;
  };

  for (int round = 0; round < 60; ++round) {
    try {
      (void)io::parse_rqfp_string(corrupt(valid_rqfp));
    } catch (const std::exception&) {
    }
    try {
      (void)io::parse_blif_string(corrupt(valid_blif));
    } catch (const std::exception&) {
    }
    try {
      (void)io::parse_verilog_string(corrupt(valid_verilog));
    } catch (const std::exception&) {
    }
    try {
      (void)io::parse_aiger_string(corrupt(valid_aiger));
    } catch (const std::exception&) {
    }
    try {
      (void)io::parse_real_string(corrupt(valid_real));
    } catch (const std::exception&) {
    }
    try {
      (void)io::parse_pla_string(corrupt(valid_pla));
    } catch (const std::exception&) {
    }
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(101, 202, 303, 404, 505));

TEST(RqfpFormat, StructuralVerilogListsEveryGate) {
  rqfp::Netlist net(2);
  const auto g0 = net.add_gate({1, 2, rqfp::kConstPort},
                               rqfp::InvConfig::from_rows(5, 6, 4));
  const auto g1 = net.add_gate({0, net.port_of(g0, 2), 0},
                               rqfp::InvConfig::splitter());
  net.add_po(net.port_of(g1, 0), "f");
  const auto v = write_structural_verilog_string(net, "top");
  EXPECT_NE(v.find("module rqfp_gate"), std::string::npos);
  EXPECT_NE(v.find("module top"), std::string::npos);
  EXPECT_NE(v.find("g0 (.a(x0), .b(x1), .c(const1)"), std::string::npos);
  EXPECT_NE(v.find("g1 "), std::string::npos);
  EXPECT_NE(v.find("assign f = "), std::string::npos);
  // CONFIG for the splitter: rows 100-100-100 -> bits 100100100.
  EXPECT_NE(v.find("9'b100100100"), std::string::npos);
}

TEST(RqfpFormat, DotExportMentionsAllGates) {
  rqfp::Netlist net(1);
  const auto g0 = net.add_gate({0, 1, 0}, rqfp::InvConfig::splitter());
  net.add_po(net.port_of(g0, 0), "f");
  const auto dot = write_dot_string(net);
  EXPECT_NE(dot.find("g0"), std::string::npos);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("po0"), std::string::npos);
}

// ---------- io facade (read_network / write_network, docs/FORMATS.md) ----

std::string facade_path(const std::string& name) {
  return ::testing::TempDir() + "rcgp_io_facade_" + name;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out << text;
}

TEST(Facade, FormatFromExtensionCoversEverySupportedSuffix) {
  EXPECT_EQ(format_from_extension("a/b/c.v"), Format::kVerilog);
  EXPECT_EQ(format_from_extension("x.blif"), Format::kBlif);
  EXPECT_EQ(format_from_extension("x.aag"), Format::kAiger);
  EXPECT_EQ(format_from_extension("x.aig"), Format::kAiger);
  EXPECT_EQ(format_from_extension("x.pla"), Format::kPla);
  EXPECT_EQ(format_from_extension("x.real"), Format::kReal);
  EXPECT_EQ(format_from_extension("x.rqfp"), Format::kRqfp);
  EXPECT_EQ(format_from_extension("x.dot"), Format::kDot);
  EXPECT_EQ(format_from_extension("x.txt"), Format::kAuto);
  // A dot in a directory name is not an extension.
  EXPECT_EQ(format_from_extension("dir.d/file"), Format::kAuto);
}

TEST(Facade, ReadDetectsBlifByExtensionAndReturnsAig) {
  const std::string path = facade_path("voter.blif");
  write_text(path,
             ".model and2\n.inputs a b\n.outputs y\n.names a b y\n11 1\n"
             ".end\n");
  const Network net = read_network(path);
  EXPECT_EQ(net.format, Format::kBlif);
  ASSERT_TRUE(net.aig.has_value());
  EXPECT_FALSE(net.rqfp.has_value());
  EXPECT_EQ(net.num_pis(), 2u);
  EXPECT_EQ(net.num_pos(), 1u);
  const auto tables = net.to_tables();
  ASSERT_EQ(tables.size(), 1u);
  EXPECT_EQ(tables[0], tt::TruthTable::projection(2, 0) &
                           tt::TruthTable::projection(2, 1));
  std::remove(path.c_str());
}

TEST(Facade, SniffsFormatsBehindUnknownExtensions) {
  struct Case {
    const char* text;
    Format expected;
  };
  const Case cases[] = {
      {"aag 1 1 0 1 0\n2\n2\n", Format::kAiger},
      {".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n",
       Format::kBlif},
      {"module m(a, y);\ninput a;\noutput y;\nassign y = a;\nendmodule\n",
       Format::kVerilog},
      {".i 1\n.o 1\n1 1\n.e\n", Format::kPla},
      {"# comment first\n.version 2\n.numvars 1\n.variables a\n.begin\n"
       "t1 a\n.end\n",
       Format::kReal},
      {".rqfp 1\n.pis 1\n.pos 1\ngate 0 1 0 100-100-100\npo 2\n.end\n",
       Format::kRqfp},
  };
  for (const auto& c : cases) {
    const std::string path = facade_path("sniff.circ");
    write_text(path, c.text);
    EXPECT_EQ(detect_format(path), c.expected) << c.text;
    const Network net = read_network(path);
    EXPECT_EQ(net.format, c.expected);
    EXPECT_GE(net.num_pos(), 1u);
    std::remove(path.c_str());
  }
}

TEST(Facade, UndetectableContentThrowsParseErrorWithSource) {
  const std::string path = facade_path("mystery.bin");
  write_text(path, "this is not a circuit\n");
  try {
    (void)read_network(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.source(), path);
    EXPECT_NE(std::string(e.what()).find("cannot detect"),
              std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(Facade, MissingFileThrowsParseError) {
  EXPECT_THROW((void)read_network(facade_path("does_not_exist.blif")),
               ParseError);
  EXPECT_THROW((void)read_network(facade_path("does_not_exist.noext")),
               ParseError);
}

TEST(Facade, ExplicitFormatOverridesExtension) {
  const std::string path = facade_path("actually_blif.v");
  write_text(path,
             ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n");
  const Network net = read_network(path, Format::kBlif);
  EXPECT_EQ(net.format, Format::kBlif);
  ASSERT_TRUE(net.aig.has_value());
  std::remove(path.c_str());
}

TEST(Facade, RqfpRoundTripsThroughWriteAndRead) {
  rqfp::Netlist net(2);
  const auto g = net.add_gate({1, 2, rqfp::kConstPort},
                              rqfp::InvConfig::from_rows(5, 6, 4));
  net.add_po(net.port_of(g, 2), "y");
  const std::string path = facade_path("roundtrip.rqfp");
  write_network(net, path);
  const Network back = read_network(path);
  ASSERT_TRUE(back.rqfp.has_value());
  EXPECT_EQ(write_rqfp_string(*back.rqfp), write_rqfp_string(net));
  EXPECT_EQ(back.to_tables(), rqfp::simulate(net));
  std::remove(path.c_str());
}

TEST(Facade, AigRoundTripsThroughEveryWritableFormat) {
  const auto net = random_aig(4, 12, 3, 99);
  const auto ref = aig::simulate(net);
  for (const char* name :
       {"rt.v", "rt.blif", "rt.aag", "rt.aig"}) {
    const std::string path = facade_path(name);
    write_network(net, path);
    const Network back = read_network(path);
    ASSERT_TRUE(back.aig.has_value()) << name;
    EXPECT_EQ(back.to_tables(), ref) << name;
    std::remove(path.c_str());
  }
}

TEST(Facade, EmptyFilesAreContextualParseErrors) {
  // Auto-detection and every explicit parser must reject an empty file
  // with a ParseError naming it — never misdetect or crash.
  const std::string path = facade_path("empty.circ");
  write_text(path, "");
  auto e = expect_parse_error([&] { read_network(path); });
  EXPECT_EQ(e.source(), path);
  EXPECT_NE(std::string(e.what()).find("empty"), std::string::npos)
      << e.what();
  const std::string empty_rqfp = facade_path("empty.rqfp");
  write_text(empty_rqfp, "");
  EXPECT_THROW(read_network(empty_rqfp), ParseError);
  std::remove(path.c_str());
  std::remove(empty_rqfp.c_str());
}

TEST(Facade, BinaryGarbageIsAContextualParseError) {
  // No recognizable leading token: detection fails with a sanitized
  // snippet of the content instead of reading the whole blob.
  std::string blob;
  util::Rng rng(0xBADF00D);
  for (int k = 0; k < 4096; ++k) {
    blob.push_back(static_cast<char>(rng.below(256)));
  }
  const std::string path = facade_path("garbage.bin");
  write_text(path, blob);
  const auto e = expect_parse_error([&] { read_network(path); });
  EXPECT_EQ(e.source(), path);
  std::remove(path.c_str());
}

TEST(Facade, WrongExtensionContentIsAParseErrorNotUb) {
  // RQFP text inside a .aag file: the extension wins detection, so the
  // AIGER parser must fail with a ParseError naming the file.
  const std::string path = facade_path("lies.aag");
  write_text(path, ".rqfp 1\n.pis 1\n.pos 1\npo 1 f\n.end\n");
  const auto e = expect_parse_error([&] { read_network(path); });
  EXPECT_EQ(e.source(), path);
  std::remove(path.c_str());
}

TEST(Facade, CorruptBinaryAigerReportsAByteOffset) {
  const auto net = random_aig(3, 8, 2, 5);
  std::string blob = write_aiger_binary_string(net);
  blob.resize(blob.find('\n') + 3); // truncate inside the binary section
  const std::string path = facade_path("cut.aig");
  write_text(path, blob);
  const auto e = expect_parse_error([&] { read_network(path); });
  EXPECT_EQ(e.source(), path);
  EXPECT_NE(std::string(e.what()).find("byte "), std::string::npos)
      << e.what();
  std::remove(path.c_str());
}

TEST(Facade, OversizedAigerHeadersFailFast) {
  // A corrupted header must not drive the literal-map allocation.
  EXPECT_THROW(parse_aiger_string("aag 999999999999 0 0 0 0\n"), ParseError);
  std::istringstream bin("aig 4000000000 4000000000 0 0 0\n");
  EXPECT_THROW(parse_aiger_binary(bin), ParseError);
  EXPECT_THROW(parse_pla_string(".i 3\n.o 4000000000\n111 1\n.e\n"),
               ParseError);
}

TEST(Facade, MalformedAigerSymbolTagsAreTolerated) {
  // Non-numeric symbol indices used to escape as std::invalid_argument
  // from std::stoul; they are skipped now (symbols are optional).
  const auto net = parse_aiger_string(
      "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\nix bogus\ni0 a\no99999999999999 x\n");
  EXPECT_EQ(net.num_pis(), 2u);
  EXPECT_EQ(net.pi_name(0), "a");
}

TEST(Facade, RejectsImpossibleConversions) {
  rqfp::Netlist net(1);
  const auto g0 = net.add_gate({0, 1, 0}, rqfp::InvConfig::splitter());
  net.add_po(net.port_of(g0, 0));
  EXPECT_THROW(write_network(net, facade_path("x.blif")),
               std::invalid_argument);
  const auto a = random_aig(2, 3, 1, 7);
  EXPECT_THROW(write_network(a, facade_path("x.rqfp")),
               std::invalid_argument);
  EXPECT_THROW(write_network(a, facade_path("x.unknown")),
               std::invalid_argument);
}

} // namespace
} // namespace rcgp::io
