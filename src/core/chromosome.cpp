#include "core/chromosome.hpp"

namespace rcgp::core {

std::string to_genotype_string(const rqfp::Netlist& net) {
  std::string s;
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    const auto& gate = net.gate(g);
    s += "(" + std::to_string(gate.in[0]) + ", " +
         std::to_string(gate.in[1]) + ", " + std::to_string(gate.in[2]) +
         ", " + gate.config.to_string() + ") ";
  }
  s += "(";
  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    if (i) {
      s += ", ";
    }
    s += std::to_string(net.po_at(i));
  }
  s += ")";
  return s;
}

} // namespace rcgp::core
