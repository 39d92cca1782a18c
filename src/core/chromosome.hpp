#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "rqfp/netlist.hpp"

namespace rcgp::core {

/// Gene arithmetic over the RQFP netlist-as-genotype.
///
/// The paper encodes a candidate as n_C*n_R*(n_i+1) + n_po integers with
/// n_i = 3 (Fig. 3): each gate contributes three connection genes and one
/// function (inverter-configuration) gene, followed by one gene per PO.
/// RCGP's genotype is the netlist itself; this header gives the gene-index
/// view used by point mutation.
struct GeneRef {
  enum class Kind { kGateInput, kGateConfig, kPrimaryOutput };
  Kind kind = Kind::kGateInput;
  std::uint32_t gate = 0;  // for kGateInput / kGateConfig
  unsigned slot = 0;       // input slot 0..2 for kGateInput
  std::uint32_t po = 0;    // for kPrimaryOutput
};

/// Number of genes in the chromosome: 4 per gate + one per PO.
inline std::uint32_t num_genes(const rqfp::Netlist& net) {
  return 4 * net.num_gates() + net.num_pos();
}

/// Maps a flat gene index to its location.
inline GeneRef gene_at(const rqfp::Netlist& net, std::uint32_t index) {
  if (index >= num_genes(net)) {
    throw std::out_of_range("gene_at: index beyond chromosome");
  }
  GeneRef ref;
  const std::uint32_t gate_genes = 4 * net.num_gates();
  if (index < gate_genes) {
    ref.gate = index / 4;
    const unsigned field = index % 4;
    if (field < 3) {
      ref.kind = GeneRef::Kind::kGateInput;
      ref.slot = field;
    } else {
      ref.kind = GeneRef::Kind::kGateConfig;
    }
  } else {
    ref.kind = GeneRef::Kind::kPrimaryOutput;
    ref.po = index - gate_genes;
  }
  return ref;
}

/// Renders the genotype in the paper's Fig. 3 notation:
/// "(in0, in1, in2, xxx-xxx-xxx) ... (po0, po1, ...)".
std::string to_genotype_string(const rqfp::Netlist& net);

} // namespace rcgp::core
