#include "cec/sim_cec.hpp"

#include <stdexcept>
#include <vector>

#include "rqfp/simulate.hpp"

namespace rcgp::cec {

SimResult sim_compare(std::span<const tt::TruthTable> out,
                      std::span<const tt::TruthTable> spec) {
  if (out.size() != spec.size()) {
    throw std::invalid_argument("sim_compare: PO count mismatch");
  }
  SimResult r;
  for (std::size_t i = 0; i < spec.size(); ++i) {
    r.total_bits += spec[i].num_bits();
    r.mismatching_bits += out[i].hamming_distance(spec[i]);
  }
  r.success_rate =
      r.total_bits == 0
          ? 1.0
          : 1.0 - static_cast<double>(r.mismatching_bits) /
                      static_cast<double>(r.total_bits);
  r.all_match = r.mismatching_bits == 0;
  return r;
}

SimResult sim_check(const rqfp::Netlist& net,
                    std::span<const tt::TruthTable> spec) {
  if (spec.size() != net.num_pos()) {
    throw std::invalid_argument("sim_check: PO count mismatch");
  }
  // One reused row buffer per thread rather than rqfp::simulate's heap
  // table per port.
  thread_local rqfp::SimCache sim;
  thread_local std::vector<tt::TruthTable> out;
  rqfp::build_sim_cache(net, sim);
  out.resize(net.num_pos());
  for (std::uint32_t o = 0; o < out.size(); ++o) {
    out[o] = sim.table(net.po_at(o));
  }
  return sim_compare(out, spec);
}

} // namespace rcgp::cec
