#include "cec/sim_cec.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "rqfp/simd.hpp"
#include "rqfp/simulate.hpp"

namespace rcgp::cec {

namespace {

void finish(SimResult& r) {
  r.success_rate =
      r.total_bits == 0
          ? 1.0
          : 1.0 - static_cast<double>(r.mismatching_bits) /
                      static_cast<double>(r.total_bits);
  r.all_match = r.mismatching_bits == 0;
}

} // namespace

SimResult sim_compare(std::span<const tt::TruthTable> out,
                      std::span<const tt::TruthTable> spec) {
  if (out.size() != spec.size()) {
    throw std::invalid_argument("sim_compare: PO count mismatch");
  }
  // This is the CGP fitness hot path: one relaxed atomic inc per check.
  static obs::Counter& c_checks = obs::registry().counter("cec.sim_checks");
  c_checks.inc();
  SimResult r;
  for (std::size_t i = 0; i < spec.size(); ++i) {
    r.total_bits += spec[i].num_bits();
    r.mismatching_bits += out[i].hamming_distance(spec[i]);
  }
  finish(r);
  return r;
}

SimResult sim_check(const rqfp::Netlist& net,
                    std::span<const tt::TruthTable> spec) {
  if (spec.size() != net.num_pos()) {
    throw std::invalid_argument("sim_check: PO count mismatch");
  }
  const auto out = rqfp::simulate(net);
  return sim_compare(out, spec);
}

SimResult sim_check_random(const rqfp::Netlist& a, const rqfp::Netlist& b,
                           std::size_t num_words, util::Rng& rng) {
  if (a.num_pis() != b.num_pis() || a.num_pos() != b.num_pos()) {
    throw std::invalid_argument("sim_check_random: interface mismatch");
  }
  static obs::Counter& c_checks =
      obs::registry().counter("cec.sim_random_checks");
  c_checks.inc();
  // sim_check and sim_compare sit on the fitness path and stay span-free;
  // this random-vector CEC entry runs per verification.
  obs::Span span("cec.sim");
  span.arg("words", static_cast<std::uint64_t>(num_words));
  rqfp::SimBatch patterns(a.num_pis(), num_words);
  for (std::size_t i = 0; i < patterns.rows(); ++i) {
    for (std::size_t w = 0; w < num_words; ++w) {
      patterns.at(i, w) = rng.next();
    }
  }
  rqfp::SimBatch va;
  rqfp::SimBatch vb;
  rqfp::SimBatch scratch;
  rqfp::simulate_patterns(a, patterns, va, scratch);
  rqfp::simulate_patterns(b, patterns, vb, scratch);
  const auto& kernels = rqfp::simd::kernels();
  SimResult r;
  for (std::size_t i = 0; i < va.rows(); ++i) {
    r.total_bits += 64 * num_words;
    r.mismatching_bits += kernels.xor_popcount(va.row(i), vb.row(i),
                                               num_words);
  }
  finish(r);
  return r;
}

} // namespace rcgp::cec
