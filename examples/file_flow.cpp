// File-based flow: read a circuit from any supported format (Verilog,
// BLIF, ASCII AIGER, PLA, or RevLib .real), synthesize an RQFP circuit,
// and write .rqfp plus Graphviz DOT next to it.
//
// Usage:  file_flow [input-file [generations]]
// With no arguments, a built-in BLIF majority-voter demo is used.

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "aig/aig_simulate.hpp"
#include "batch/execute.hpp"
#include "cec/sim_cec.hpp"
#include "core/flow.hpp"
#include "io/blif.hpp"
#include "io/io.hpp"
#include "io/rqfp_writer.hpp"

namespace {

const char* kDemoBlif = R"(
.model voter5
.inputs a b c d e
.outputs maj
.names a b c d e maj
111-- 1
11-1- 1
11--1 1
1-11- 1
1-1-1 1
1--11 1
-111- 1
-11-1 1
-1-11 1
--111 1
.end
)";

} // namespace

int main(int argc, char** argv) {
  using namespace rcgp;
  try {
    aig::Aig net;
    std::string stem = "voter5_demo";
    if (argc > 1) {
      // The resolver every front end shares: AIG formats keep their
      // structure, table formats are ISOP-factored, and a name without a
      // circuit-file extension is a built-in benchmark.
      net = batch::resolve_circuit(argv[1]).flow_input();
      stem = argv[1];
      const auto dot = stem.rfind('.');
      if (dot != std::string::npos) {
        stem.resize(dot);
      }
    } else {
      std::printf("no input given; using the built-in 5-input voter demo\n");
      net = io::parse_blif_string(kDemoBlif);
    }

    core::FlowOptions opt;
    opt.evolve.generations =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 30000;
    const auto flow = core::synthesize(net, opt);

    const auto spec = aig::simulate(net);
    std::printf("init: %s\n", flow.initial_cost.to_string().c_str());
    std::printf("rcgp: %s (%.2fs, equivalent: %s)\n",
                flow.optimized_cost.to_string().c_str(), flow.seconds_total,
                cec::sim_check(flow.optimized, spec).all_match ? "yes"
                                                               : "NO");

    const std::string rqfp_path = stem + ".rqfp";
    io::write_network(flow.optimized, rqfp_path);
    std::printf("wrote %s\n", rqfp_path.c_str());
    std::printf("DOT preview:\n%s",
                io::write_dot_string(flow.optimized).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
