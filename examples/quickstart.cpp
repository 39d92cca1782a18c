// Quickstart: synthesize an RQFP circuit for a 1-bit full adder.
//
// Demonstrates the minimal RCGP API surface: define a specification as
// truth tables, run the end-to-end flow (resyn2 -> MIG -> RQFP conversion
// -> splitter insertion -> CGP optimization), and inspect the result.
//
// Optional telemetry (see docs/OBSERVABILITY.md):
//   quickstart --trace-out=trace.jsonl --metrics-out=metrics.json

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "benchmarks/benchmarks.hpp"
#include "cec/sat_cec.hpp"
#include "core/chromosome.hpp"
#include "core/flow.hpp"
#include "io/rqfp_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rqfp/buffer.hpp"

int main(int argc, char** argv) {
  using namespace rcgp;

  // Optional telemetry outputs.
  std::string trace_path;
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      trace_path = arg + 12;
    } else if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
      metrics_path = arg + 14;
    } else {
      std::fprintf(stderr,
                   "usage: quickstart [--trace-out=FILE.jsonl] "
                   "[--metrics-out=FILE.json]\n");
      return 2;
    }
  }
  std::unique_ptr<obs::TraceSink> trace;
  if (!trace_path.empty()) {
    trace = obs::TraceSink::open(trace_path);
    if (!trace) {
      std::fprintf(stderr, "cannot open %s\n", trace_path.c_str());
      return 2;
    }
  }

  // 1. The specification: one truth table per output. The benchmark
  //    registry ships the paper's testcases; you can also build tables
  //    with tt::TruthTable directly.
  const auto spec = benchmarks::get("full_adder");
  std::printf("specification: %s (%u inputs, %u outputs)\n",
              spec.name.c_str(), spec.num_pis, spec.num_pos);

  // 2. Run the flow. All phases are configurable; 50k generations keeps
  //    this example under a few seconds.
  core::FlowOptions options;
  options.evolve.generations = 50000;
  options.evolve.lambda = 4;
  options.evolve.seed = 1;
  options.evolve.trace = trace.get(); // nullptr = tracing off
  const auto result = core::synthesize(spec.spec, options);

  // 3. Costs before and after CGP (the paper's Table 1 columns).
  std::printf("initialization: %s\n",
              result.initial_cost.to_string().c_str());
  std::printf("after RCGP:     %s\n",
              result.optimized_cost.to_string().c_str());
  const core::EvolveResult& evolution = result.optimization.evolve;
  std::printf("evolution: %llu generations, %llu improvements, %.2fs\n",
              static_cast<unsigned long long>(evolution.generations_run),
              static_cast<unsigned long long>(evolution.improvements),
              evolution.seconds);

  // 4. Formal sign-off: SAT-based equivalence against the specification.
  const auto cec = cec::sat_check(result.optimized, spec.spec);
  std::printf("SAT equivalence: %s\n",
              cec.verdict == cec::CecVerdict::kEquivalent ? "PROVED"
                                                          : "FAILED");

  // 5. The chromosome in the paper's Fig. 3 notation, and the netlist in
  //    the portable .rqfp format.
  std::printf("\ngenotype: %s\n",
              core::to_genotype_string(result.optimized).c_str());
  std::printf("\n%s", io::write_rqfp_string(result.optimized).c_str());

  // 6. Where the path-balancing buffers go.
  const auto plan = rqfp::plan_buffers(result.optimized);
  std::printf("\nbuffers: %u total over %u clock stages\n", plan.total,
              plan.depth);

  // 7. Telemetry, if requested: the JSONL evolution trace was streamed
  //    during the run; the metrics registry snapshot goes out here.
  if (!metrics_path.empty()) {
    if (!obs::registry().write_json(metrics_path)) {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      return 2;
    }
    std::printf("\nwrote %s\n", metrics_path.c_str());
  }
  if (trace) {
    trace->flush();
    std::printf("wrote %s (%llu events)\n", trace_path.c_str(),
                static_cast<unsigned long long>(trace->lines_written()));
  }
  return cec.verdict == cec::CecVerdict::kEquivalent ? 0 : 1;
}
