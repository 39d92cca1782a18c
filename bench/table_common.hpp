#pragma once

// Shared helpers for the table-regeneration benches (Tables 1 and 2 of the
// paper). These binaries print the same row layout as the paper so
// paper-vs-measured comparison (EXPERIMENTS.md) is a visual diff.

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "benchmarks/benchmarks.hpp"
#include "cec/sim_cec.hpp"
#include "core/flow.hpp"
#include "core/window.hpp"
#include "obs/metrics.hpp"
#include "rqfp/cost.hpp"

namespace rcgp::benchtool {

/// Exits with status 2 after naming the malformed variable, so a typo in a
/// budget never silently runs a different experiment.
[[noreturn]] inline void reject_env(const char* name, const char* value,
                                    const char* expected) {
  std::fprintf(stderr, "%s: expected %s, got '%s'\n", name, expected, value);
  std::exit(2);
}

/// Environment-variable override with a default (all benches are budgeted
/// so a full run finishes on a laptop; raise the env vars to approach the
/// paper's 5*10^7-generation budget). The whole value must be a decimal
/// unsigned integer: empty text, a sign, trailing characters ("four",
/// "2e5") and overflow are rejected.
inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) {
    return fallback;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (*v < '0' || *v > '9' || errno == ERANGE || *end != '\0') {
    reject_env(name, v, "an unsigned integer");
  }
  return x;
}

/// Same rules for a finite, non-negative decimal number.
inline double env_f64(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) {
    return fallback;
  }
  errno = 0;
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  if (*v == '\0' || errno == ERANGE || *end != '\0' || !std::isfinite(x) ||
      x < 0.0) {
    reject_env(name, v, "a non-negative number");
  }
  return x;
}

struct Row {
  std::string name;
  unsigned n_pi = 0;
  unsigned n_po = 0;
  unsigned g_lb = 0;
  rqfp::Cost init;
  rqfp::Cost rcgp;
  rqfp::Cost polished; // RCGP + exact window polish (our extension)
  double rcgp_seconds = 0.0;
  bool rcgp_equivalent = false;
};

/// Runs initialization + RCGP on one named benchmark. `mu` <= 0 selects
/// the paper's mu = 1. When `polish` is set, the RCGP result is
/// additionally refined with SAT-exact window polishing (our extension;
/// the `polished` field of the row).
inline Row run_flow_row(const std::string& name, std::uint64_t generations,
                        std::uint64_t seed = 2024, double mu = 1.0,
                        bool polish = false) {
  const auto b = benchmarks::get(name);
  Row row;
  row.name = name;
  row.n_pi = b.num_pis;
  row.n_po = b.num_pos;
  row.g_lb = rqfp::garbage_lower_bound(b.num_pis, b.num_pos);

  core::FlowOptions opt;
  opt.evolve.generations = generations;
  opt.evolve.lambda = 4;
  opt.evolve.mutation.mu = mu > 0 ? mu : 1.0;
  opt.evolve.seed = seed;
  // λ-parallel offspring evaluation; results are bit-identical for any
  // thread count (docs/PARALLELISM.md), so this only changes wall time.
  // 0 = hardware concurrency; either way the pool is capped at ⌈λ/4⌉
  // threads, so at this λ = 4 the generation runs inline.
  opt.evolve.threads = static_cast<unsigned>(env_u64("RCGP_THREADS", 0));
  const auto r = core::synthesize(b.spec, opt);
  row.init = r.initial_cost;
  row.rcgp = r.optimized_cost;
  row.rcgp_seconds = r.optimization.evolve.seconds;
  row.rcgp_equivalent = cec::sim_check(r.optimized, b.spec).all_match;
  row.polished = row.rcgp;
  if (polish) {
    const auto refined = core::exact_polish(r.optimized);
    row.polished = rqfp::cost_of(refined);
    row.rcgp_equivalent =
        row.rcgp_equivalent && cec::sim_check(refined, b.spec).all_match;
  }
  return row;
}

inline void print_header(bool with_exact) {
  std::printf("%-12s | %4s %4s %4s | %5s %5s %6s %4s %5s |", "Testcase",
              "npi", "npo", "glb", "n_r", "n_b", "JJs", "n_d", "n_g");
  if (with_exact) {
    std::printf(" %5s %5s %9s |", "n_r", "n_g", "T(s)");
  }
  std::printf(" %5s %5s %6s %4s %5s %9s %3s\n", "n_r", "n_b", "JJs", "n_d",
              "n_g", "T(s)", "eq");
  std::printf("%-12s | %15s | %29s |", "", "Original", "Initialization");
  if (with_exact) {
    std::printf(" %21s |", "Exact synthesis");
  }
  std::printf(" %37s\n", "RCGP");
}

inline void print_init_cols(const Row& row) {
  std::printf("%-12s | %4u %4u %4u | %5u %5u %6u %4u %5u |",
              row.name.c_str(), row.n_pi, row.n_po, row.g_lb, row.init.n_r,
              row.init.n_b, row.init.jjs, row.init.n_d, row.init.n_g);
}

inline void print_rcgp_cols(const Row& row) {
  std::printf(" %5u %5u %6u %4u %5u %9.2f %3s\n", row.rcgp.n_r, row.rcgp.n_b,
              row.rcgp.jjs, row.rcgp.n_d, row.rcgp.n_g, row.rcgp_seconds,
              row.rcgp_equivalent ? "yes" : "NO");
}

/// Dumps the process-wide metrics registry (evolve/sat/cec counters and
/// per-phase wall times accumulated across every row) as JSON when the
/// named environment variable points at a path. Lets CI and profiling
/// runs capture `RCGP_METRICS_OUT=table1.json ./bench_table1` without
/// per-driver plumbing.
inline void maybe_write_metrics(const char* env_name) {
  const char* path = std::getenv(env_name);
  if (!path || !*path) {
    return;
  }
  if (obs::registry().write_json(path)) {
    std::printf("wrote metrics to %s\n", path);
  } else {
    std::fprintf(stderr, "failed to write metrics to %s\n", path);
  }
}

/// Aggregate reduction (paper reports averages of per-row reductions).
struct Reduction {
  double sum = 0.0;
  int count = 0;
  void add(double before, double after) {
    if (before > 0) {
      sum += (before - after) / before;
      ++count;
    }
  }
  double percent() const { return count ? 100.0 * sum / count : 0.0; }
};

} // namespace rcgp::benchtool
