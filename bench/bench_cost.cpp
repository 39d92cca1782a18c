// Microbenchmark of the incremental cost path (docs/COST_EVAL.md): prices
// a batch of mutated offspring of each Table-1 circuit's initialization
// three ways — the pre-CostCache formulation (remove_dead_gates() copy +
// from-scratch ASAP planning, reproduced below), today's cost_of (cache
// machinery, thread-local scratch), and cost_of_delta against a CostCache
// built once — and reports per-evaluation times and the median
// legacy-vs-delta speedup. Results are verified equal field-for-field
// before anything is timed.
//
// Budgets (override via environment):
//   RCGP_COST_OFFSPRING  mutated children per circuit    (default 256)
//   RCGP_COST_REPS       timing repetitions (median)     (default 5)
//   RCGP_COST_SEED       mutation RNG seed               (default 2024)
//   RCGP_METRICS_OUT     path for a metrics-registry JSON dump (optional)

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/mutation.hpp"
#include "table_common.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace rcgp;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// ---------------------------------------------------------------------
// The cost evaluation this repository shipped before the CostCache,
// reproduced verbatim as the timing baseline the incremental path is
// measured against: materialize the dead-gate-free copy (PO-name strings
// and all), then count garbage and plan ASAP buffers on it from scratch,
// with its repeated gate_levels()/depth() passes and per-call vector
// allocations.
// ---------------------------------------------------------------------
namespace legacy {

using namespace rcgp::rqfp;

BufferPlan plan_for_levels(const Netlist& net,
                           const std::vector<std::uint32_t>& level,
                           std::uint32_t depth) {
  BufferPlan plan;
  plan.depth = depth;
  plan.gate_edges.assign(net.num_gates(), {0, 0, 0});
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    for (unsigned i = 0; i < 3; ++i) {
      const Port p = net.gate(g).in[i];
      if (net.is_const_port(p)) {
        continue;
      }
      const std::uint32_t src =
          net.is_gate_port(p) ? level[net.gate_of_port(p)] : 0;
      plan.gate_edges[g][i] = level[g] - 1 - src;
      plan.total += plan.gate_edges[g][i];
    }
  }
  plan.po_edges.assign(net.num_pos(), 0);
  for (std::uint32_t o = 0; o < net.num_pos(); ++o) {
    const Port p = net.po_at(o);
    if (net.is_const_port(p)) {
      continue;
    }
    const std::uint32_t src =
        net.is_gate_port(p) ? level[net.gate_of_port(p)] : 0;
    plan.po_edges[o] = depth - src;
    plan.total += plan.po_edges[o];
  }
  return plan;
}

BufferPlan plan_buffers(const Netlist& net) {
  const std::vector<std::uint32_t> level = net.gate_levels();
  const std::uint32_t depth = net.depth(); // recomputes gate_levels()
  return plan_for_levels(net, level, depth);
}

Cost cost_of(const Netlist& net) {
  const Netlist live = net.remove_dead_gates();
  Cost c;
  c.n_r = live.num_gates();
  c.n_g = live.count_garbage_outputs();
  const BufferPlan plan = legacy::plan_buffers(live);
  c.n_b = plan.total;
  c.n_d = plan.depth;
  c.jjs = kJjsPerGate * c.n_r + kJjsPerBuffer * c.n_b;
  return c;
}

} // namespace legacy

} // namespace

int main() {
  using namespace rcgp::benchtool;

  const std::uint64_t offspring = env_u64("RCGP_COST_OFFSPRING", 256);
  const std::uint64_t reps = env_u64("RCGP_COST_REPS", 5);
  const std::uint64_t seed = env_u64("RCGP_COST_SEED", 2024);

  std::printf("Cost evaluation: cost_of vs cost_of_delta "
              "(%llu offspring/circuit, median of %llu reps)\n\n",
              static_cast<unsigned long long>(offspring),
              static_cast<unsigned long long>(reps));
  std::printf("%-14s %5s | %11s %10s %10s %8s\n", "circuit", "n_r",
              "legacy/eval", "full/eval", "delta/eval", "speedup");
  std::printf("%.*s\n", 68,
              "--------------------------------------------------------------"
              "------");

  std::vector<double> speedups;
  for (const auto& name : benchmarks::table1_names()) {
    const auto b = benchmarks::get(name);
    core::FlowOptions opt;
    opt.run_cgp = false;
    const rqfp::Netlist base = core::synthesize(b.spec, opt).initial;

    // One fixed brood of mutated children per circuit: both paths price
    // exactly the same netlists.
    std::vector<rqfp::Netlist> children(offspring, base);
    for (std::uint64_t k = 0; k < offspring; ++k) {
      util::Rng rng = util::Rng::stream(seed, 0, k);
      core::mutate(children[k], rng, {});
    }

    rqfp::CostCache cache;
    rqfp::build_cost_cache(base, rqfp::BufferSchedule::kAsap, cache);
    // Correctness first: all three paths must agree on every child.
    for (const auto& child : children) {
      const auto before = legacy::cost_of(child);
      const auto full = rqfp::cost_of(child);
      const auto delta = rqfp::cost_of_delta(base, child, cache);
      if (!(full == delta) || !(before == delta)) {
        std::fprintf(stderr,
                     "bench_cost: MISMATCH on %s: legacy {%s} vs "
                     "full {%s} vs delta {%s}\n",
                     name.c_str(), before.to_string().c_str(),
                     full.to_string().c_str(), delta.to_string().c_str());
        return 1;
      }
    }

    std::vector<double> legacy_s;
    std::vector<double> full_s;
    std::vector<double> delta_s;
    std::uint64_t sink = 0;
    for (std::uint64_t r = 0; r < reps; ++r) {
      util::Stopwatch watch;
      for (const auto& child : children) {
        sink += legacy::cost_of(child).jjs;
      }
      legacy_s.push_back(watch.seconds());
      watch.restart();
      for (const auto& child : children) {
        sink += rqfp::cost_of(child).jjs;
      }
      full_s.push_back(watch.seconds());
      watch.restart();
      for (const auto& child : children) {
        sink += rqfp::cost_of_delta(base, child, cache).jjs;
      }
      delta_s.push_back(watch.seconds());
    }
    const volatile std::uint64_t observed = sink; // keep the costs live
    (void)observed;

    const double legacy_med = median(legacy_s);
    const double full_med = median(full_s);
    const double delta_med = median(delta_s);
    const double per = 1e9 / static_cast<double>(offspring);
    const double speedup = delta_med > 0.0 ? legacy_med / delta_med : 0.0;
    std::printf("%-14s %5u | %9.0fns %8.0fns %8.0fns %7.2fx\n",
                name.c_str(), base.num_gates(), legacy_med * per,
                full_med * per, delta_med * per, speedup);
    speedups.push_back(speedup);
    obs::registry().gauge("bench.cost." + name + ".speedup").set(speedup);
  }

  const double med_speedup = median(speedups);
  const double worst_speedup =
      *std::min_element(speedups.begin(), speedups.end());
  obs::registry().gauge("bench.cost.median_speedup").set(med_speedup);
  std::printf("\nLegacy-vs-delta speedup across Table-1 circuits: "
              "median %.2fx, worst %.2fx\n",
              med_speedup, worst_speedup);
  maybe_write_metrics("RCGP_METRICS_OUT");
  return 0;
}
