// Micro-benchmarks of the substrates RCGP is built on: truth-table ops,
// SAT solving, AIG rewriting, RQFP simulation, mutation, and fitness.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "aig/balance.hpp"
#include "aig/cuts.hpp"
#include "aig/refactor.hpp"
#include "aig/resyn.hpp"
#include "aig/rewrite.hpp"
#include "benchmarks/benchmarks.hpp"
#include "cache/key.hpp"
#include "cache/store.hpp"
#include "cec/sat_cec.hpp"
#include "cec/sim_cec.hpp"
#include "core/chromosome.hpp"
#include "core/flow.hpp"
#include "core/mutation.hpp"
#include "core/request.hpp"
#include "core/shrink.hpp"
#include "rqfp/simulate.hpp"
#include "sat/cnf.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "tt/isop.hpp"
#include "tt/npn.hpp"
#include "util/rng.hpp"

namespace {

using namespace rcgp;

tt::TruthTable random_table(unsigned vars, util::Rng& rng) {
  tt::TruthTable t(vars);
  for (std::size_t w = 0; w < t.num_words(); ++w) {
    t.set_word(w, rng.next());
  }
  return t;
}

void BM_TruthTableAnd(benchmark::State& state) {
  util::Rng rng(1);
  const auto a = random_table(static_cast<unsigned>(state.range(0)), rng);
  const auto b = random_table(static_cast<unsigned>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a & b);
  }
}
BENCHMARK(BM_TruthTableAnd)->Arg(6)->Arg(10)->Arg(14);

void BM_TruthTableMajority(benchmark::State& state) {
  util::Rng rng(2);
  const auto a = random_table(static_cast<unsigned>(state.range(0)), rng);
  const auto b = random_table(static_cast<unsigned>(state.range(0)), rng);
  const auto c = random_table(static_cast<unsigned>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tt::TruthTable::majority(a, b, c));
  }
}
BENCHMARK(BM_TruthTableMajority)->Arg(6)->Arg(10);

void BM_NpnCanonize4(benchmark::State& state) {
  util::Rng rng(3);
  const auto f = random_table(4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tt::npn_canonize(f));
  }
}
BENCHMARK(BM_NpnCanonize4);

void BM_Isop(benchmark::State& state) {
  util::Rng rng(4);
  const auto f = random_table(static_cast<unsigned>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tt::isop(f));
  }
}
BENCHMARK(BM_Isop)->Arg(4)->Arg(8)->Arg(10)->Arg(14);

void BM_SatPigeonhole(benchmark::State& state) {
  const int holes = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sat::Solver s;
    const int pigeons = holes + 1;
    std::vector<std::vector<sat::Lit>> x(pigeons,
                                         std::vector<sat::Lit>(holes));
    for (auto& row : x) {
      for (auto& l : row) {
        l = sat::Lit(s.new_var(), false);
      }
    }
    for (int p = 0; p < pigeons; ++p) {
      s.add_clause(std::span<const sat::Lit>(x[p]));
    }
    for (int h = 0; h < holes; ++h) {
      for (int p1 = 0; p1 < pigeons; ++p1) {
        for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
          s.add_clause({~x[p1][h], ~x[p2][h]});
        }
      }
    }
    benchmark::DoNotOptimize(s.solve());
  }
}
BENCHMARK(BM_SatPigeonhole)->Arg(5)->Arg(7);

/// The cut functions of hwb8's factored spec (the AIG resyn2 starts from):
/// every enumerated 2-4-leaf cut of every AND node at Arg 4, one
/// reconvergent cut of up to 10 leaves per AND node at Arg 10.
void BM_CutFunction(benchmark::State& state) {
  const auto leaves = static_cast<unsigned>(state.range(0));
  const auto net = core::aig_from_tables(benchmarks::get("hwb8").spec);
  std::vector<std::pair<std::uint32_t, aig::Cut>> cuts;
  const auto enumerated = aig::enumerate_cuts(net, {});
  for (std::uint32_t n = 0; n < net.num_nodes(); ++n) {
    if (!net.is_and(n)) {
      continue;
    }
    if (leaves == 4) {
      for (const auto& cut : enumerated[n]) {
        if (cut.leaves.size() >= 2) {
          cuts.emplace_back(n, cut);
        }
      }
    } else {
      cuts.emplace_back(n, aig::reconvergent_cut(net, n, leaves));
    }
  }
  aig::CutFunctions functions;
  for (auto _ : state) {
    for (const auto& [root, cut] : cuts) {
      benchmark::DoNotOptimize(
          functions.compute(net, root, cut.leaves, aig::kMaxCutCone));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cuts.size()));
}
BENCHMARK(BM_CutFunction)->Arg(4)->Arg(10);

/// One pass over hwb8's factored spec, as resyn2's first rewrite and
/// refactor see it (the copy is outside the timed region).
template <typename Pass>
void run_pass_on_hwb8(benchmark::State& state, Pass pass) {
  const auto net =
      aig::balance(core::aig_from_tables(benchmarks::get("hwb8").spec));
  for (auto _ : state) {
    state.PauseTiming();
    aig::Aig copy = net;
    state.ResumeTiming();
    benchmark::DoNotOptimize(pass(copy));
  }
}

void BM_RewritePass(benchmark::State& state) {
  run_pass_on_hwb8(state, [](aig::Aig& a) { return aig::rewrite_pass(a); });
}
BENCHMARK(BM_RewritePass)->Unit(benchmark::kMillisecond);

void BM_RefactorPass(benchmark::State& state) {
  run_pass_on_hwb8(state, [](aig::Aig& a) { return aig::refactor_pass(a); });
}
BENCHMARK(BM_RefactorPass)->Unit(benchmark::kMillisecond);

void BM_Resyn2(benchmark::State& state, const char* row) {
  const auto b = benchmarks::get(row);
  const auto net = core::aig_from_tables(b.spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aig::resyn2(net));
  }
}
BENCHMARK_CAPTURE(BM_Resyn2, intdiv6, "intdiv6")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Resyn2, hwb8, "hwb8")->Unit(benchmark::kMillisecond);

void BM_RqfpSimulate(benchmark::State& state) {
  const auto b = benchmarks::get("intdiv6");
  core::FlowOptions opt;
  opt.run_cgp = false;
  const auto init = core::synthesize(b.spec, opt).initial;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rqfp::simulate(init));
  }
}
BENCHMARK(BM_RqfpSimulate);

/// The netlist evolve starts from on a benchmark row, its spec, and the μ
/// its flowbench workload mutates it at: 1 on the Table-1 rows, 12 / n_L
/// on the Table-2 rows.
struct Start {
  rqfp::Netlist parent;
  std::vector<tt::TruthTable> spec;
  core::MutationParams mutation;
};

Start evolve_start(const char* row, bool table2) {
  core::FlowOptions opt;
  opt.run_cgp = false;
  Start s;
  s.spec = benchmarks::get(row).spec;
  s.parent = core::shrink(core::synthesize(s.spec, opt).initial);
  s.mutation.mu = table2 ? 12.0 / core::num_genes(s.parent) : 1.0;
  return s;
}

/// One offspring as EvalPool makes it: copy the parent, derive the
/// child's stream, mutate. With `worker_map`, mutate starts from a copy of
/// the parent's consumer map, as EvalPool's workers do; without, it
/// refills one from the child (the 3-argument form).
void BM_MutateOffspring(benchmark::State& state, const char* row,
                        bool table2, bool worker_map) {
  const Start s = evolve_start(row, table2);
  core::ConsumerMap map;
  core::build_consumer_map(s.parent, map);
  rqfp::Netlist child;
  std::uint64_t i = 0;
  for (auto _ : state) {
    child = s.parent;
    util::Rng rng = util::Rng::stream(5, i >> 2, i & 3);
    benchmark::DoNotOptimize(
        worker_map ? core::mutate(child, rng, s.mutation, map)
                   : core::mutate(child, rng, s.mutation));
    benchmark::DoNotOptimize(child);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_MutateOffspring, alu_mu1, "alu", false, false);
BENCHMARK_CAPTURE(BM_MutateOffspring, hwb8_mu12, "hwb8", true, false);
BENCHMARK_CAPTURE(BM_MutateOffspring, hwb8_mu12_worker_map, "hwb8", true,
                  true);

/// Delta simulation of a λ = 4 block against a built SimCache, cycling
/// through 64 pre-mutated blocks. With `early_reject` the block is
/// scored against the row's spec, as evolve scores it: a child stops at
/// its first output wrong in word 0, at every row width.
void BM_DeltaBatch(benchmark::State& state, const char* row, bool table2,
                   bool early_reject) {
  const Start s = evolve_start(row, table2);
  const std::span<const tt::TruthTable> spec =
      early_reject ? std::span<const tt::TruthTable>(s.spec)
                   : std::span<const tt::TruthTable>();
  constexpr unsigned kBlocks = 64;
  std::vector<rqfp::Netlist> children(4 * kBlocks, s.parent);
  for (std::size_t i = 0; i < children.size(); ++i) {
    util::Rng rng = util::Rng::stream(5, i >> 2, i & 3);
    core::mutate(children[i], rng, s.mutation);
  }
  std::vector<std::vector<const rqfp::Netlist*>> blocks(kBlocks);
  for (std::size_t i = 0; i < children.size(); ++i) {
    blocks[i >> 2].push_back(&children[i]);
  }
  rqfp::SimCache cache;
  rqfp::build_sim_cache(s.parent, cache);
  rqfp::DeltaBatch batch;
  std::size_t b = 0;
  for (auto _ : state) {
    rqfp::simulate_delta_batch(s.parent, blocks[b], cache, batch, spec);
    benchmark::DoNotOptimize(batch.children.data());
    benchmark::ClobberMemory();
    b = (b + 1) % kBlocks;
  }
  state.SetItemsProcessed(4 * state.iterations());
}
BENCHMARK_CAPTURE(BM_DeltaBatch, alu_mu1, "alu", false, false);
BENCHMARK_CAPTURE(BM_DeltaBatch, alu_mu1_early_reject, "alu", false, true);
BENCHMARK_CAPTURE(BM_DeltaBatch, intdiv8_mu12, "intdiv8", true, false);
BENCHMARK_CAPTURE(BM_DeltaBatch, intdiv8_mu12_early_reject, "intdiv8", true,
                  true);
BENCHMARK_CAPTURE(BM_DeltaBatch, intdiv10_mu12, "intdiv10", true, false);
BENCHMARK_CAPTURE(BM_DeltaBatch, intdiv10_mu12_early_reject, "intdiv10",
                  true, true);

void BM_FitnessEvaluation(benchmark::State& state) {
  const auto b = benchmarks::get("intdiv6");
  core::FlowOptions opt;
  opt.run_cgp = false;
  const auto init = core::synthesize(b.spec, opt).initial;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::evaluate(init, b.spec));
  }
}
BENCHMARK(BM_FitnessEvaluation);

void BM_SatCecProof(benchmark::State& state) {
  const auto b = benchmarks::get("graycode4");
  core::FlowOptions opt;
  opt.run_cgp = false;
  const auto init = core::synthesize(b.spec, opt).initial;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cec::sat_check(init, b.spec));
  }
}
BENCHMARK(BM_SatCecProof);

/// A store holding 10 CGP results for random 4-input, 2-output classes,
/// and 40 request lines for NPN variants of them (permuted and
/// complemented inputs, complemented outputs): the hits of flowbench's
/// serve_mixed workload.
struct HitFixture {
  cache::Store store;
  std::vector<std::vector<tt::TruthTable>> variants;
  std::vector<std::string> lines;
};

HitFixture& hit_fixture() {
  static HitFixture fixture = [] {
    HitFixture f;
    util::Rng rng(2024);
    core::FlowOptions opt;
    opt.evolve.generations = 2000;
    std::vector<std::vector<tt::TruthTable>> classes;
    while (classes.size() < 10) {
      std::vector<tt::TruthTable> spec;
      while (spec.size() < 2) {
        tt::TruthTable t = random_table(4, rng);
        if (!t.is_constant0() && !t.is_constant1()) {
          spec.push_back(std::move(t));
        }
      }
      if (f.store.contains(cache::canonicalize(spec).key)) {
        continue;
      }
      f.store.insert(spec, core::synthesize(spec, opt).optimized, "cgp");
      classes.push_back(std::move(spec));
    }
    for (unsigned i = 0; i < 40; ++i) {
      cache::SpecTransform t;
      for (unsigned v = 4; v > 1; --v) {
        std::swap(t.perm[v - 1], t.perm[rng.below(v)]);
      }
      t.input_phase = static_cast<unsigned>(rng.below(16));
      t.output_phase = static_cast<std::uint32_t>(rng.below(4));
      core::SynthesisRequest r;
      r.id = "hit" + std::to_string(i);
      r.spec = cache::apply(classes[i % classes.size()], t);
      f.lines.push_back(core::to_json(r));
      f.variants.push_back(std::move(r.spec));
    }
    return f;
  }();
  return fixture;
}

/// The store's side of a hit: canonicalize, de-canonicalize the stored
/// netlist, re-check it by simulation, cost it.
void BM_StoreLookupHit(benchmark::State& state) {
  cache::Store& store = hit_fixture().store;
  const auto& variants = hit_fixture().variants;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.lookup(variants[i++ % variants.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreLookupHit);

/// One hit as a client sees it: request line out over a Unix socket to an
/// in-process daemon, parse, lookup, encode, response line back.
void BM_ServeHitRoundTrip(benchmark::State& state) {
  HitFixture& f = hit_fixture();
  serve::ServeOptions so;
  so.socket_path = (std::filesystem::temp_directory_path() /
                    ("rcgp_bench_" + std::to_string(::getpid()) + ".sock"))
                       .string();
  so.workers = 1;
  so.execute.cache = &f.store;
  serve::Server server(std::move(so));
  server.start();
  {
    serve::Client client(server.bound_address());
    std::size_t i = 0;
    for (auto _ : state) {
      const core::SynthesisResponse resp =
          client.submit_line(f.lines[i++ % f.lines.size()]);
      benchmark::DoNotOptimize(resp);
      if (!resp.cached) {
        state.SkipWithError("a variant of a cached class missed");
        break;
      }
    }
  }
  server.stop();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeHitRoundTrip)->UseRealTime();

} // namespace

BENCHMARK_MAIN();
