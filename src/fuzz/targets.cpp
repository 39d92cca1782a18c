#include "fuzz/targets.hpp"

#include <array>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "aig/aig_simulate.hpp"
#include "aig/balance.hpp"
#include "aig/cuts.hpp"
#include "aig/refactor.hpp"
#include "aig/resyn.hpp"
#include "aig/rewrite.hpp"
#include "batch/manifest.hpp"
#include "cache/store.hpp"
#include "cec/bdd_cec.hpp"
#include "cec/sat_cec.hpp"
#include "cec/sim_cec.hpp"
#include "core/fitness.hpp"
#include "core/flow.hpp"
#include "core/mutation.hpp"
#include "core/optimizer.hpp"
#include "core/request.hpp"
#include "core/shrink.hpp"
#include "fuzz/generator.hpp"
#include "io/aiger.hpp"
#include "io/blif.hpp"
#include "io/io.hpp"
#include "io/parse_error.hpp"
#include "io/pla.hpp"
#include "io/rqfp_writer.hpp"
#include "io/verilog.hpp"
#include "mig/mig_from_aig.hpp"
#include "mig/mig_rewrite.hpp"
#include "robust/checkpoint.hpp"
#include "robust/fault.hpp"
#include "robust/integrity.hpp"
#include "rqfp/cost.hpp"
#include "rqfp/simd.hpp"
#include "rqfp/simulate.hpp"
#include "tt/isop.hpp"
#include "util/rng.hpp"

namespace rcgp::fuzz {

namespace {

/// Stream salt: every independent random draw purpose of a target gets
/// its own counter-based stream from (seed, case_index, salt), so adding
/// draws to one purpose never shifts another target's sequence.
std::uint64_t salt(Target target, unsigned purpose) {
  return (static_cast<std::uint64_t>(target) << 8) | purpose;
}

util::Rng case_rng(const CaseContext& ctx, Target target, unsigned purpose) {
  return util::Rng::stream(ctx.seed, ctx.index, salt(target, purpose));
}

Finding make_finding(const CaseContext& ctx, Target target,
                     std::string kind, std::string detail) {
  Finding f;
  f.target = std::string(to_string(target));
  f.seed = ctx.seed;
  f.case_index = ctx.index;
  f.kind = std::move(kind);
  f.detail = std::move(detail);
  return f;
}

std::string describe_fitness(const core::Fitness& f) {
  return f.to_string();
}

bool fitness_equal(const core::Fitness& a, const core::Fitness& b) {
  return a.success_rate == b.success_rate && a.n_r == b.n_r &&
         a.n_g == b.n_g && a.n_b == b.n_b;
}

// ---------------------------------------------------------------------
// io-roundtrip
// ---------------------------------------------------------------------

void check_rqfp_roundtrips(CaseContext& ctx, std::vector<Finding>& out) {
  util::Rng rng = case_rng(ctx, Target::kIoRoundtrip, 0);
  const rqfp::Netlist net = random_netlist(rng);

  // In-memory .rqfp round trip: structural identity.
  const auto text_mismatch = [](const rqfp::Netlist& n) {
    try {
      return !(io::parse_rqfp_string(io::write_rqfp_string(n)) == n);
    } catch (const std::exception&) {
      return true; // writer output its own parser rejects
    }
  };
  if (text_mismatch(net)) {
    rqfp::Netlist minimal =
        ctx.do_shrink
            ? shrink_netlist(net, text_mismatch, &ctx.shrink_stats)
            : net;
    Finding f = make_finding(ctx, Target::kIoRoundtrip, "rqfp-text-roundtrip",
                             "write_rqfp_string -> parse_rqfp_string is not "
                             "the identity on this netlist");
    f.reproducer = io::write_rqfp_string(minimal);
    f.reproducer_ext = ".rqfp";
    out.push_back(std::move(f));
    return;
  }

  // File facade round trip with format auto-detection.
  const std::string path = ctx.work_dir + "/roundtrip.rqfp";
  io::write_network(net, path);
  const io::Network back = io::read_network(path);
  if (!back.rqfp.has_value() || !(*back.rqfp == net)) {
    Finding f = make_finding(ctx, Target::kIoRoundtrip, "rqfp-file-roundtrip",
                             "write_network -> read_network (.rqfp, auto "
                             "detection) is not the identity");
    f.reproducer = io::write_rqfp_string(net);
    f.reproducer_ext = ".rqfp";
    out.push_back(std::move(f));
    return;
  }

  // Write-only formats must at least serialize without throwing.
  if (io::write_structural_verilog_string(net).empty() ||
      io::write_dot_string(net).empty()) {
    Finding f = make_finding(ctx, Target::kIoRoundtrip, "write-only-empty",
                             "structural Verilog / DOT writer produced an "
                             "empty document");
    f.reproducer = io::write_rqfp_string(net);
    f.reproducer_ext = ".rqfp";
    out.push_back(std::move(f));
  }
}

void check_aig_roundtrips(CaseContext& ctx, std::vector<Finding>& out) {
  util::Rng rng = case_rng(ctx, Target::kIoRoundtrip, 1);
  const aig::Aig net = random_aig(rng);
  const std::vector<tt::TruthTable> reference = aig::simulate(net);

  const auto report = [&](const std::string& kind, const std::string& detail) {
    Finding f = make_finding(ctx, Target::kIoRoundtrip, kind, detail);
    // AIG findings ship the ASCII AIGER dump (no AIG shrinker yet; the
    // generator shapes are small enough to debug directly).
    f.reproducer = io::write_aiger_string(net);
    f.reproducer_ext = ".aag";
    out.push_back(std::move(f));
  };

  struct StringTrip {
    const char* name;
    std::function<aig::Aig(const aig::Aig&)> trip;
  };
  const StringTrip trips[] = {
      {"verilog",
       [](const aig::Aig& a) {
         return io::parse_verilog_string(io::write_verilog_string(a));
       }},
      {"blif",
       [](const aig::Aig& a) {
         return io::parse_blif_string(io::write_blif_string(a));
       }},
      {"aiger-ascii",
       [](const aig::Aig& a) {
         return io::parse_aiger_string(io::write_aiger_string(a));
       }},
      {"aiger-binary",
       [](const aig::Aig& a) {
         std::istringstream in(io::write_aiger_binary_string(a));
         return io::parse_aiger_binary(in);
       }},
  };
  for (const auto& t : trips) {
    try {
      const aig::Aig back = t.trip(net);
      if (aig::simulate(back) != reference) {
        report(std::string("aig-roundtrip-") + t.name,
               "functional mismatch after write/parse round trip");
        return;
      }
    } catch (const std::exception& e) {
      report(std::string("aig-roundtrip-") + t.name,
             std::string("round trip threw: ") + e.what());
      return;
    }
  }

  // Substrate round trip: the MIG conversion (and its Ω-rule rewriting)
  // must preserve every PO function.
  try {
    const mig::Mig m = mig::mig_from_aig(net);
    if (m.simulate() != reference) {
      report("mig-conversion", "mig_from_aig changed a PO function");
      return;
    }
    if (mig::optimize_mig(m).simulate() != reference) {
      report("mig-rewrite", "optimize_mig changed a PO function");
      return;
    }
  } catch (const std::exception& e) {
    report("mig-conversion", std::string("MIG substrate threw: ") + e.what());
    return;
  }

  // File facade with auto-detection over every AIG-capable extension.
  for (const char* ext : {".v", ".blif", ".aag", ".aig"}) {
    const std::string path = ctx.work_dir + "/roundtrip" + ext;
    try {
      io::write_network(net, path);
      const io::Network back = io::read_network(path);
      if (!back.aig.has_value() || aig::simulate(*back.aig) != reference) {
        report(std::string("aig-file-roundtrip-") + (ext + 1),
               "functional mismatch through write_network/read_network");
        return;
      }
    } catch (const std::exception& e) {
      report(std::string("aig-file-roundtrip-") + (ext + 1),
             std::string("facade round trip threw: ") + e.what());
      return;
    }
  }
}

void run_io_roundtrip(CaseContext& ctx, std::vector<Finding>& out) {
  check_rqfp_roundtrips(ctx, out);
  check_aig_roundtrips(ctx, out);
}

// ---------------------------------------------------------------------
// parser-corruption
// ---------------------------------------------------------------------

/// A fixed, valid RevLib cascade (the generators have no .real writer
/// input; corruption works just as well from a constant seed document).
constexpr const char* kRealTemplate =
    ".version 2.0\n"
    ".numvars 3\n"
    ".variables a b c\n"
    ".begin\n"
    "t3 a b c\n"
    "t2 a b\n"
    "t1 a\n"
    ".end\n";

struct CorpusEntry {
  std::string content;
  const char* extension; // the format's own extension
};

CorpusEntry make_corpus_entry(CaseContext& ctx, util::Rng& rng) {
  switch (rng.below(7)) {
    case 0: {
      util::Rng gen = case_rng(ctx, Target::kParserCorruption, 1);
      return {io::write_rqfp_string(random_netlist(gen)), ".rqfp"};
    }
    case 1: {
      util::Rng gen = case_rng(ctx, Target::kParserCorruption, 2);
      return {io::write_verilog_string(random_aig(gen)), ".v"};
    }
    case 2: {
      util::Rng gen = case_rng(ctx, Target::kParserCorruption, 3);
      return {io::write_blif_string(random_aig(gen)), ".blif"};
    }
    case 3: {
      util::Rng gen = case_rng(ctx, Target::kParserCorruption, 4);
      return {io::write_aiger_string(random_aig(gen)), ".aag"};
    }
    case 4: {
      util::Rng gen = case_rng(ctx, Target::kParserCorruption, 5);
      return {io::write_aiger_binary_string(random_aig(gen)), ".aig"};
    }
    case 5: {
      util::Rng gen = case_rng(ctx, Target::kParserCorruption, 6);
      std::ostringstream pla;
      io::write_pla(random_tables(gen, 3, 2), pla);
      return {pla.str(), ".pla"};
    }
    default:
      return {kRealTemplate, ".real"};
  }
}

/// The contract under test: read_network either succeeds or throws
/// io::ParseError. Returns an empty string on contract compliance and a
/// description of the violation otherwise.
std::string probe_parser(const std::string& path) {
  try {
    (void)io::read_network(path);
    return "";
  } catch (const io::ParseError&) {
    return "";
  } catch (const std::exception& e) {
    return std::string("non-ParseError exception escaped read_network: ") +
           e.what();
  } catch (...) {
    return "non-standard exception escaped read_network";
  }
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void run_parser_corruption(CaseContext& ctx, std::vector<Finding>& out) {
  util::Rng rng = case_rng(ctx, Target::kParserCorruption, 0);
  CorpusEntry entry = make_corpus_entry(ctx, rng);
  const std::string corrupted = corrupt_bytes(std::move(entry.content), rng);

  // Lie about the extension sometimes: auto-detection must cope with
  // wrong and unknown extensions without misbehaving.
  const char* extensions[] = {entry.extension, ".rqfp", ".v",   ".blif",
                              ".aag",          ".aig",  ".pla", ".real",
                              ".dat"};
  const char* ext = rng.chance(0.6)
                        ? entry.extension
                        : extensions[rng.below(std::size(extensions))];

  const std::string path = ctx.work_dir + "/corrupt" + ext;
  write_file(path, corrupted);
  const std::string violation = probe_parser(path);
  if (violation.empty()) {
    return;
  }

  const auto still_fails = [&](const std::string& bytes) {
    write_file(path, bytes);
    return !probe_parser(path).empty();
  };
  const std::string minimal =
      ctx.do_shrink ? shrink_bytes(corrupted, still_fails, &ctx.shrink_stats)
                    : corrupted;

  Finding f = make_finding(ctx, Target::kParserCorruption, "parser-contract",
                           violation);
  f.reproducer = minimal;
  f.reproducer_ext = ext;
  out.push_back(std::move(f));
}

// ---------------------------------------------------------------------
// manifest-corruption
// ---------------------------------------------------------------------

/// The contract the service-state parsers share (docs/FUZZING.md): a
/// damaged batch manifest, result-cache store, or evolve checkpoint must
/// either still parse (corruption can land in comments or produce another
/// valid document) or raise io::ParseError / robust::IntegrityError.
/// Anything else — a different exception type, or a crash the harness
/// would never see us return from — is a finding.
std::string probe_state_parser(
    const char* parser, const std::function<void(const std::string&)>& parse,
    const std::string& bytes) {
  try {
    parse(bytes);
    return "";
  } catch (const io::ParseError&) {
    return "";
  } catch (const robust::IntegrityError&) {
    return "";
  } catch (const std::exception& e) {
    return std::string(parser) +
           " threw a non-contract exception: " + e.what();
  } catch (...) {
    return std::string(parser) + " threw a non-standard exception";
  }
}

std::string seed_manifest(CaseContext& ctx) {
  util::Rng rng = case_rng(ctx, Target::kManifestCorruption, 1);
  std::string text = "# fuzz-generated manifest\n";
  const unsigned jobs = 1 + static_cast<unsigned>(rng.below(4));
  for (unsigned j = 0; j < jobs; ++j) {
    core::SynthesisRequest r;
    r.id = "job" + std::to_string(j);
    if (rng.chance(0.5)) {
      r.circuit = rng.chance(0.5) ? "full_adder" : "circuits/spec.v";
    } else {
      r.spec = random_tables(rng, 2 + static_cast<unsigned>(rng.below(3)),
                             1 + static_cast<unsigned>(rng.below(3)));
    }
    if (rng.chance(0.5)) {
      r.generations = rng.below(100000);
    }
    if (rng.chance(0.3)) {
      r.seed = rng.next();
    }
    if (rng.chance(0.3)) {
      r.cache = rng.chance(0.5) ? core::CachePolicy::kSeed
                                : core::CachePolicy::kOff;
    }
    text += core::to_json(r) + "\n";
  }
  return text;
}

std::string seed_cache_store(CaseContext& ctx) {
  util::Rng rng = case_rng(ctx, Target::kManifestCorruption, 2);
  cache::Store store;
  const unsigned entries = 1 + static_cast<unsigned>(rng.below(3));
  NetlistShape shape;
  shape.max_pis = 4;
  shape.max_gates = 8;
  for (unsigned j = 0; j < entries; ++j) {
    const rqfp::Netlist net = random_netlist(rng, shape);
    store.insert(rqfp::simulate(net), net, "fuzz");
  }
  return store.serialize();
}

std::string seed_checkpoint(CaseContext& ctx) {
  util::Rng rng = case_rng(ctx, Target::kManifestCorruption, 3);
  robust::EvolveCheckpoint ck;
  ck.seed = rng.next();
  ck.lambda = 1 + static_cast<unsigned>(rng.below(8));
  ck.mu = 0.1;
  ck.generations_total = 1 + rng.below(100000);
  ck.generations_run = rng.below(ck.generations_total);
  ck.evaluations = ck.generations_run * ck.lambda;
  ck.best = random_netlist(rng);
  ck.best_fitness = core::evaluate(ck.best, rqfp::simulate(ck.best));
  return robust::serialize_checkpoint(ck);
}

void run_manifest_corruption(CaseContext& ctx, std::vector<Finding>& out) {
  util::Rng rng = case_rng(ctx, Target::kManifestCorruption, 0);

  std::string content;
  const char* kind;
  const char* ext;
  std::function<void(const std::string&)> parse;
  switch (rng.below(3)) {
    case 0:
      content = seed_manifest(ctx);
      kind = "manifest";
      ext = ".jsonl";
      parse = [](const std::string& b) {
        (void)batch::parse_manifest_string(b);
      };
      break;
    case 1:
      content = seed_cache_store(ctx);
      kind = "cache-store";
      ext = ".rcc";
      parse = [](const std::string& b) {
        (void)cache::Store::parse(b, "fuzz");
      };
      break;
    default:
      content = seed_checkpoint(ctx);
      kind = "checkpoint";
      ext = ".ckpt";
      parse = [](const std::string& b) {
        (void)robust::parse_checkpoint(b);
      };
      break;
  }

  const std::string corrupted = corrupt_bytes(std::move(content), rng);
  const std::string violation = probe_state_parser(kind, parse, corrupted);
  if (violation.empty()) {
    return;
  }

  const auto still_fails = [&](const std::string& bytes) {
    return !probe_state_parser(kind, parse, bytes).empty();
  };
  const std::string minimal =
      ctx.do_shrink ? shrink_bytes(corrupted, still_fails, &ctx.shrink_stats)
                    : corrupted;

  Finding f = make_finding(ctx, Target::kManifestCorruption,
                           std::string(kind) + "-contract", violation);
  f.reproducer = minimal;
  f.reproducer_ext = ext;
  out.push_back(std::move(f));
}

// ---------------------------------------------------------------------
// optimizer-differential
// ---------------------------------------------------------------------

void check_delta_walk(CaseContext& ctx, std::vector<Finding>& out) {
  util::Rng rng = case_rng(ctx, Target::kOptimizerDiff, 0);

  // Up to 10 PIs: rows of 1 to 16 words, through update_sim_cache too.
  NetlistShape shape;
  shape.max_pis = 10;
  shape.max_gates = 16;
  rqfp::Netlist base = random_netlist(rng, shape);
  const std::vector<tt::TruthTable> spec = rqfp::simulate(base);

  core::FitnessOptions fopt;
  fopt.objective = rng.chance(0.5) ? core::Objective::kPaperLexicographic
                                   : core::Objective::kJjCount;

  rqfp::SimCache sim;
  rqfp::SimCache fresh;
  rqfp::CostCache cost;
  rqfp::build_sim_cache(base, sim);
  rqfp::build_cost_cache(base, rqfp::BufferSchedule::kAsap, cost);
  core::Fitness base_fit = core::evaluate(base, spec, fopt);
  rqfp::DeltaBatch batch;

  const auto pair_finding = [&](const std::string& kind,
                                const std::string& detail,
                                const rqfp::Netlist& parent,
                                const rqfp::Netlist& child) {
    // Differential failures depend on the (base, child) pair; shrinking
    // would have to reduce both in lockstep, so they ship unminimized.
    Finding f = make_finding(ctx, Target::kOptimizerDiff, kind, detail);
    f.reproducer = io::write_rqfp_string(parent);
    f.reproducer_ext = ".rqfp";
    f.reproducer2 = io::write_rqfp_string(child);
    f.reproducer2_ext = ".rqfp";
    out.push_back(std::move(f));
  };

  const unsigned steps = 10 + static_cast<unsigned>(rng.below(21));
  for (unsigned step = 0; step < steps; ++step) {
    rqfp::Netlist child = base;
    core::mutate(child, rng);

    const core::Fitness full = core::evaluate(child, spec, fopt);
    core::Fitness delta;
    core::evaluate_delta_batch(base, sim, cost, {&child}, spec, fopt, batch,
                               {&delta, 1});
    if (!fitness_equal(full, delta)) {
      pair_finding("delta-vs-full",
                   "evaluate_delta_batch != evaluate: full=" +
                       describe_fitness(full) +
                       " delta=" + describe_fitness(delta),
                   base, child);
      return;
    }

    // The same block with early reject: a rejected child must be wrong,
    // and any other child must score exactly as evaluate scores it.
    core::Fitness early;
    core::evaluate_delta_batch(base, sim, cost, {&child}, spec, fopt, batch,
                               {&early, 1}, /*early_reject=*/true);
    const bool rejected = batch.children[0].rejected;
    if (rejected ? full.functionally_correct() || early.functionally_correct()
                 : !fitness_equal(full, early)) {
      pair_finding("early-reject-vs-full",
                   std::string("evaluate_delta_batch with early reject (") +
                       (rejected ? "rejected" : "not rejected") +
                       ") disagrees with evaluate: full=" +
                       describe_fitness(full) +
                       " early=" + describe_fitness(early),
                   base, child);
      return;
    }

    const rqfp::Cost cost_full = rqfp::cost_of(child);
    const rqfp::Cost cost_delta = rqfp::cost_of_delta(base, child, cost);
    if (!(cost_full == cost_delta)) {
      pair_finding("cost-delta-vs-full",
                   "cost_of_delta != cost_of: full=" + cost_full.to_string() +
                       " delta=" + cost_delta.to_string(),
                   base, child);
      return;
    }

    if (full.better_or_equal(base_fit)) {
      // A bad commit would otherwise show only when a later child reads
      // a corrupted row.
      rqfp::update_sim_cache(base, child, sim);
      rqfp::build_sim_cache(child, fresh);
      if (sim.rows != fresh.rows) {
        pair_finding("commit-vs-build",
                     "update_sim_cache rows != build_sim_cache rows of the "
                     "committed netlist",
                     base, child);
        return;
      }
      rqfp::update_cost_cache(base, child, cost);
      base = std::move(child);
      base_fit = full;
    }

    if (rng.chance(0.25)) {
      // Shrink must never change the function of the live cone.
      const auto shrink_changes_function = [](const rqfp::Netlist& n) {
        return rqfp::simulate(core::shrink(n)) != rqfp::simulate(n);
      };
      if (shrink_changes_function(base)) {
        rqfp::Netlist minimal =
            ctx.do_shrink
                ? shrink_netlist(base, shrink_changes_function,
                                 &ctx.shrink_stats)
                : base;
        Finding f = make_finding(ctx, Target::kOptimizerDiff,
                                 "shrink-function-change",
                                 "core::shrink changed the PO functions");
        f.reproducer = io::write_rqfp_string(minimal);
        f.reproducer_ext = ".rqfp";
        out.push_back(std::move(f));
        return;
      }
      const rqfp::Netlist small = core::shrink(base);
      if (small.num_gates() != base.num_gates()) {
        base = small;
        rqfp::build_sim_cache(base, sim);
        rqfp::build_cost_cache(base, rqfp::BufferSchedule::kAsap, cost);
        base_fit = core::evaluate(base, spec, fopt);
      }
    }
  }
}

/// Cross-checks a netlist against its specification with all three CEC
/// engines; returns a disagreement description ("" when unanimous and
/// correct, which `net` must be by construction).
std::string engine_disagreement(const rqfp::Netlist& net,
                                std::span<const tt::TruthTable> spec) {
  const bool sim_eq = cec::sim_check(net, spec).all_match;
  const bool bdd_eq = cec::bdd_check(net, spec).equivalent;
  const auto sat = cec::sat_check(net, spec);
  const bool sat_eq = sat.verdict == cec::CecVerdict::kEquivalent;
  if (sat.verdict == cec::CecVerdict::kUndecided) {
    return "sat_check returned kUndecided with no conflict budget";
  }
  if (sim_eq && bdd_eq && sat_eq) {
    return "";
  }
  std::string desc = std::string("engines disagree on net-vs-spec: sim=") +
                     (sim_eq ? "eq" : "neq") +
                     " bdd=" + (bdd_eq ? "eq" : "neq") +
                     " sat=" + (sat_eq ? "eq" : "neq");
  const int eq_votes = int(sim_eq) + int(bdd_eq) + int(sat_eq);
  if (eq_votes == 2) {
    desc += std::string("; minority engine: ") +
            (!sim_eq ? "sim" : (!bdd_eq ? "bdd" : "sat"));
  } else if (eq_votes == 1) {
    desc += std::string("; minority verdict held by: ") +
            (sim_eq ? "sim" : (bdd_eq ? "bdd" : "sat"));
  }
  return desc;
}

void check_paranoid_search(CaseContext& ctx, std::vector<Finding>& out) {
  util::Rng rng = case_rng(ctx, Target::kOptimizerDiff, 1);

  NetlistShape shape;
  // Every fourth case draws 7-8 PIs: rows of 2-4 words, where the
  // production loop's early reject (EvalJob::early_reject) runs its word-0
  // pass before the full one; the others have rows of one word.
  const bool wide = ctx.index % 4 == 3;
  shape.min_pis = wide ? 7 : 2;
  shape.max_pis = wide ? 8 : 4;
  shape.max_gates = 12;
  const rqfp::Netlist start = random_netlist(rng, shape);
  const std::vector<tt::TruthTable> spec = rqfp::simulate(start);

  core::OptimizerOptions oopt;
  // evolve, two independent lineages (a fleet without migration), anneal.
  const unsigned pick = static_cast<unsigned>(rng.below(3));
  oopt.algorithm =
      pick == 2 ? core::Algorithm::kAnneal : core::Algorithm::kEvolve;
  if (pick == 1) {
    oopt.island.islands = 2;
    oopt.island.topology = core::Topology::kNone;
  }
  oopt.evolve.generations = 60;
  oopt.evolve.lambda = 2;
  oopt.evolve.threads = 1;
  oopt.evolve.seed = rng.next();
  oopt.evolve.paranoia = robust::ParanoiaLevel::kEveryAcceptance;
  oopt.anneal.steps = 200;
  oopt.anneal.seed = rng.next();
  oopt.limits.deadline_seconds = 2.0;

  const auto start_finding = [&](const std::string& kind,
                                 const std::string& detail) {
    Finding f = make_finding(ctx, Target::kOptimizerDiff, kind, detail);
    f.reproducer = io::write_rqfp_string(start);
    f.reproducer_ext = ".rqfp";
    out.push_back(std::move(f));
  };

  core::OptimizeResult result;
  try {
    result = core::Optimizer(oopt).run(start, spec);
  } catch (const robust::IntegrityError& e) {
    start_finding("paranoia-violation",
                  std::string("paranoid ") +
                      std::string(core::to_string(oopt.algorithm)) +
                      " raised IntegrityError: " + e.what());
    return;
  }

  const std::string invalid = result.best.validate();
  if (!invalid.empty()) {
    start_finding("optimizer-invariant",
                  "optimizer returned an invalid netlist: " + invalid);
    return;
  }
  const std::string disagree = engine_disagreement(result.best, spec);
  if (!disagree.empty()) {
    Finding f = make_finding(ctx, Target::kOptimizerDiff,
                             "engine-disagreement", disagree);
    f.reproducer = io::write_rqfp_string(result.best);
    f.reproducer_ext = ".rqfp";
    out.push_back(std::move(f));
  }
}

void check_exact_polish_flow(CaseContext& ctx, std::vector<Finding>& out) {
  util::Rng rng = case_rng(ctx, Target::kOptimizerDiff, 2);
  const std::vector<tt::TruthTable> spec = random_tables(rng, 3, 2);

  core::FlowOptions fopt;
  fopt.evolve.generations = 300;
  fopt.evolve.lambda = 2;
  fopt.evolve.threads = 1;
  fopt.evolve.seed = rng.next();
  fopt.evolve.paranoia = robust::ParanoiaLevel::kBoundaries;
  fopt.run_exact_polish = true;
  fopt.limits.deadline_seconds = 1.0;

  core::FlowResult result;
  try {
    result = core::synthesize(spec, fopt);
  } catch (const robust::IntegrityError& e) {
    out.push_back(make_finding(ctx, Target::kOptimizerDiff,
                               "paranoia-violation",
                               std::string("exact-polish flow raised "
                                           "IntegrityError: ") +
                                   e.what()));
    return;
  }

  // The flow may stop before reaching the spec under this deadline; when
  // its own fitness claims success, the engines must unanimously concur.
  if (core::evaluate(result.optimized, spec).functionally_correct()) {
    const std::string disagree = engine_disagreement(result.optimized, spec);
    if (!disagree.empty()) {
      Finding f = make_finding(ctx, Target::kOptimizerDiff,
                               "engine-disagreement",
                               "after exact polish: " + disagree);
      f.reproducer = io::write_rqfp_string(result.optimized);
      f.reproducer_ext = ".rqfp";
      out.push_back(std::move(f));
    }
  }
}

void run_optimizer_diff(CaseContext& ctx, std::vector<Finding>& out) {
  check_delta_walk(ctx, out);
  if (!out.empty()) {
    return;
  }
  check_paranoid_search(ctx, out);
  // The exact-polish flow is the most expensive probe: sample it.
  if (out.empty() && ctx.index % 8 == 0) {
    check_exact_polish_flow(ctx, out);
  }
}

// ---------------------------------------------------------------------
// cec-cross
// ---------------------------------------------------------------------

void run_cec_cross(CaseContext& ctx, std::vector<Finding>& out) {
  util::Rng rng = case_rng(ctx, Target::kCecCross, 0);

  NetlistShape shape;
  shape.max_pis = 5;
  shape.max_gates = 20;
  const rqfp::Netlist a = random_netlist(rng, shape);

  // Self-check: every engine must agree that `a` implements its own
  // simulation tables. This predicate is pure in the netlist → shrinkable.
  const auto self_check_fails = [](const rqfp::Netlist& n) {
    const auto tables = rqfp::simulate(n);
    if (!cec::sim_check(n, tables).all_match) return true;
    if (!cec::bdd_check(n, tables).equivalent) return true;
    return cec::sat_check(n, tables).verdict != cec::CecVerdict::kEquivalent;
  };
  if (self_check_fails(a)) {
    rqfp::Netlist minimal =
        ctx.do_shrink ? shrink_netlist(a, self_check_fails, &ctx.shrink_stats)
                      : a;
    const auto tables = rqfp::simulate(minimal);
    Finding f = make_finding(
        ctx, Target::kCecCross, "self-equivalence",
        "an engine denies net == simulate(net): sim=" +
            std::string(cec::sim_check(minimal, tables).all_match ? "eq"
                                                                  : "neq") +
            " bdd=" +
            (cec::bdd_check(minimal, tables).equivalent ? "eq" : "neq") +
            " sat=" +
            (cec::sat_check(minimal, tables).verdict ==
                     cec::CecVerdict::kEquivalent
                 ? "eq"
                 : "neq"));
    f.reproducer = io::write_rqfp_string(minimal);
    f.reproducer_ext = ".rqfp";
    out.push_back(std::move(f));
    return;
  }

  // Pairwise check against a derived netlist whose ground-truth
  // equivalence exhaustive simulation decides.
  rqfp::Netlist b = a;
  const unsigned variant = static_cast<unsigned>(rng.below(3));
  switch (variant) {
    case 0:
      b = core::shrink(a); // equivalent by contract
      break;
    case 1:
      core::mutate(b, rng); // usually different, sometimes neutral
      break;
    default:
      if (b.num_gates() > 0) {
        robust::inject_config_fault(b, rng); // structurally legal flip
      }
      break;
  }

  const bool truly_equal = rqfp::simulate(a) == rqfp::simulate(b);
  const bool bdd_eq = cec::bdd_check(a, b).equivalent;
  const auto sat = cec::sat_check(a, b);
  const bool sat_eq = sat.verdict == cec::CecVerdict::kEquivalent;
  const bool sat_decided = sat.verdict != cec::CecVerdict::kUndecided;

  if (!sat_decided || bdd_eq != truly_equal || sat_eq != truly_equal) {
    std::string detail =
        std::string("pairwise verdicts diverge from exhaustive simulation "
                    "(variant=") +
        (variant == 0 ? "shrink" : variant == 1 ? "mutate" : "config-fault") +
        "): sim=" + (truly_equal ? "eq" : "neq") +
        " bdd=" + (bdd_eq ? "eq" : "neq") +
        " sat=" + (!sat_decided ? "undecided" : (sat_eq ? "eq" : "neq"));
    const int wrong = int(bdd_eq != truly_equal) + int(sat_eq != truly_equal);
    if (wrong == 1) {
      detail += std::string("; minority engine: ") +
                (bdd_eq != truly_equal ? "bdd" : "sat");
    }
    Finding f =
        make_finding(ctx, Target::kCecCross, "engine-disagreement", detail);
    f.reproducer = io::write_rqfp_string(a);
    f.reproducer_ext = ".rqfp";
    f.reproducer2 = io::write_rqfp_string(b);
    f.reproducer2_ext = ".rqfp";
    out.push_back(std::move(f));
  }
}

// ---------------------------------------------------------------------
// simd-differential
// ---------------------------------------------------------------------

/// Restores whatever tier was active before the case poked force_tier.
/// Safe even on exceptions: all tiers are bit-identical, so a case that
/// died mid-sweep still leaves a correct dispatcher behind.
struct TierGuard {
  rqfp::simd::Tier saved = rqfp::simd::active_tier();
  ~TierGuard() { rqfp::simd::force_tier(saved); }
};

void run_simd_differential(CaseContext& ctx, std::vector<Finding>& out) {
  util::Rng rng = case_rng(ctx, Target::kSimdDifferential, 0);
  const auto& tiers = rqfp::simd::available_tiers();
  const auto& scalar = rqfp::simd::kernels(rqfp::simd::Tier::kScalar);

  // 1. Raw kernels on random buffers with a ragged length, so every
  // vector tier exercises both its block loop and its scalar tail.
  const std::size_t n = 1 + static_cast<std::size_t>(rng.below(41));
  std::vector<std::uint64_t> a(n), b(n), c(n);
  for (std::size_t w = 0; w < n; ++w) {
    a[w] = rng.next();
    b[w] = rng.next();
    c[w] = rng.next();
  }
  const auto config = static_cast<std::uint16_t>(rng.next() & 0x1FF);
  const std::uint64_t ma = rng.next() & 1 ? ~std::uint64_t{0} : 0;
  const std::uint64_t mb = rng.next() & 1 ? ~std::uint64_t{0} : 0;
  const std::uint64_t mc = rng.next() & 1 ? ~std::uint64_t{0} : 0;
  std::vector<std::uint64_t> ref0(n), ref1(n), ref2(n);
  std::vector<std::uint64_t> got0(n), got1(n), got2(n);
  for (const auto tier : tiers) {
    if (tier == rqfp::simd::Tier::kScalar) {
      continue;
    }
    const auto& k = rqfp::simd::kernels(tier);
    const auto report = [&](const char* kernel) {
      out.push_back(make_finding(
          ctx, Target::kSimdDifferential, "kernel-divergence",
          std::string(kernel) + ": tier '" +
              std::string(rqfp::simd::to_string(tier)) +
              "' disagrees with scalar at length " + std::to_string(n)));
    };
    scalar.gate3(config, a.data(), b.data(), c.data(), ref0.data(),
                 ref1.data(), ref2.data(), n);
    k.gate3(config, a.data(), b.data(), c.data(), got0.data(), got1.data(),
            got2.data(), n);
    if (ref0 != got0 || ref1 != got1 || ref2 != got2) {
      report("gate3");
    }
    scalar.maj3(a.data(), ma, b.data(), mb, c.data(), mc, ref0.data(), n);
    k.maj3(a.data(), ma, b.data(), mb, c.data(), mc, got0.data(), n);
    if (ref0 != got0) {
      report("maj3");
    }
    scalar.and2(a.data(), ma, b.data(), mb, ref0.data(), n);
    k.and2(a.data(), ma, b.data(), mb, got0.data(), n);
    if (ref0 != got0) {
      report("and2");
    }
    if (scalar.xor_popcount(a.data(), b.data(), n) !=
        k.xor_popcount(a.data(), b.data(), n)) {
      report("xor_popcount");
    }
  }
  if (!out.empty()) {
    return;
  }

  // 2. End to end: the full simulation stack under every tier must
  // reproduce the scalar tier bit-for-bit — exhaustive tables and the
  // λ-batched delta path against scalar simulate.
  util::Rng net_rng = case_rng(ctx, Target::kSimdDifferential, 1);
  // Up to 10 PIs: rows of 1 to 16 words, so the delta path runs its
  // fixed-width short rows and each tier's kernel on the wide ones.
  NetlistShape shape;
  shape.max_pis = 10;
  shape.max_gates = 16;
  const rqfp::Netlist base = random_netlist(net_rng, shape);
  std::vector<rqfp::Netlist> children;
  for (unsigned i = 0; i < 4; ++i) {
    children.push_back(base);
    core::mutate(children.back(), net_rng);
  }

  TierGuard guard;
  rqfp::simd::force_tier(rqfp::simd::Tier::kScalar);
  const auto spec = rqfp::simulate(base);
  std::vector<std::vector<tt::TruthTable>> child_spec;
  for (const auto& ch : children) {
    child_spec.push_back(rqfp::simulate(ch));
  }

  for (const auto tier : tiers) {
    rqfp::simd::force_tier(tier);
    const auto report = [&](const char* what) {
      Finding f = make_finding(
          ctx, Target::kSimdDifferential, "tier-divergence",
          std::string(what) + " under tier '" +
              std::string(rqfp::simd::to_string(tier)) +
              "' differs from the scalar tier");
      f.reproducer = io::write_rqfp_string(base);
      f.reproducer_ext = ".rqfp";
      out.push_back(std::move(f));
    };
    if (rqfp::simulate(base) != spec) {
      report("simulate");
      return;
    }
    rqfp::SimCache cache;
    rqfp::build_sim_cache(base, cache);
    rqfp::DeltaBatch batch;
    std::vector<const rqfp::Netlist*> ptrs;
    for (const auto& ch : children) {
      ptrs.push_back(&ch);
    }
    // The whole block, then a one-child block reusing the wider scratch.
    for (const std::size_t n : {ptrs.size(), std::size_t{1}}) {
      ptrs.resize(n);
      rqfp::simulate_delta_batch(base, ptrs, cache, batch);
      for (std::size_t i = 0; i < n; ++i) {
        if (batch.children[i].po != child_spec[i]) {
          report("simulate_delta_batch vs scalar simulate");
          return;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// front-end-differential
// ---------------------------------------------------------------------

/// Value of node `n` under one assignment of the cut (memoized in `value`:
/// -1 unknown), or -1 when the cone escapes the cut: the per-bit reference
/// the word-level cut function is checked against.
int eval_cone_node(const aig::Aig& net, std::uint32_t n,
                   std::vector<int>& value) {
  if (value[n] >= 0) {
    return value[n];
  }
  if (!net.is_and(n)) {
    return -1;
  }
  const aig::Signal a = net.fanin0(n);
  const aig::Signal b = net.fanin1(n);
  const int va = eval_cone_node(net, a.node(), value);
  const int vb = va < 0 ? -1 : eval_cone_node(net, b.node(), value);
  if (vb < 0) {
    return -1;
  }
  value[n] = (va ^ static_cast<int>(a.complemented())) &
             (vb ^ static_cast<int>(b.complemented()));
  return value[n];
}

/// `root`'s function over `cut` by evaluating the cone once per leaf
/// assignment; nullopt when the cone escapes the cut.
std::optional<tt::TruthTable> exhaustive_cut_function(const aig::Aig& net,
                                                      std::uint32_t root,
                                                      const aig::Cut& cut) {
  const auto k = static_cast<unsigned>(cut.leaves.size());
  tt::TruthTable t(k);
  std::vector<int> value(net.num_nodes());
  for (std::uint64_t assignment = 0; assignment < t.num_bits();
       ++assignment) {
    std::fill(value.begin(), value.end(), -1);
    value[0] = 0;
    for (unsigned i = 0; i < k; ++i) {
      value[cut.leaves[i]] = static_cast<int>((assignment >> i) & 1);
    }
    const int v = eval_cone_node(net, root, value);
    if (v < 0) {
      return std::nullopt;
    }
    t.set_bit(assignment, v != 0);
  }
  return t;
}

void check_isop_intervals(CaseContext& ctx, std::vector<Finding>& out) {
  util::Rng rng = case_rng(ctx, Target::kFrontEndDiff, 0);
  for (int i = 0; i < 4; ++i) {
    const auto nv = static_cast<unsigned>(rng.below(11));
    const auto tables = random_tables(rng, nv, 3);
    // A dense onset or a sparse one, and don't-cares outside it.
    const tt::TruthTable onset =
        rng.chance(0.5) ? tables[0] : tables[0] & tables[1];
    const tt::TruthTable dc =
        rng.chance(0.3) ? tt::TruthTable(nv) : tables[2] & ~onset;
    const tt::TruthTable cover = tt::cover_to_table(tt::isop(onset, dc), nv);
    if (!(onset & ~cover).is_constant0() ||
        !(cover & ~(onset | dc)).is_constant0()) {
      Finding f = make_finding(ctx, Target::kFrontEndDiff, "isop-interval",
                               "cover_to_table(isop(onset, dc)) leaves the "
                               "interval [onset, onset | dc]");
      f.reproducer = std::to_string(nv) + " " + onset.to_hex() + " " +
                     dc.to_hex() + "\n";
      f.reproducer_ext = ".txt";
      out.push_back(std::move(f));
      return;
    }
  }
}

void check_front_end_aig(CaseContext& ctx, std::vector<Finding>& out) {
  util::Rng rng = case_rng(ctx, Target::kFrontEndDiff, 1);
  AigShape shape;
  shape.max_pis = 10;
  shape.max_ands = 60;
  const aig::Aig net = random_aig(rng, shape);
  const auto report = [&](const std::string& kind, const std::string& detail) {
    Finding f = make_finding(ctx, Target::kFrontEndDiff, kind, detail);
    f.reproducer = io::write_aiger_string(net);
    f.reproducer_ext = ".aag";
    out.push_back(std::move(f));
  };

  // Cut functions: enumerated 2-4-leaf cuts and reconvergent cuts of up
  // to 10 leaves against the per-assignment evaluation.
  const auto cuts = aig::enumerate_cuts(net, {});
  std::vector<std::uint32_t> ands;
  for (std::uint32_t n = 0; n < net.num_nodes(); ++n) {
    if (net.is_and(n)) {
      ands.push_back(n);
    }
  }
  for (int i = 0; i < 12 && !ands.empty(); ++i) {
    const std::uint32_t root = ands[rng.below(ands.size())];
    const aig::Cut cut =
        i % 3 == 2 ? aig::reconvergent_cut(
                         net, root, static_cast<unsigned>(rng.between(4, 10)))
                   : cuts[root][rng.below(cuts[root].size())];
    const auto want = exhaustive_cut_function(net, root, cut);
    std::optional<tt::TruthTable> got;
    try {
      got = aig::cut_function(net, root, cut);
    } catch (const std::invalid_argument&) {
    }
    if (got != want) {
      report("cut-function", "aig::cut_function of node " +
                                 std::to_string(root) + " over " +
                                 std::to_string(cut.leaves.size()) +
                                 " leaves differs from the evaluated cone");
      return;
    }
  }

  // Every pass of the front end keeps every output's table.
  const auto reference = aig::simulate(net);
  const bool zero_gain = rng.chance(0.5);
  struct Pass {
    const char* name;
    std::function<aig::Aig(const aig::Aig&)> run;
  };
  const Pass passes[] = {
      {"balance", [](const aig::Aig& a) { return aig::balance(a); }},
      {"rewrite",
       [&](const aig::Aig& a) {
         aig::Aig copy = a;
         aig::RewriteParams params;
         params.allow_zero_gain = zero_gain;
         aig::rewrite_pass(copy, params);
         return copy;
       }},
      {"refactor",
       [&](const aig::Aig& a) {
         aig::Aig copy = a;
         aig::RefactorParams params;
         params.allow_zero_gain = zero_gain;
         aig::refactor_pass(copy, params);
         return copy;
       }},
      {"resyn2", [](const aig::Aig& a) { return aig::resyn2(a); }},
  };
  for (const Pass& pass : passes) {
    try {
      if (aig::simulate(pass.run(net)) != reference) {
        report(std::string("pass-") + pass.name,
               std::string(pass.name) + " changed a PO function");
        return;
      }
    } catch (const std::exception& e) {
      report(std::string("pass-") + pass.name,
             std::string(pass.name) + " threw: " + e.what());
      return;
    }
  }
}

void run_front_end_diff(CaseContext& ctx, std::vector<Finding>& out) {
  check_isop_intervals(ctx, out);
  check_front_end_aig(ctx, out);
}

// ---------------------------------------------------------------------
// selftest
// ---------------------------------------------------------------------

void run_selftest(CaseContext& ctx, std::vector<Finding>& out) {
  // Deterministically "fails" on every third case so tests can verify the
  // whole pipeline — findings log determinism, reproducer files, exit
  // codes — without a real bug in the tree.
  if (ctx.index % 3 != 0) {
    return;
  }
  util::Rng rng = case_rng(ctx, Target::kSelftest, 0);
  rqfp::Netlist net = random_netlist(rng);
  std::string detail = "synthetic finding (selftest target)";
  if (net.num_gates() > 0) {
    const auto report = robust::inject_config_fault(net, rng);
    detail += ": " + report.describe();
  }
  Finding f = make_finding(ctx, Target::kSelftest, "selftest-finding", detail);
  f.reproducer = io::write_rqfp_string(net);
  f.reproducer_ext = ".rqfp";
  out.push_back(std::move(f));
}

} // namespace

std::string_view to_string(Target target) {
  switch (target) {
    case Target::kIoRoundtrip: return "io-roundtrip";
    case Target::kParserCorruption: return "parser-corruption";
    case Target::kManifestCorruption: return "manifest-corruption";
    case Target::kOptimizerDiff: return "optimizer-differential";
    case Target::kCecCross: return "cec-cross";
    case Target::kSimdDifferential: return "simd-differential";
    case Target::kSelftest: return "selftest";
    case Target::kFrontEndDiff: return "front-end-differential";
  }
  return "unknown";
}

Target parse_target(std::string_view name) {
  if (name == "io-roundtrip") return Target::kIoRoundtrip;
  if (name == "parser-corruption") return Target::kParserCorruption;
  if (name == "manifest-corruption") return Target::kManifestCorruption;
  if (name == "optimizer-differential") return Target::kOptimizerDiff;
  if (name == "cec-cross") return Target::kCecCross;
  if (name == "simd-differential") return Target::kSimdDifferential;
  if (name == "selftest") return Target::kSelftest;
  if (name == "front-end-differential") return Target::kFrontEndDiff;
  throw std::invalid_argument("fuzz: unknown target '" + std::string(name) +
                              "' (expected io-roundtrip, parser-corruption, "
                              "manifest-corruption, optimizer-differential, "
                              "cec-cross, simd-differential, "
                              "front-end-differential, or selftest)");
}

std::vector<Target> default_targets() {
  return {Target::kIoRoundtrip, Target::kParserCorruption,
          Target::kManifestCorruption, Target::kOptimizerDiff,
          Target::kCecCross, Target::kSimdDifferential,
          Target::kFrontEndDiff};
}

void run_case(Target target, CaseContext& ctx, std::vector<Finding>& out) {
  switch (target) {
    case Target::kIoRoundtrip: run_io_roundtrip(ctx, out); break;
    case Target::kParserCorruption: run_parser_corruption(ctx, out); break;
    case Target::kManifestCorruption:
      run_manifest_corruption(ctx, out);
      break;
    case Target::kOptimizerDiff: run_optimizer_diff(ctx, out); break;
    case Target::kCecCross: run_cec_cross(ctx, out); break;
    case Target::kSimdDifferential: run_simd_differential(ctx, out); break;
    case Target::kSelftest: run_selftest(ctx, out); break;
    case Target::kFrontEndDiff: run_front_end_diff(ctx, out); break;
  }
}

} // namespace rcgp::fuzz
