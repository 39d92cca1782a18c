#include "island/island.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/request.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "util/durable.hpp"
#include "util/stopwatch.hpp"

namespace rcgp::island {

namespace {

using robust::StopReason;

/// Static per-island run configuration. Island i evolves under seed
/// `base_seed + i`; with Topology::kNone the fleet splits the generation
/// budget (base + remainder, exactly like the retired multistart), with
/// every other topology each island runs the full budget. `cap` folds in
/// the caller's RunBudget::max_generations ceiling.
struct IslandPlan {
  std::uint64_t seed = 0;
  std::uint64_t total = 0;
  std::uint64_t cap = 0;
};

/// fleet.json format version; resume refuses any other.
constexpr std::uint64_t kManifestSchema = 3;

/// Fleet manifest (fleet.json) contents we read back on resume.
struct ManifestData {
  std::uint64_t seed = 0;
  unsigned lambda = 0;
  double mu = 0.0;
  std::uint64_t generations = 0;
  unsigned islands = 0;
  std::string topology;
  std::uint64_t migration_interval = 0;
  unsigned migration_size = 0;
  std::uint64_t epoch = 0;
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::vector<std::uint64_t> immigrants;
  /// Each island's committed checkpoint text ("" = not started).
  std::vector<std::string> checkpoints;
};

[[noreturn]] void manifest_error(const std::string& path,
                                  const std::string& detail) {
  throw robust::IntegrityError(robust::IntegrityError::Kind::kFormat,
                               "island",
                               "fleet manifest " + path + ": " + detail);
}

/// Reads fleet.json back. Every count must be an exact integer that fits
/// its field (a missing one reads as 0); a damaged or hand-edited file
/// that breaks this raises robust::IntegrityError, as a damaged
/// checkpoint does.
ManifestData load_manifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("island: cannot read fleet manifest " + path);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::optional<obs::json::Value> v = obs::json::parse(ss.str());
  if (!v || !v->is_object()) manifest_error(path, "malformed JSON");
  if (v->number_or("schema", 0) != kManifestSchema) {
    manifest_error(path, "not schema " + std::to_string(kManifestSchema) +
                             ", so it cannot be resumed; rerun the fleet");
  }
  ManifestData m;
  try {
    using obs::json::integer_or;
    m.seed = integer_or(*v, "seed", m.seed);
    m.lambda = integer_or(*v, "lambda", m.lambda);
    m.mu = v->number_or("mu", 0.0);
    m.generations = integer_or(*v, "generations", m.generations);
    m.islands = integer_or(*v, "islands", m.islands);
    m.topology = v->string_or("topology", "");
    m.migration_interval =
        integer_or(*v, "migration_interval", m.migration_interval);
    m.migration_size = integer_or(*v, "migration_size", m.migration_size);
    m.epoch = integer_or(*v, "epoch", m.epoch);
    m.offered = integer_or(*v, "migrations_offered", m.offered);
    m.accepted = integer_or(*v, "migrations_accepted", m.accepted);
    m.rejected = integer_or(*v, "migrations_rejected", m.rejected);
    if (const obs::json::Value* arr = v->find("islands_state");
        arr && arr->is_array()) {
      for (const obs::json::Value& it : arr->items()) {
        m.immigrants.push_back(integer_or(it, "immigrants", std::uint64_t{0}));
        m.checkpoints.push_back(it.string_or("checkpoint", ""));
      }
    }
  } catch (const std::invalid_argument& e) {
    manifest_error(path, e.what());
  }
  return m;
}

obs::Counter& island_immigrant_counter(unsigned island) {
  return obs::registry().counter("island.island" + std::to_string(island) +
                                 ".immigrants");
}

obs::Gauge& island_best_gauge(unsigned island) {
  return obs::registry().gauge("island.island" + std::to_string(island) +
                               ".best_n_r");
}

} // namespace

std::vector<unsigned> donors_for(core::Topology topology, unsigned island,
                                 unsigned islands) {
  std::vector<unsigned> donors;
  if (islands < 2) return donors;
  switch (topology) {
    case core::Topology::kNone:
      break;
    case core::Topology::kRing:
      donors.push_back((island + islands - 1) % islands);
      break;
    case core::Topology::kStar:
      if (island == 0) {
        for (unsigned j = 1; j < islands; ++j) donors.push_back(j);
      } else {
        donors.push_back(0);
      }
      break;
    case core::Topology::kFull:
      for (unsigned j = 0; j < islands; ++j) {
        if (j != island) donors.push_back(j);
      }
      break;
  }
  return donors;
}

std::string island_state_path(const std::string& state_dir, unsigned island) {
  return state_dir + "/island-" + std::to_string(island) + ".ckpt";
}

std::string fleet_manifest_path(const std::string& state_dir) {
  return state_dir + "/fleet.json";
}

core::EvolveResult LocalSliceExecutor::run(
    const Slice& slice, std::span<const tt::TruthTable> spec,
    const core::EvolveParams& params, const robust::EvolveCheckpoint& state) {
  (void)slice; // params.checkpoint_path already names the state file
  return core::detail::continue_lineage(state, spec, params);
}

RemoteSliceExecutor::RemoteSliceExecutor(std::vector<std::string> endpoints)
    : endpoints_(std::move(endpoints)) {
  if (endpoints_.empty()) {
    throw std::invalid_argument(
        "island: remote executor needs at least one endpoint");
  }
}

core::EvolveResult RemoteSliceExecutor::run(
    const Slice& slice, std::span<const tt::TruthTable> spec,
    const core::EvolveParams& params, const robust::EvolveCheckpoint& state) {
  if (slice.checkpoint_path.empty()) {
    throw std::invalid_argument(
        "island: remote islands need a file-backed fleet (set state_dir)");
  }
  if (params.mutation != core::MutationParams{} ||
      params.fitness != core::FitnessOptions{} ||
      params.sat_verify_improvements || params.disable_shrink) {
    throw std::invalid_argument(
        "island: remote islands run with daemon-default evolve parameters; "
        "custom mutation/fitness/SAT/shrink settings are local-only");
  }
  if (spec.size() > core::kMaxRequestSpecOutputs ||
      (!spec.empty() && spec.front().num_vars() > core::kMaxRequestSpecVars)) {
    throw std::invalid_argument(
        "island: spec too wide for an inline serve request");
  }
  // The daemon resumes the island from this file.
  robust::save_checkpoint(state, slice.checkpoint_path);

  core::SynthesisRequest r;
  r.id = "island-" + std::to_string(slice.island);
  r.spec.assign(spec.begin(), spec.end());
  r.algorithm = core::Algorithm::kEvolve;
  r.generations = params.generations;
  r.seed = params.seed;
  r.lambda = params.lambda;
  r.threads = params.threads;
  r.max_generations = params.budget.max_generations;
  r.max_evaluations = params.budget.max_evaluations;
  r.stagnation_limit = params.budget.stagnation_limit;
  r.deadline_seconds = params.budget.deadline_seconds;
  // A cache hit would skip the evolution slice entirely — forbid it.
  r.cache = core::CachePolicy::kOff;

  const std::string& address = endpoints_[slice.island % endpoints_.size()];
  // One connection per slice: Client is not thread-safe and slices of
  // different islands run concurrently.
  serve::Client client(address);
  const core::SynthesisResponse resp = client.submit(r);

  if (!resp.ok && resp.stop_reason != "stop-requested") {
    throw std::runtime_error("island: remote slice " + r.id + " failed at " +
                             address + ": " + resp.error);
  }
  robust::EvolveCheckpoint st = robust::load_checkpoint(slice.checkpoint_path);
  if (st.seed != params.seed || st.lambda != params.lambda ||
      st.generations_total != params.generations) {
    throw std::runtime_error("island: checkpoint " + slice.checkpoint_path +
                             " no longer matches " + r.id +
                             " after the slice at " + address);
  }
  const StopReason reason = robust::parse_stop_reason(resp.stop_reason);
  // Progress guard. Identity proves nothing — this executor wrote the
  // checkpoint itself, so a daemon that never opened it (started without
  // --checkpoint-dir, or pointing at the wrong directory) still reloads
  // bit-identical. A slice only launches on a state its budget does not
  // settle, so a daemon that really ran it must leave a state the slice's
  // budget settles (its boundary or a final stop), or report an
  // interruption.
  if (!robust::is_interrupt(reason) && !params.budget.settled(st.progress())) {
    throw std::runtime_error(
        "island: daemon at " + address + " did not advance " + r.id +
        " (is its --checkpoint-dir pointing at the fleet state_dir?)");
  }
  return core::EvolveResult{std::move(st), reason};
}

core::EvolveResult run_fleet(const rqfp::Netlist& initial,
                             std::span<const tt::TruthTable> spec,
                             const core::EvolveParams& params,
                             const FleetOptions& options) {
  if (options.islands == 0) {
    throw std::invalid_argument("island: islands must be >= 1");
  }
  if (options.resume && options.state_dir.empty()) {
    throw std::invalid_argument("island: resume requires a state_dir");
  }

  static obs::Counter& c_fleets = obs::registry().counter("island.fleets");
  static obs::Counter& c_epochs = obs::registry().counter("island.epochs");
  static obs::Counter& c_offered =
      obs::registry().counter("island.migrations.offered");
  static obs::Counter& c_accepted =
      obs::registry().counter("island.migrations.accepted");
  static obs::Counter& c_rejected =
      obs::registry().counter("island.migrations.rejected");
  static obs::Gauge& g_islands = obs::registry().gauge("island.islands");

  util::Stopwatch watch;
  c_fleets.inc();
  g_islands.set(static_cast<double>(options.islands));

  const unsigned N = options.islands;
  const core::Topology topo = options.topology;
  const bool multistart = topo == core::Topology::kNone;
  // A no-migration fleet is one epoch: every island runs its whole share.
  const std::uint64_t interval = multistart ? 0 : options.migration_interval;
  const unsigned channel =
      options.migration_size == 0 ? 1 : options.migration_size;
  const bool files = !options.state_dir.empty();
  LocalSliceExecutor local;
  SliceExecutor* executor =
      options.executor != nullptr ? options.executor : &local;
  const bool local_slices =
      dynamic_cast<LocalSliceExecutor*>(executor) != nullptr;

  const std::uint64_t user_max = params.budget.max_generations;
  std::vector<IslandPlan> plan(N);
  const std::uint64_t base = params.generations / N;
  const std::uint64_t rem = params.generations % N;
  for (unsigned i = 0; i < N; ++i) {
    plan[i].seed = params.seed + i;
    plan[i].total =
        multistart ? base + (i < rem ? 1 : 0) : params.generations;
    plan[i].cap = user_max != 0 ? std::min(user_max, plan[i].total)
                                : plan[i].total;
  }
  // Slice parameter template. Traces and improvement callbacks stay with
  // the coordinator: per-island improvement streams interleave
  // non-monotonically fleet-wide, so slices run silent and the coordinator
  // emits island_* events at epoch boundaries instead.
  core::EvolveParams sp = params;
  sp.trace = nullptr;
  sp.on_improvement = nullptr;
  sp.checkpoint_path.clear();

  std::vector<std::optional<robust::EvolveCheckpoint>> state(N);
  std::vector<std::uint8_t> done(N, 0);
  std::vector<StopReason> reason(N, StopReason::kCompleted);
  std::uint64_t epoch = 0;
  std::uint64_t offered = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::vector<std::uint64_t> immigrants(N, 0);

  const auto state_path = [&](unsigned i) {
    return files ? island_state_path(options.state_dir, i) : std::string();
  };

  const auto save_manifest = [&] {
    if (!files) return;
    obs::json::Writer w;
    w.begin_object();
    w.field("schema", kManifestSchema);
    w.field("seed", params.seed);
    w.field("lambda", params.lambda);
    w.field("mu", params.mutation.mu);
    w.field("generations", params.generations);
    w.field("islands", N);
    w.field("topology", core::to_string(topo));
    w.field("migration_interval", interval);
    w.field("migration_size", channel);
    w.field("epoch", epoch);
    w.field("migrations_offered", offered);
    w.field("migrations_accepted", accepted);
    w.field("migrations_rejected", rejected);
    w.key("islands_state").begin_array();
    for (unsigned i = 0; i < N; ++i) {
      w.begin_object();
      w.field("island", i);
      w.field("done", done[i] != 0);
      w.field("reason", std::string_view(robust::to_string(reason[i])));
      w.field("immigrants", immigrants[i]);
      if (state[i]) {
        w.field("checkpoint", robust::serialize_checkpoint(*state[i]));
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
    util::write_file_durable(fleet_manifest_path(options.state_dir),
                             w.str() + "\n");
  };

  // --- On-disk state: resume continues a fleet, fresh wipes leftovers. ---
  if (files) {
    std::filesystem::create_directories(options.state_dir);
    const std::string manifest = fleet_manifest_path(options.state_dir);
    if (options.resume) {
      const auto lineage = [&](unsigned i, robust::EvolveCheckpoint ck,
                               const std::string& source) {
        if (ck.seed != plan[i].seed || ck.lambda != params.lambda ||
            ck.mu != params.mutation.mu ||
            ck.generations_total != plan[i].total) {
          throw std::invalid_argument(
              "island: checkpoint of island " + std::to_string(i) + " in " +
              source + " was taken under a different fleet configuration");
        }
        return ck;
      };
      if (std::filesystem::exists(manifest)) {
        const ManifestData m = load_manifest(manifest);
        if (m.seed != params.seed || m.lambda != params.lambda ||
            m.mu != params.mutation.mu ||
            m.generations != params.generations || m.islands != N ||
            m.topology != core::to_string(topo) ||
            m.migration_interval != interval || m.migration_size != channel) {
          throw std::invalid_argument(
              "island: fleet manifest " + manifest +
              " was written under a different fleet configuration "
              "(seed/islands/topology/migration/generations/lambda/mu "
              "mismatch)");
        }
        epoch = m.epoch;
        offered = m.offered;
        accepted = m.accepted;
        rejected = m.rejected;
        for (unsigned i = 0; i < N && i < m.immigrants.size(); ++i) {
          immigrants[i] = m.immigrants[i];
          if (!m.checkpoints[i].empty()) {
            state[i] = lineage(i, robust::parse_checkpoint(m.checkpoints[i]),
                               manifest);
          }
        }
      }
      // An island file replaces the committed state only when it holds a
      // later generation: a slice got past the commit. On a tie it is the
      // pre-migration state of the boundary the manifest committed.
      for (unsigned i = 0; i < N; ++i) {
        if (!std::filesystem::exists(state_path(i))) continue;
        robust::EvolveCheckpoint file =
            lineage(i, robust::load_checkpoint(state_path(i)), state_path(i));
        if (!state[i] || file.generations_run > state[i]->generations_run) {
          state[i] = std::move(file);
        }
      }
    } else {
      // Fresh fleet: clear every island file a previous run left here
      // (including ones beyond this fleet's island count).
      std::vector<std::filesystem::path> stale;
      std::error_code ec;
      for (const auto& entry :
           std::filesystem::directory_iterator(options.state_dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("fleet.json", 0) == 0 ||
            name.rfind("island-", 0) == 0) {
          stale.push_back(entry.path());
        }
      }
      for (const auto& p : stale) std::filesystem::remove(p, ec);
    }
  }

  // An island is done once the rule that stops evolve settles its state
  // under the fleet's budget. The rule reads only the state, so a resumed
  // fleet classifies its islands exactly as the uninterrupted run did.
  const auto settle = [&](unsigned i) {
    const auto r = params.budget.settled(state[i]->progress());
    if (r) {
      done[i] = 1;
      reason[i] = *r;
    }
    return r.has_value();
  };
  for (unsigned i = 0; i < N; ++i) {
    if (state[i]) settle(i);
  }

  save_manifest();

  if (params.trace != nullptr) {
    params.trace->event("island_fleet_start")
        .field("islands", N)
        .field("topology", core::to_string(topo))
        .field("migration_interval", interval)
        .field("migration_size", channel)
        .field("generations", params.generations)
        .field("seed", params.seed)
        .field("epoch", epoch)
        .field("resumed", options.resume);
  }

  const auto boundary_for = [&](unsigned i) {
    return interval != 0 ? std::min((epoch + 1) * interval, plan[i].cap)
                         : plan[i].cap;
  };

  enum class SliceState : std::uint8_t { kActive, kDone, kInterrupted };
  struct SliceLog {
    bool ran = false;
    std::uint64_t from = 0;
    std::uint64_t to = 0;
    StopReason reason = StopReason::kCompleted;
  };

  const auto run_slice = [&](unsigned i, SliceLog& log) -> SliceState {
    // No slice starts after a stop or once the fleet's time, counted from
    // the start of this call, is up; whatever `parallelism` queued.
    const double now = watch.seconds();
    if (const auto stop = params.budget.interrupted(now)) {
      log.reason = *stop;
      return SliceState::kInterrupted;
    }
    core::EvolveParams p = sp;
    p.seed = plan[i].seed;
    p.generations = plan[i].total;
    // A fresh island starts exactly where a fresh evolve run does, so
    // "continue this state" is the only slice operation and a fresh
    // island is indistinguishable from a resumed one — the key to
    // placement-independent bit-identity.
    if (!state[i]) state[i] = core::detail::start_lineage(initial, spec, p);
    if (settle(i)) return SliceState::kDone;
    const std::uint64_t b = boundary_for(i);
    p.budget.max_generations = b < plan[i].total ? b : user_max;
    if (p.budget.settled(state[i]->progress())) {
      // Resumed after this slice landed but before its epoch committed.
      return SliceState::kActive;
    }
    if (params.budget.deadline_seconds > 0.0) {
      // The island's own deadline spans its resume chain; the slice also
      // ends with the fleet's time.
      p.budget.deadline_seconds =
          std::min(p.budget.deadline_seconds,
                   state[i]->seconds + params.budget.deadline_seconds - now);
    }
    // The epoch commit carries every island's state, so a local slice
    // writes its island file only for a periodic save strictly inside it
    // and for the island's last slice. A remote slice always exchanges
    // its state through the file.
    const std::uint64_t every = p.checkpoint_interval;
    if (!local_slices || b == plan[i].cap ||
        (every != 0 && (state[i]->generations_run / every + 1) * every < b)) {
      p.checkpoint_path = state_path(i);
    }
    log.ran = true;
    log.from = state[i]->generations_run;
    core::EvolveResult r =
        executor->run(Slice{i, epoch, p.checkpoint_path}, spec, p, *state[i]);
    log.reason = r.stop_reason;
    // The slice advanced the lineage; its run identity stays as it was.
    static_cast<core::LineageState&>(*state[i]) = std::move(r);
    log.to = state[i]->generations_run;
    if (robust::is_interrupt(log.reason)) {
      // A stop or the fleet deadline: a resumable interruption, not a
      // final island state.
      return SliceState::kInterrupted;
    }
    // Otherwise the slice's budget settled the state: either the fleet's
    // budget does too, or the island is parked at the migration boundary.
    return settle(i) ? SliceState::kDone : SliceState::kActive;
  };

  const auto trace_slice = [&](unsigned i, const SliceLog& log) {
    if (params.trace == nullptr || !log.ran) return;
    params.trace->event("island_slice")
        .field("island", i)
        .field("epoch", epoch)
        .field("from", log.from)
        .field("to", log.to)
        .field("reason", std::string_view(robust::to_string(log.reason)))
        .field("n_r", state[i]->best_fitness.n_r);
  };

  StopReason fleet_reason = StopReason::kCompleted;
  bool finished_all = false;
  std::uint64_t epochs_this_call = 0;
  while (true) {
    std::vector<unsigned> active;
    for (unsigned i = 0; i < N; ++i) {
      if (!done[i]) active.push_back(i);
    }
    if (active.empty()) {
      finished_all = true;
      break;
    }
    if (const auto stop = params.budget.interrupted(watch.seconds())) {
      fleet_reason = *stop;
      break;
    }
    if (options.max_epochs != 0 && epochs_this_call >= options.max_epochs) {
      fleet_reason = StopReason::kGenerationBudget;
      break;
    }

    // Run this epoch's slices. Concurrency is a pure throughput knob:
    // slices touch disjoint islands and the exchange below happens only
    // after every slice joined.
    std::vector<SliceLog> logs(active.size());
    std::vector<SliceState> outcome(active.size(), SliceState::kActive);
    std::vector<std::exception_ptr> errors(active.size());
    {
      const unsigned par =
          options.parallelism != 0
              ? static_cast<unsigned>(std::min<std::size_t>(
                    options.parallelism, active.size()))
              : static_cast<unsigned>(active.size());
      // Islands before lineages: concurrent local slices share the cores
      // instead of each resolving threads = 0 to all of them.
      if (params.threads == 0 && local_slices) {
        sp.threads =
            par > 1 ? std::max(1u, std::thread::hardware_concurrency() / par)
                    : 0;
      }
      std::atomic<std::size_t> next{0};
      const auto worker = [&] {
        for (std::size_t k = next.fetch_add(1); k < active.size();
             k = next.fetch_add(1)) {
          try {
            outcome[k] = run_slice(active[k], logs[k]);
          } catch (...) {
            errors[k] = std::current_exception();
          }
        }
      };
      if (par <= 1) {
        worker();
      } else {
        std::vector<std::thread> threads;
        threads.reserve(par);
        for (unsigned t = 0; t < par; ++t) threads.emplace_back(worker);
        for (std::thread& t : threads) t.join();
      }
    }
    for (std::size_t k = 0; k < active.size(); ++k) {
      if (errors[k]) {
        // A file-backed fleet stays resumable from its last commit, and
        // from any island file a slice left past it, once the cause —
        // e.g. a killed worker daemon — is fixed.
        std::rethrow_exception(errors[k]);
      }
    }
    for (std::size_t k = 0; k < active.size(); ++k) {
      trace_slice(active[k], logs[k]);
    }

    bool interrupted = false;
    bool stop_requested = false;
    for (std::size_t k = 0; k < active.size(); ++k) {
      if (outcome[k] == SliceState::kInterrupted) {
        interrupted = true;
        stop_requested |= logs[k].reason == StopReason::kStopRequested;
      }
    }
    if (interrupted) {
      fleet_reason = stop_requested ? StopReason::kStopRequested
                                    : StopReason::kTimeLimit;
      break;
    }

    // Deterministic elite exchange at the epoch boundary, computed from
    // the pre-migration snapshot so adoption order cannot matter. Done
    // islands still donate; only active islands accept.
    struct Adoption {
      unsigned to = 0;
      unsigned from = 0;
    };
    std::vector<Adoption> adoptions;
    std::uint64_t offered_now = 0;
    if (interval != 0 && N > 1) {
      for (unsigned i = 0; i < N; ++i) {
        if (done[i] || !state[i]) continue;
        const std::vector<unsigned> donors = donors_for(topo, i, N);
        const std::size_t considered =
            std::min<std::size_t>(channel, donors.size());
        int best = -1;
        for (std::size_t d = 0; d < considered; ++d) {
          const unsigned j = donors[d];
          if (!state[j]) continue;
          const core::Fitness& against =
              best < 0 ? state[i]->best_fitness : state[best]->best_fitness;
          if (state[j]->best_fitness.strictly_better(against)) {
            best = static_cast<int>(j);
          }
        }
        offered += considered;
        offered_now += considered;
        c_offered.inc(considered);
        if (best >= 0) {
          adoptions.push_back({i, static_cast<unsigned>(best)});
          ++accepted;
          rejected += considered - 1;
          c_accepted.inc();
          c_rejected.inc(considered - 1);
        } else {
          rejected += considered;
          c_rejected.inc(considered);
        }
      }
    }

    // Apply adoptions: the immigrant elite replaces the parent and the
    // stagnation clock restarts. Every next state comes from the
    // pre-migration snapshot before any is applied. For file-backed
    // fleets the manifest write is the commit point: it carries every
    // island's post-migration state, which resume prefers over island
    // files still at or below the boundary (docs/ISLANDS.md).
    std::vector<robust::EvolveCheckpoint> next_states;
    next_states.reserve(adoptions.size());
    for (const Adoption& a : adoptions) {
      robust::EvolveCheckpoint ns = *state[a.to];
      ns.best = state[a.from]->best;
      ns.best_fitness = state[a.from]->best_fitness;
      ns.since_improvement = 0;
      ns.last_improvement_gen = ns.generations_run;
      next_states.push_back(std::move(ns));
    }
    ++epoch;
    ++epochs_this_call;
    c_epochs.inc();
    for (std::size_t k = 0; k < adoptions.size(); ++k) {
      const unsigned to = adoptions[k].to;
      state[to] = std::move(next_states[k]);
      ++immigrants[to];
      island_immigrant_counter(to).inc();
      if (params.trace != nullptr) {
        params.trace->event("island_migration")
            .field("epoch", epoch)
            .field("to", to)
            .field("from", adoptions[k].from)
            .field("n_r", state[to]->best_fitness.n_r);
      }
    }
    save_manifest(); // commit point
    if (params.trace != nullptr) {
      params.trace->event("island_epoch")
          .field("epoch", epoch)
          .field("active", static_cast<std::uint64_t>(active.size()))
          .field("offered", offered_now)
          .field("accepted", static_cast<std::uint64_t>(adoptions.size()));
    }
  }

  if (finished_all) {
    // All islands ran to a terminal state: report their shared reason,
    // or kCompleted for a mixed fleet.
    fleet_reason = reason[0];
    for (unsigned i = 1; i < N; ++i) {
      if (reason[i] != fleet_reason) {
        fleet_reason = StopReason::kCompleted;
        break;
      }
    }
  }
  save_manifest();

  // --- Aggregate the islands into one EvolveResult. ---
  core::EvolveResult out;
  out.resumed = options.resume;
  int best = -1;
  for (unsigned i = 0; i < N; ++i) {
    if (!state[i]) continue;
    out.generations_run += state[i]->generations_run;
    out.evaluations += state[i]->evaluations;
    out.improvements += state[i]->improvements;
    out.sat_confirmations += state[i]->sat_confirmations;
    out.sat_cec_conflicts += state[i]->sat_cec_conflicts;
    out.mutations_attempted += state[i]->mutations_attempted;
    out.mutations_accepted += state[i]->mutations_accepted;
    island_best_gauge(i).set(state[i]->best_fitness.n_r);
    if (best < 0 ||
        state[i]->best_fitness.strictly_better(state[best]->best_fitness)) {
      best = static_cast<int>(i);
    }
  }
  if (best < 0) {
    // No island ran at all (deadline elapsed before the first one): fall
    // back to the unmodified input, exactly like the retired multistart.
    out.best = initial;
    out.best_fitness = core::evaluate(initial, spec, params.fitness);
    ++out.evaluations;
  } else {
    out.best = state[best]->best;
    // Re-derives Fitness::objective, which checkpoints do not carry. The
    // evaluation is pure and deliberately uncounted: an uninterrupted
    // single run reports the same evaluation total.
    out.best_fitness = core::evaluate(out.best, spec, params.fitness);
    out.since_improvement = state[best]->since_improvement;
    out.last_improvement_gen = state[best]->last_improvement_gen;
  }
  out.seconds = watch.seconds();
  out.stop_reason = fleet_reason;

  if (params.trace != nullptr) {
    params.trace->event("island_fleet_end")
        .field("reason", std::string_view(robust::to_string(fleet_reason)))
        .field("epoch", epoch)
        .field("offered", offered)
        .field("accepted", accepted)
        .field("rejected", rejected)
        .field("best_island",
               best < 0 ? std::int64_t{-1} : std::int64_t{best})
        .field("n_r", out.best_fitness.n_r);
  }
  return out;
}

} // namespace rcgp::island
