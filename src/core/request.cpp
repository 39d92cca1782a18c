#include "core/request.hpp"

#include <cctype>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "io/parse_error.hpp"
#include "obs/json.hpp"

namespace rcgp::core {
namespace {

[[noreturn]] void fail(const char* format, const std::string& source,
                       std::size_t line, const std::string& message) {
  io::fail_parse(format, source, line, message);
}

// ---- typed member extraction over obs::json::Value ----

using obs::json::narrow_member;
using obs::json::uint_member;

double number_member(const obs::json::Value& v, std::string_view key) {
  if (!v.is_number()) {
    throw std::invalid_argument("key \"" + std::string(key) +
                                "\" must be a number");
  }
  return v.as_number();
}

std::string string_member(const obs::json::Value& v, std::string_view key) {
  if (!v.is_string()) {
    throw std::invalid_argument("key \"" + std::string(key) +
                                "\" must be a string");
  }
  return v.as_string();
}

bool bool_member(const obs::json::Value& v, std::string_view key) {
  if (v.kind() != obs::json::Value::Kind::kBool) {
    throw std::invalid_argument("key \"" + std::string(key) +
                                "\" must be a boolean");
  }
  return v.as_bool();
}

/// True when member `i` of `members` repeats the key of an earlier one.
/// The member loops below stop at the first unknown key, so the members
/// before `i` are distinct known keys and this scan stays short.
bool repeats_earlier_key(
    const std::vector<std::pair<std::string, obs::json::Value>>& members,
    std::size_t i) {
  for (std::size_t j = 0; j < i; ++j) {
    if (members[j].first == members[i].first) {
      return true;
    }
  }
  return false;
}

/// Parses `text` as a single JSON object and walks its members through
/// `on_member`, rejecting duplicates. The member callback throws
/// std::invalid_argument for bad keys/values; the error is rethrown as a
/// contextual ParseError.
template <typename F>
void scan_object(const std::string& text, const char* format,
                 const std::string& source, std::size_t lineno,
                 F&& on_member) {
  const auto doc = obs::json::parse(text);
  if (!doc) {
    fail(format, source, lineno, "malformed JSON");
  }
  if (!doc->is_object()) {
    fail(format, source, lineno, "line must be a JSON object");
  }
  const auto& members = doc->members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto& [key, value] = members[i];
    if (repeats_earlier_key(members, i)) {
      fail(format, source, lineno, "duplicate key \"" + key + "\"");
    }
    try {
      on_member(key, value);
    } catch (const std::invalid_argument& e) {
      fail(format, source, lineno, e.what());
    }
  }
}

void check_schema(const obs::json::Value& v) {
  const std::uint64_t schema = uint_member(v, "schema");
  if (schema == 0 || schema > kRequestSchemaVersion) {
    throw std::invalid_argument(
        "unsupported schema version " + std::to_string(schema) +
        " (this build understands <= " +
        std::to_string(kRequestSchemaVersion) + ")");
  }
}

} // namespace

std::string_view to_string(CachePolicy policy) {
  switch (policy) {
    case CachePolicy::kOff: return "off";
    case CachePolicy::kUse: return "use";
    case CachePolicy::kSeed: return "seed";
  }
  return "use";
}

CachePolicy parse_cache_policy(std::string_view name) {
  if (name == "off") return CachePolicy::kOff;
  if (name == "use") return CachePolicy::kUse;
  if (name == "seed") return CachePolicy::kSeed;
  throw std::invalid_argument("unknown cache policy: \"" + std::string(name) +
                              "\" (want off, use, or seed)");
}

bool SynthesisRequest::operator==(const SynthesisRequest& o) const {
  return id == o.id && circuit == o.circuit && spec == o.spec &&
         algorithm == o.algorithm && generations == o.generations &&
         seed == o.seed && lambda == o.lambda && threads == o.threads &&
         islands == o.islands && topology == o.topology &&
         migration_interval == o.migration_interval &&
         migration_size == o.migration_size &&
         deadline_seconds == o.deadline_seconds &&
         max_generations == o.max_generations &&
         max_evaluations == o.max_evaluations &&
         stagnation_limit == o.stagnation_limit && retries == o.retries &&
         cache == o.cache;
}

std::string to_json(const SynthesisRequest& r) {
  obs::json::Writer w;
  w.begin_object();
  // Island-free requests are stamped schema 1 so they keep round-tripping
  // through schema-1 binaries; only requests that actually use the island
  // fields need a schema-2 reader.
  const bool needs_v2 = r.islands != 0 || r.topology != Topology::kRing ||
                        r.migration_interval != 0 || r.migration_size != 0;
  w.field("schema", needs_v2 ? kRequestSchemaVersion : std::uint64_t{1});
  w.field("id", r.id);
  if (!r.circuit.empty()) {
    w.field("circuit", r.circuit);
  }
  if (!r.spec.empty()) {
    w.field("spec_vars",
            static_cast<std::uint64_t>(r.spec.front().num_vars()));
    w.key("spec").begin_array();
    for (const auto& t : r.spec) {
      w.value(t.to_hex());
    }
    w.end_array();
  }
  if (r.algorithm != Algorithm::kEvolve) {
    w.field("algorithm", to_string(r.algorithm));
  }
  if (r.generations != 0) w.field("generations", r.generations);
  if (r.seed != 0) w.field("seed", r.seed);
  if (r.lambda != 0) w.field("lambda", r.lambda);
  if (r.threads != 0) w.field("threads", r.threads);
  if (r.islands != 0) w.field("islands", r.islands);
  if (r.topology != Topology::kRing) {
    w.field("topology", to_string(r.topology));
  }
  if (r.migration_interval != 0) {
    w.field("migration_interval", r.migration_interval);
  }
  if (r.migration_size != 0) w.field("migration_size", r.migration_size);
  if (r.deadline_seconds != 0.0) {
    w.field("deadline_seconds", r.deadline_seconds);
  }
  if (r.max_generations != 0) w.field("max_generations", r.max_generations);
  if (r.max_evaluations != 0) w.field("max_evaluations", r.max_evaluations);
  if (r.stagnation_limit != 0) {
    w.field("stagnation_limit", r.stagnation_limit);
  }
  if (r.retries >= 0) w.field("retries", r.retries);
  if (r.cache != CachePolicy::kUse) {
    w.field("cache", to_string(r.cache));
  }
  w.end_object();
  return w.str();
}

SynthesisRequest parse_request(const std::string& text,
                               const std::string& source, std::size_t lineno,
                               const char* format) {
  SynthesisRequest r;
  r.line = lineno;
  std::vector<std::string> spec_hex;
  std::uint64_t spec_vars = 0;
  bool have_spec_vars = false;
  bool multistart = false;
  bool island_keys = false;
  unsigned restarts = 0;
  scan_object(text, format, source, lineno,
              [&](const std::string& key, const obs::json::Value& v) {
    if (key == "schema") {
      check_schema(v);
    } else if (key == "id") {
      r.id = string_member(v, key);
    } else if (key == "circuit") {
      r.circuit = string_member(v, key);
    } else if (key == "spec") {
      if (!v.is_array()) {
        throw std::invalid_argument(
            "key \"spec\" must be an array of hex truth tables");
      }
      for (const auto& item : v.items()) {
        spec_hex.push_back(string_member(item, "spec"));
      }
      if (spec_hex.empty()) {
        throw std::invalid_argument("key \"spec\" must not be empty");
      }
    } else if (key == "spec_vars") {
      spec_vars = uint_member(v, key);
      have_spec_vars = true;
    } else if (key == "algorithm") {
      const std::string name = string_member(v, key);
      multistart = name == "multistart";
      r.algorithm = multistart ? Algorithm::kEvolve : parse_algorithm(name);
    } else if (key == "generations") {
      r.generations = uint_member(v, key);
    } else if (key == "seed") {
      r.seed = uint_member(v, key);
    } else if (key == "lambda") {
      r.lambda = narrow_member<unsigned>(v, key);
    } else if (key == "threads") {
      r.threads = narrow_member<unsigned>(v, key);
    } else if (key == "restarts") {
      restarts = narrow_member<unsigned>(v, key); // multistart only
    } else if (key == "islands") {
      r.islands = narrow_member<unsigned>(v, key);
      island_keys = true;
    } else if (key == "topology") {
      r.topology = parse_topology(string_member(v, key));
      island_keys = true;
    } else if (key == "migration_interval") {
      r.migration_interval = uint_member(v, key);
      island_keys = true;
    } else if (key == "migration_size") {
      r.migration_size = narrow_member<unsigned>(v, key);
      island_keys = true;
    } else if (key == "deadline_seconds") {
      r.deadline_seconds = number_member(v, key);
      if (r.deadline_seconds < 0 || !std::isfinite(r.deadline_seconds)) {
        throw std::invalid_argument(
            "key \"deadline_seconds\" must be finite and >= 0");
      }
    } else if (key == "max_generations") {
      r.max_generations = uint_member(v, key);
    } else if (key == "max_evaluations") {
      r.max_evaluations = uint_member(v, key);
    } else if (key == "stagnation_limit") {
      r.stagnation_limit = uint_member(v, key);
    } else if (key == "retries") {
      r.retries = narrow_member<int>(v, key);
    } else if (key == "cache") {
      r.cache = parse_cache_policy(string_member(v, key));
    } else {
      throw std::invalid_argument("unknown key \"" + key + "\"");
    }
  });
  if (!spec_hex.empty()) {
    if (!have_spec_vars) {
      fail(format, source, lineno, "key \"spec\" requires \"spec_vars\"");
    }
    if (spec_vars < 1 || spec_vars > kMaxRequestSpecVars) {
      fail(format, source, lineno,
           "key \"spec_vars\" must be in [1, " +
               std::to_string(kMaxRequestSpecVars) + "]");
    }
    for (const auto& hex : spec_hex) {
      try {
        r.spec.push_back(
            tt::TruthTable::from_hex(static_cast<unsigned>(spec_vars), hex));
      } catch (const std::invalid_argument& e) {
        fail(format, source, lineno,
             "key \"spec\": bad table \"" + hex + "\": " + e.what());
      }
    }
  } else if (have_spec_vars) {
    fail(format, source, lineno, "key \"spec_vars\" requires \"spec\"");
  }
  if (multistart) {
    // Schema 1 spelled N independent lineages this way; they are an
    // island fleet without migration.
    if (island_keys) {
      fail(format, source, lineno,
           "\"algorithm\": \"multistart\" already sets \"islands\" and "
           "\"topology\" — use either spelling, not both");
    }
    r.islands = restarts != 0 ? restarts : 4;
    r.topology = Topology::kNone;
  }
  validate_request(r, source, lineno, format);
  return r;
}

void validate_request(const SynthesisRequest& r, const std::string& source,
                      std::size_t lineno, const char* format) {
  if (r.id.empty()) {
    fail(format, source, lineno, "missing required key \"id\"");
  }
  for (const char c : r.id) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '-' || c == '.')) {
      fail(format, source, lineno,
           "id \"" + r.id + "\" must be filesystem-safe "
           "([A-Za-z0-9._-] only) — it names checkpoint and output files");
    }
  }
  if (r.circuit.empty() && r.spec.empty()) {
    fail(format, source, lineno,
         "missing required key \"circuit\" (or an inline \"spec\")");
  }
  const std::pair<const char*, std::uint64_t> wide[] = {
      {"generations", r.generations},
      {"seed", r.seed},
      {"migration_interval", r.migration_interval},
      {"max_generations", r.max_generations},
      {"max_evaluations", r.max_evaluations},
      {"stagnation_limit", r.stagnation_limit}};
  for (const auto& [key, value] : wide) {
    if (value > kMaxRequestInteger) {
      fail(format, source, lineno,
           "key \"" + std::string(key) + "\" must be at most " +
               std::to_string(kMaxRequestInteger));
    }
  }
  if (!r.circuit.empty() && !r.spec.empty()) {
    fail(format, source, lineno,
         "\"circuit\" and \"spec\" are mutually exclusive");
  }
  if (r.islands > 1 && r.algorithm != Algorithm::kEvolve) {
    fail(format, source, lineno,
         "\"islands\" > 1 requires \"algorithm\": \"evolve\" — the island "
         "model distributes the (1+lambda) evolution loop");
  }
  if ((r.migration_interval != 0 || r.migration_size != 0) && r.islands <= 1) {
    fail(format, source, lineno,
         "\"migration_interval\"/\"migration_size\" need \"islands\" >= 2 — "
         "a single island has nothing to exchange elites with");
  }
  if (!r.spec.empty()) {
    if (r.spec.size() > kMaxRequestSpecOutputs) {
      fail(format, source, lineno,
           "spec has " + std::to_string(r.spec.size()) +
               " outputs; the limit is " +
               std::to_string(kMaxRequestSpecOutputs));
    }
    const unsigned vars = r.spec.front().num_vars();
    if (vars < 1 || vars > kMaxRequestSpecVars) {
      fail(format, source, lineno,
           "spec tables must have 1.." +
               std::to_string(kMaxRequestSpecVars) + " inputs");
    }
    for (const auto& t : r.spec) {
      if (t.num_vars() != vars) {
        fail(format, source, lineno,
             "spec tables must share one input count");
      }
    }
  }
}

OptimizerOptions optimizer_options_for(const SynthesisRequest& r,
                                       const RequestDefaults& defaults,
                                       OptimizerOptions o) {
  o.algorithm = r.algorithm;
  o.evolve.generations =
      r.generations != 0 ? r.generations : defaults.generations;
  o.evolve.seed = r.seed != 0 ? r.seed : defaults.seed;
  if (r.lambda != 0) {
    o.evolve.lambda = r.lambda;
  }
  o.evolve.threads = r.threads != 0 ? r.threads : defaults.threads;
  o.anneal.seed = o.evolve.seed;
  if (r.generations != 0) {
    o.anneal.steps = r.generations; // kAnneal counts steps
  }
  if (r.islands != 0) {
    o.island.islands = r.islands;
  }
  o.island.topology = r.topology;
  o.island.migration_interval = r.migration_interval;
  if (r.migration_size != 0) {
    o.island.migration_size = r.migration_size;
  }
  o.limits.deadline_seconds = r.deadline_seconds;
  o.limits.max_generations = r.max_generations;
  o.limits.max_evaluations = r.max_evaluations;
  o.limits.stagnation_limit = r.stagnation_limit;
  return o;
}

std::string to_json(const SynthesisResponse& r) {
  obs::json::Writer w;
  w.begin_object();
  // Responses gained no fields in schema 2, so they stay stamped 1 and
  // remain readable by schema-1 clients regardless of the request schema.
  w.field("schema", std::uint64_t{1});
  w.field("id", r.id);
  w.field("ok", r.ok);
  if (!r.error.empty()) {
    w.field("error", r.error);
  }
  w.field("cached", r.cached);
  if (r.seeded) {
    w.field("seeded", r.seeded);
  }
  w.field("stop_reason", r.stop_reason);
  w.field("verified", r.verified);
  w.field("n_r", r.cost.n_r);
  w.field("n_b", r.cost.n_b);
  w.field("jjs", r.cost.jjs);
  w.field("n_d", r.cost.n_d);
  w.field("n_g", r.cost.n_g);
  w.field("seconds", r.seconds);
  if (!r.netlist.empty()) {
    w.field("netlist", r.netlist);
  }
  w.end_object();
  return w.str();
}

SynthesisResponse parse_response(const std::string& text,
                                 const std::string& source,
                                 std::size_t lineno) {
  SynthesisResponse r;
  bool have_id = false;
  const auto doc = obs::json::parse(text);
  if (!doc || !doc->is_object()) {
    io::fail_parse("response", source, lineno, "malformed JSON object");
  }
  const auto& members = doc->members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto& [key, v] = members[i];
    if (repeats_earlier_key(members, i)) {
      io::fail_parse("response", source, lineno,
                     "duplicate key \"" + key + "\"");
    }
    try {
      if (key == "schema") {
        check_schema(v);
      } else if (key == "id") {
        r.id = string_member(v, key);
        have_id = true;
      } else if (key == "ok") {
        r.ok = bool_member(v, key);
      } else if (key == "error") {
        r.error = string_member(v, key);
      } else if (key == "cached") {
        r.cached = bool_member(v, key);
      } else if (key == "seeded") {
        r.seeded = bool_member(v, key);
      } else if (key == "stop_reason") {
        r.stop_reason = string_member(v, key);
      } else if (key == "verified") {
        r.verified = bool_member(v, key);
      } else if (key == "n_r") {
        r.cost.n_r = narrow_member<std::uint32_t>(v, key);
      } else if (key == "n_b") {
        r.cost.n_b = narrow_member<std::uint32_t>(v, key);
      } else if (key == "jjs") {
        r.cost.jjs = narrow_member<std::uint32_t>(v, key);
      } else if (key == "n_d") {
        r.cost.n_d = narrow_member<std::uint32_t>(v, key);
      } else if (key == "n_g") {
        r.cost.n_g = narrow_member<std::uint32_t>(v, key);
      } else if (key == "seconds") {
        r.seconds = number_member(v, key);
      } else if (key == "netlist") {
        r.netlist = string_member(v, key);
      } else {
        throw std::invalid_argument("unknown key \"" + key + "\"");
      }
    } catch (const std::invalid_argument& e) {
      io::fail_parse("response", source, lineno, e.what());
    }
  }
  if (!have_id) {
    io::fail_parse("response", source, lineno, "missing required key \"id\"");
  }
  return r;
}

} // namespace rcgp::core
