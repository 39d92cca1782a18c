#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/request.hpp"
#include "io/parse_error.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::core {
namespace {

// ---------- cache policy names ----------

TEST(CachePolicy, NamesRoundTrip) {
  for (const CachePolicy p :
       {CachePolicy::kOff, CachePolicy::kUse, CachePolicy::kSeed}) {
    EXPECT_EQ(parse_cache_policy(to_string(p)), p);
  }
  EXPECT_THROW(parse_cache_policy("bogus"), std::invalid_argument);
}

// ---------- request JSON round trip ----------

TEST(Request, MinimalCircuitJobRoundTrips) {
  SynthesisRequest r;
  r.id = "j1";
  r.circuit = "full_adder";
  const std::string json = to_json(r);
  EXPECT_EQ(parse_request(json), r);
}

TEST(Request, AllOverridesRoundTrip) {
  SynthesisRequest r;
  r.id = "heavy.job-2";
  r.circuit = "circuits/alu.v";
  r.algorithm = Algorithm::kAnneal;
  r.generations = 123456;
  r.seed = 42;
  r.lambda = 7;
  r.threads = 3;
  r.deadline_seconds = 12.5;
  r.max_generations = 200000;
  r.max_evaluations = 1000000;
  r.stagnation_limit = 5000;
  r.retries = 2;
  r.cache = CachePolicy::kSeed;
  EXPECT_EQ(parse_request(to_json(r)), r);
}

TEST(Request, InlineSpecRoundTrips) {
  SynthesisRequest r;
  r.id = "inline";
  r.spec = {tt::TruthTable::from_hex(3, "e8"),
            tt::TruthTable::from_hex(3, "96")};
  r.cache = CachePolicy::kOff;
  const SynthesisRequest back = parse_request(to_json(r));
  EXPECT_EQ(back, r);
  ASSERT_EQ(back.spec.size(), 2u);
  EXPECT_EQ(back.spec[0].num_vars(), 3u);
}

// ---------- request validation ----------

void expect_request_error(const std::string& json,
                          const std::string& fragment) {
  try {
    parse_request(json, "doc", 3, "serve");
    FAIL() << "expected io::ParseError with: " << fragment;
  } catch (const io::ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("serve:doc:3:"), std::string::npos) << what;
    EXPECT_NE(what.find(fragment), std::string::npos) << what;
  }
}

TEST(Request, RejectionsCarryTheEmbeddingFormatContext) {
  expect_request_error("{\"schema\":1}", "id");
  expect_request_error("{\"schema\":1,\"id\":\"a b\",\"circuit\":\"c17\"}",
                       "id");
  expect_request_error("{\"schema\":99,\"id\":\"j\",\"circuit\":\"c17\"}",
                       "schema");
  expect_request_error(
      "{\"schema\":1,\"id\":\"j\",\"circuit\":\"c17\",\"bogus\":1}", "bogus");
  expect_request_error("{\"schema\":1,\"id\":\"j\",\"circuit\":\"c17\","
                       "\"spec\":[\"e8\"],\"spec_vars\":3}",
                       "circuit");
  expect_request_error("not json at all", "");
}

// An algorithm the optimizer does not run, such as the windowed sweep's
// "window", fails to parse, and the error lists the ones it does run.
TEST(Request, WindowAlgorithmIsRejected) {
  expect_request_error("{\"schema\":1,\"id\":\"j\",\"circuit\":\"c17\","
                       "\"algorithm\":\"window\"}",
                       "evolve|anneal");
}

// ---------- schema 1 / schema 2 compatibility matrix ----------

TEST(RequestSchema, IslandFreeRequestsStillStampSchemaOne) {
  SynthesisRequest r;
  r.id = "legacy";
  r.circuit = "c17";
  r.generations = 1000;
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"schema\":1"), std::string::npos) << json;
  EXPECT_EQ(json.find("islands"), std::string::npos) << json;
  EXPECT_EQ(parse_request(json), r);
}

TEST(RequestSchema, SchemaOneDocumentsParseUnchanged) {
  const SynthesisRequest r = parse_request(
      "{\"schema\":1,\"id\":\"j\",\"circuit\":\"c17\",\"generations\":500}");
  EXPECT_EQ(r.islands, 0u);
  EXPECT_EQ(r.topology, Topology::kRing);
  EXPECT_EQ(r.migration_interval, 0u);
  EXPECT_EQ(r.migration_size, 0u);
}

TEST(RequestSchema, IslandFieldsStampSchemaTwoAndRoundTrip) {
  SynthesisRequest r;
  r.id = "fleet";
  r.circuit = "c17";
  r.islands = 4;
  r.topology = Topology::kStar;
  r.migration_interval = 500;
  r.migration_size = 2;
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"schema\":2"), std::string::npos) << json;
  EXPECT_EQ(parse_request(json), r);
}

TEST(RequestSchema, SchemaTwoDocumentsParseExplicitly) {
  const SynthesisRequest r = parse_request(
      "{\"schema\":2,\"id\":\"j\",\"circuit\":\"c17\",\"islands\":3,"
      "\"topology\":\"full\",\"migration_interval\":200,"
      "\"migration_size\":1}");
  EXPECT_EQ(r.islands, 3u);
  EXPECT_EQ(r.topology, Topology::kFull);
  EXPECT_EQ(r.migration_interval, 200u);
  EXPECT_EQ(r.migration_size, 1u);
}

TEST(RequestSchema, IslandValidationErrors) {
  expect_request_error("{\"schema\":2,\"id\":\"j\",\"circuit\":\"c17\","
                       "\"algorithm\":\"anneal\",\"islands\":4}",
                       "islands");
  expect_request_error("{\"schema\":2,\"id\":\"j\",\"circuit\":\"c17\","
                       "\"migration_interval\":100}",
                       "migration_interval");
  expect_request_error("{\"schema\":2,\"id\":\"j\",\"circuit\":\"c17\","
                       "\"topology\":\"pentagram\",\"islands\":2}",
                       "topology");
}

// Schema 1 had no island fields; N independent lineages were spelled
// "algorithm": "multistart" with "restarts": N.

TEST(RequestSchema, SchemaOneMultistartParsesAsANoneTopologyFleet) {
  const SynthesisRequest r = parse_request(
      "{\"schema\":1,\"id\":\"j\",\"circuit\":\"c17\","
      "\"restarts\":3,\"algorithm\":\"multistart\"}");
  EXPECT_EQ(r.algorithm, Algorithm::kEvolve);
  EXPECT_EQ(r.islands, 3u);
  EXPECT_EQ(r.topology, Topology::kNone);
  // Serialized back in today's spelling, it means the same job.
  EXPECT_EQ(parse_request(to_json(r)), r);
  EXPECT_EQ(parse_request("{\"schema\":1,\"id\":\"j\","
                          "\"circuit\":\"c17\","
                          "\"algorithm\":\"multistart\"}")
                .islands,
            4u);
}

TEST(RequestSchema, RestartsOutsideAMultistartAreIgnored) {
  const SynthesisRequest r = parse_request(
      "{\"schema\":1,\"id\":\"j\",\"circuit\":\"c17\","
      "\"algorithm\":\"anneal\",\"restarts\":3}");
  EXPECT_EQ(r.algorithm, Algorithm::kAnneal);
  EXPECT_EQ(r.islands, 0u);
  EXPECT_EQ(r.topology, Topology::kRing);
}

TEST(RequestSchema, MultistartDoesNotMixWithIslandKeys) {
  expect_request_error("{\"schema\":2,\"id\":\"j\",\"circuit\":\"c17\","
                       "\"algorithm\":\"multistart\",\"islands\":2}",
                       "multistart");
}

TEST(RequestSchema, OptimizerOptionsCarryFleetOptions) {
  SynthesisRequest r;
  r.id = "j";
  r.circuit = "c17";
  r.islands = 3;
  r.topology = Topology::kFull;
  r.migration_interval = 250;
  r.migration_size = 2;
  const OptimizerOptions o = optimizer_options_for(r);
  EXPECT_EQ(o.island.islands, 3u);
  EXPECT_EQ(o.island.topology, Topology::kFull);
  EXPECT_EQ(o.island.migration_interval, 250u);
  EXPECT_EQ(o.island.migration_size, 2u);
}

// ---------- executor expansion ----------

TEST(Request, OptimizerOptionsUseDefaultsForZeroFields) {
  SynthesisRequest r;
  r.id = "j";
  r.circuit = "c17";
  RequestDefaults d;
  d.generations = 777;
  d.seed = 9;
  d.threads = 2;
  const OptimizerOptions o = optimizer_options_for(r, d);
  EXPECT_EQ(o.algorithm, Algorithm::kEvolve);
  EXPECT_EQ(o.evolve.generations, 777u);
  EXPECT_EQ(o.evolve.seed, 9u);
  EXPECT_EQ(o.evolve.threads, 2u);
}

TEST(Request, OptimizerOptionsLayTheRequestOverTheBase) {
  SynthesisRequest r;
  r.id = "j";
  r.circuit = "c17";
  r.algorithm = Algorithm::kAnneal;
  r.generations = 3000;
  r.seed = 11;
  OptimizerOptions base;
  base.evolve.paranoia = robust::ParanoiaLevel::kBoundaries;
  base.evolve.trace_heartbeat = 7;
  base.anneal.trace_heartbeat = 7;
  base.evolve.lambda = 6;
  const OptimizerOptions o = optimizer_options_for(r, {}, base);
  EXPECT_EQ(o.algorithm, Algorithm::kAnneal);
  EXPECT_EQ(o.anneal.steps, 3000u);
  EXPECT_EQ(o.anneal.seed, 11u);
  EXPECT_EQ(o.evolve.seed, 11u);
  EXPECT_EQ(o.evolve.paranoia, robust::ParanoiaLevel::kBoundaries);
  EXPECT_EQ(o.evolve.trace_heartbeat, 7u);
  EXPECT_EQ(o.anneal.trace_heartbeat, 7u);
  EXPECT_EQ(o.evolve.lambda, 6u); // the request leaves lambda unset
}

TEST(Request, OptimizerOptionsRequestOverridesWin) {
  SynthesisRequest r;
  r.id = "j";
  r.circuit = "c17";
  r.generations = 100;
  r.seed = 5;
  r.lambda = 8;
  r.threads = 4;
  r.islands = 6;
  r.topology = Topology::kNone;
  r.deadline_seconds = 1.5;
  r.max_generations = 90;
  r.max_evaluations = 400;
  const OptimizerOptions o = optimizer_options_for(r);
  EXPECT_EQ(o.algorithm, Algorithm::kEvolve);
  EXPECT_EQ(o.evolve.generations, 100u);
  EXPECT_EQ(o.evolve.seed, 5u);
  EXPECT_EQ(o.evolve.lambda, 8u);
  EXPECT_EQ(o.evolve.threads, 4u);
  EXPECT_EQ(o.island.islands, 6u);
  EXPECT_EQ(o.island.topology, Topology::kNone);
  EXPECT_DOUBLE_EQ(o.limits.deadline_seconds, 1.5);
  EXPECT_EQ(o.limits.max_generations, 90u);
  EXPECT_EQ(o.limits.max_evaluations, 400u);
}

TEST(Request, OptimizerOptionsMapEveryCeilingToLimits) {
  SynthesisRequest r;
  r.id = "j";
  r.circuit = "c17";
  r.deadline_seconds = 2.5;
  r.max_generations = 90;
  r.max_evaluations = 400;
  r.stagnation_limit = 70;
  const OptimizerOptions o = optimizer_options_for(r);
  EXPECT_DOUBLE_EQ(o.limits.deadline_seconds, 2.5);
  EXPECT_EQ(o.limits.max_generations, 90u);
  EXPECT_EQ(o.limits.max_evaluations, 400u);
  EXPECT_EQ(o.limits.stagnation_limit, 70u);
  // Laid over a loop's own budget, the request's ceiling wins.
  EXPECT_EQ(robust::overlay(o.evolve.budget, o.limits).stagnation_limit, 70u);
}

// ---------- response JSON round trip ----------

TEST(Response, SuccessRoundTrips) {
  SynthesisResponse r;
  r.id = "j1";
  r.ok = true;
  r.verified = true;
  r.cached = true;
  r.stop_reason = "completed";
  r.cost.n_r = 3;
  r.cost.jjs = 72;
  r.seconds = 0.25;
  r.netlist = ".rqfp 1\n.pis 1 a\n.pos 1\npo 1 y\n.end\n";
  EXPECT_EQ(parse_response(to_json(r)), r);
}

TEST(Response, FailureRoundTrips) {
  SynthesisResponse r;
  r.id = "bad";
  r.ok = false;
  r.error = "result failed verification";
  r.stop_reason = "error";
  EXPECT_EQ(parse_response(to_json(r)), r);
}

TEST(Response, ParseRejectsGarbageWithContext) {
  try {
    parse_response("{\"nope\":1}", "sock", 7);
    FAIL() << "expected io::ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("response:sock:7:"),
              std::string::npos)
        << e.what();
  }
}

TEST(Response, EncodedBytesArePinned) {
  // The line the ostringstream/snprintf encoders wrote for this response.
  SynthesisResponse r;
  r.id = "hit-1";
  r.ok = true;
  r.cached = true;
  r.verified = true;
  r.stop_reason = "completed";
  r.cost.n_r = 7;
  r.cost.n_b = 3;
  r.cost.jjs = 120;
  r.cost.n_d = 4;
  r.cost.n_g = 5;
  r.seconds = 2.3456e-5;
  r.netlist = ".rqfp 1\n.pis 2\n.pos 1\ngate 1 2 0 000-000-000\npo 3 \n.end\n";
  const std::string line = to_json(r);
  EXPECT_EQ(line,
            "{\"schema\":1,\"id\":\"hit-1\",\"ok\":true,\"cached\":true,"
            "\"stop_reason\":\"completed\",\"verified\":true,\"n_r\":7,"
            "\"n_b\":3,\"jjs\":120,\"n_d\":4,\"n_g\":5,\"seconds\":2.3456e-05,"
            "\"netlist\":\".rqfp 1\\n.pis 2\\n.pos 1\\ngate 1 2 0 "
            "000-000-000\\npo 3 \\n.end\\n\"}");
  EXPECT_EQ(parse_response(line), r);
}

TEST(Request, DuplicateAndUnknownKeyErrorsKeepTheirMessages) {
  const auto message = [](const auto& parse) {
    try {
      parse();
    } catch (const io::ParseError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const auto request = [&](const char* line) {
    return message([&] { parse_request(line, "socket", 3, "serve"); });
  };
  const auto response = [&](const char* line) {
    return message([&] { parse_response(line, "socket", 4); });
  };
  EXPECT_EQ(request(R"({"schema":1,"id":"a","circuit":"c17","id":"b"})"),
            "serve:socket:3: duplicate key \"id\"");
  EXPECT_EQ(request(R"({"schema":1,"id":"a","circuit":"c17","frob":1})"),
            "serve:socket:3: unknown key \"frob\"");
  EXPECT_EQ(request(R"({"schema":1,"frob":1,"frob":1})"),
            "serve:socket:3: unknown key \"frob\"");
  EXPECT_EQ(request(R"({"seed":1,"schema":1,"id":"a","seed":2})"),
            "serve:socket:3: duplicate key \"seed\"");
  EXPECT_EQ(response(R"({"schema":1,"id":"a","ok":true,"ok":false})"),
            "response:socket:4: duplicate key \"ok\"");
  EXPECT_EQ(response(R"({"schema":1,"id":"a","nope":1})"),
            "response:socket:4: unknown key \"nope\"");
}

// ---------- integers are exact or rejected ----------
//
// JSON numbers are doubles. A value that cannot be read back exactly, or
// that does not fit the field it fills, is a ParseError naming the key —
// never a silently different job.

TEST(RequestIntegers, ValuesFromTwoToThe53AreRejected) {
  // 2^53 + 1 reads as the double 2^53: the seed would silently change.
  expect_request_error("{\"schema\":1,\"id\":\"j\",\"circuit\":\"c17\","
                       "\"seed\":9007199254740993}",
                       "\"seed\"");
  expect_request_error("{\"schema\":1,\"id\":\"j\",\"circuit\":\"c17\","
                       "\"generations\":9007199254740992}",
                       "\"generations\"");
  EXPECT_EQ(parse_request("{\"schema\":1,\"id\":\"j\",\"circuit\":\"c17\","
                          "\"seed\":9007199254740991}")
                .seed,
            kMaxRequestInteger);
}

TEST(RequestIntegers, ValuesFromTwoToThe64AreRejected) {
  expect_request_error("{\"schema\":1,\"id\":\"j\",\"circuit\":\"c17\","
                       "\"max_evaluations\":18446744073709551616}",
                       "\"max_evaluations\"");
  expect_request_error("{\"schema\":1,\"id\":\"j\",\"circuit\":\"c17\","
                       "\"stagnation_limit\":1e300}",
                       "\"stagnation_limit\"");
}

TEST(RequestIntegers, NarrowFieldsRejectValuesThatDoNotFit) {
  // Each used to wrap: 2^32 + 2 islands ran 2, 2^31 retries became -2^31
  // ("executor default").
  for (const std::string field :
       {"\"islands\":4294967298", "\"lambda\":4294967296",
        "\"threads\":4294967296", "\"migration_size\":4294967296",
        "\"retries\":2147483648"}) {
    expect_request_error(
        "{\"schema\":2,\"id\":\"j\",\"circuit\":\"c17\"," + field + "}",
        field.substr(0, field.find(':')));
  }
  EXPECT_EQ(parse_request("{\"schema\":1,\"id\":\"j\",\"circuit\":\"c17\","
                          "\"retries\":2147483647}")
                .retries,
            2147483647);
}

TEST(RequestIntegers, ResponseCostFieldsRejectValuesThatDoNotFit) {
  try {
    parse_response("{\"schema\":1,\"id\":\"j\",\"n_r\":4294967296}");
    FAIL() << "expected io::ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("\"n_r\""), std::string::npos)
        << e.what();
  }
}

TEST(RequestIntegers, ValidationRejectsInCodeValuesThatCannotRoundTrip) {
  SynthesisRequest r;
  r.id = "j";
  r.circuit = "c17";
  r.seed = kMaxRequestInteger;
  validate_request(r);
  EXPECT_EQ(parse_request(to_json(r)), r);
  r.seed = kMaxRequestInteger + 1;
  try {
    validate_request(r);
    FAIL() << "expected io::ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("\"seed\""), std::string::npos)
        << e.what();
  }
}

} // namespace
} // namespace rcgp::core
