#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/report.hpp"
#include "obs/snapshot.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace rcgp::obs {
namespace {

// ---------------------------------------------------------------------------
// JSON writer / validator

TEST(Json, EscapeSpecials) {
  EXPECT_EQ(json::escape("plain"), "plain");
  EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json::escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json::escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(Json, WriterProducesValidDocument) {
  json::Writer w;
  w.begin_object()
      .field("name", "rcgp")
      .field("count", std::uint64_t{42})
      .field("rate", 0.5)
      .field("ok", true)
      .key("inner")
      .begin_object()
      .field("neg", -3)
      .end_object()
      .key("list")
      .begin_array()
      .value(1)
      .value(2)
      .end_array()
      .key("missing")
      .null()
      .end_object();
  ASSERT_TRUE(w.complete());
  EXPECT_TRUE(json::validate(w.str()));
  EXPECT_EQ(w.str(),
            "{\"name\":\"rcgp\",\"count\":42,\"rate\":0.5,\"ok\":true,"
            "\"inner\":{\"neg\":-3},\"list\":[1,2],\"missing\":null}");
}

TEST(Json, NonFiniteDoublesBecomeNull) {
  json::Writer w;
  w.begin_object()
      .field("inf", std::numeric_limits<double>::infinity())
      .field("nan", std::numeric_limits<double>::quiet_NaN())
      .end_object();
  EXPECT_TRUE(json::validate(w.str()));
  EXPECT_EQ(w.str(), "{\"inf\":null,\"nan\":null}");
}

TEST(Json, WriterBytesArePinned) {
  // The bytes the snprintf/ostringstream writer printed for this document:
  // escapes, every control character, raw high bytes, "%.17g" doubles and
  // 64-bit integers.
  std::string ctl;
  for (int c = 1; c < 0x20; ++c) {
    ctl += static_cast<char>(c);
  }
  json::Writer w;
  w.begin_object()
      .field("quote\"back\\slash", "tab\tnl\nret\rbs\bff\f/")
      .field("ctl", std::string_view(ctl))
      .field("nul", std::string_view("a\0b", 3))
      .field("high", "caf\xc3\xa9 \x7f")
      .key("doubles")
      .begin_array()
      .value(0.1)
      .value(1.0 / 3.0)
      .value(1e-300)
      .value(5e-324)
      .value(1.7976931348623157e308)
      .value(-2.5)
      .value(0.0)
      .value(-0.0)
      .value(1e21)
      .value(123456789012345678.0)
      .value(1e-5)
      .value(0.000123)
      .value(std::nan(""))
      .value(std::numeric_limits<double>::infinity())
      .value(-std::numeric_limits<double>::infinity())
      .end_array()
      .key("ints")
      .begin_array()
      .value(std::numeric_limits<std::uint64_t>::max())
      .value(std::numeric_limits<std::int64_t>::min())
      .value(std::numeric_limits<std::int64_t>::max())
      .value(std::uint64_t{0})
      .value(-1)
      .value(42u)
      .end_array()
      .key("empty")
      .begin_object()
      .end_object()
      .key("nested")
      .begin_array()
      .begin_array()
      .end_array()
      .null()
      .value(true)
      .value(false)
      .end_array()
      .end_object();
  EXPECT_EQ(
      w.str(),
      "{\"quote\\\"back\\\\slash\":\"tab\\tnl\\nret\\rbs\\bff\\f/\",\"ctl\":"
      "\"\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\b\\t\\n\\u000b\\f"
      "\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016"
      "\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\","
      "\"nul\":\"a\\u0000b\",\"high\":\"caf\xc3\xa9 \x7f\",\"doubles\":["
      "0.10000000000000001,0.33333333333333331,1e-300,"
      "4.9406564584124654e-324,1.7976931348623157e+308,-2.5,0,-0,1e+21,"
      "1.2345678901234568e+17,1.0000000000000001e-05,0.00012300000000000001,"
      "null,null,null],\"ints\":[18446744073709551615,-9223372036854775808,"
      "9223372036854775807,0,-1,42],\"empty\":{},\"nested\":[[],null,true,"
      "false]}");
  EXPECT_TRUE(json::validate(w.str()));
}

TEST(Json, DoublesPrintAsPercent17g) {
  // Every bit pattern class (subnormals, huge, NaN payloads) and decimal
  // values of the kind timings and rates take.
  util::Rng rng(17);
  for (int i = 0; i < 200000; ++i) {
    double v = 0.0;
    if (i % 2 == 0) {
      const std::uint64_t bits = rng.next();
      std::memcpy(&v, &bits, sizeof(v));
    } else {
      v = static_cast<double>(rng.below(1000000)) *
          std::pow(10.0, static_cast<int>(rng.below(40)) - 20);
    }
    char expected[40];
    std::snprintf(expected, sizeof(expected), "%.17g", v);
    json::Writer w;
    w.value(v);
    ASSERT_EQ(w.str(), std::isfinite(v) ? expected : "null") << expected;
  }
}

TEST(Json, ParseDecodesEscapesBetweenRuns) {
  const std::string doc =
      "\"run one\\nrun \\\"two\\\"\\t\\u0041\\u00e9\\u20ac\\\\/\\/end\"";
  const auto v = json::parse(doc);
  ASSERT_TRUE(v && v->is_string());
  EXPECT_EQ(v->as_string(),
            "run one\nrun \"two\"\tA\xe9?\\//end");
  json::Writer w;
  w.value(v->as_string());
  EXPECT_EQ(json::parse(w.str())->as_string(), v->as_string());
}

TEST(Json, ValidateAcceptsWellFormed) {
  EXPECT_TRUE(json::validate("{}"));
  EXPECT_TRUE(json::validate("[]"));
  EXPECT_TRUE(json::validate("  {\"a\": [1, 2.5, -3e4], \"b\": null} "));
  EXPECT_TRUE(json::validate("\"just a string\""));
  EXPECT_TRUE(json::validate("true"));
  EXPECT_TRUE(json::validate("-0.5"));
}

TEST(Json, ValidateRejectsMalformed) {
  EXPECT_FALSE(json::validate(""));
  EXPECT_FALSE(json::validate("{"));
  EXPECT_FALSE(json::validate("{\"a\":}"));
  EXPECT_FALSE(json::validate("{\"a\":1,}"));
  EXPECT_FALSE(json::validate("[1 2]"));
  EXPECT_FALSE(json::validate("{} extra"));
  EXPECT_FALSE(json::validate("{\"unterminated"));
  EXPECT_FALSE(json::validate("nul"));
}

TEST(Json, FieldExtractors) {
  const std::string doc =
      "{\"event\":\"improvement\",\"gen\":1234,\"rate\":0.75,"
      "\"msg\":\"a\\\"b\"}";
  ASSERT_TRUE(json::validate(doc));
  EXPECT_EQ(json::number_field(doc, "gen"), 1234.0);
  EXPECT_EQ(json::number_field(doc, "rate"), 0.75);
  EXPECT_FALSE(json::number_field(doc, "absent").has_value());
  EXPECT_EQ(json::string_field(doc, "event"), "improvement");
  EXPECT_EQ(json::string_field(doc, "msg"), "a\"b");
}

// ---------------------------------------------------------------------------
// Metrics registry

TEST(Metrics, CounterIncrementsAndSameNameSameObject) {
  Counter& a = registry().counter("test.obs.counter_a");
  Counter& b = registry().counter("test.obs.counter_a");
  EXPECT_EQ(&a, &b);
  a.reset();
  a.inc();
  a.inc(9);
  EXPECT_EQ(b.value(), 10u);
}

TEST(Metrics, GaugeSetAddReset) {
  Gauge& g = registry().gauge("test.obs.gauge_a");
  g.reset();
  g.set(1.5);
  g.add(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Metrics, HistogramBucketingIncludesBoundaries) {
  const double bounds[] = {1.0, 10.0, 100.0};
  Histogram& h = registry().histogram("test.obs.hist_a", bounds);
  h.reset();
  // Bound values are inclusive upper limits: 1.0 lands in the first bucket.
  h.observe(0.5);
  h.observe(1.0);
  h.observe(5.0);
  h.observe(10.0);
  h.observe(100.0);
  h.observe(1e9); // overflow bucket
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 5.0 + 10.0 + 100.0 + 1e9);
  ASSERT_EQ(h.num_buckets(), 4u); // 3 bounds + inf
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
}

TEST(Metrics, HistogramFirstRegistrationBoundsWin) {
  const double first[] = {1.0, 2.0};
  const double second[] = {5.0};
  Histogram& a = registry().histogram("test.obs.hist_b", first);
  Histogram& b = registry().histogram("test.obs.hist_b", second);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.bounds().size(), 2u);
}

TEST(Metrics, ToJsonIsValidAndCarriesValues) {
  registry().counter("test.obs.json_counter").reset();
  registry().counter("test.obs.json_counter").inc(7);
  const std::string doc = registry().to_json();
  ASSERT_TRUE(json::validate(doc));
  EXPECT_EQ(json::number_field(doc, "test.obs.json_counter"), 7.0);
}

TEST(Metrics, ResetValuesKeepsAddressesZeroesValues) {
  Counter& c = registry().counter("test.obs.reset_counter");
  c.inc(3);
  registry().reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&c, &registry().counter("test.obs.reset_counter"));
}

TEST(Metrics, CounterIsThreadSafe) {
  Counter& c = registry().counter("test.obs.mt_counter");
  c.reset();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) {
        c.inc();
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(c.value(), 40000u);
}

// ---------------------------------------------------------------------------
// Phase timers

TEST(Phase, NestedTimersReportPathsAndDepths) {
  PhaseCollector collector;
  {
    PhaseSpan outer("outer");
    EXPECT_EQ(outer.path(), "outer");
    EXPECT_EQ(outer.depth(), 0);
    {
      PhaseSpan inner("inner");
      EXPECT_EQ(inner.path(), "outer/inner");
      EXPECT_EQ(inner.depth(), 1);
    }
  }
  {
    PhaseSpan second("second");
    EXPECT_EQ(second.depth(), 0);
  }
  const auto& recs = collector.records();
  ASSERT_EQ(recs.size(), 3u);
  // Inner destructs first, so records are completion-ordered.
  EXPECT_EQ(recs[0].path, "outer/inner");
  EXPECT_EQ(recs[0].depth, 1);
  EXPECT_EQ(recs[1].path, "outer");
  EXPECT_EQ(recs[1].depth, 0);
  EXPECT_EQ(recs[2].path, "second");
  EXPECT_GE(recs[1].seconds, recs[0].seconds);
  EXPECT_DOUBLE_EQ(collector.top_level_seconds(),
                   recs[1].seconds + recs[2].seconds);
}

TEST(Phase, CollectorsNestAndRestore) {
  PhaseCollector outer_collector;
  { PhaseSpan t("before"); }
  {
    PhaseCollector inner_collector;
    { PhaseSpan t("inside"); }
    ASSERT_EQ(inner_collector.records().size(), 1u);
    EXPECT_EQ(inner_collector.records()[0].path, "inside");
  }
  { PhaseSpan t("after"); }
  ASSERT_EQ(outer_collector.records().size(), 2u);
  EXPECT_EQ(outer_collector.records()[0].path, "before");
  EXPECT_EQ(outer_collector.records()[1].path, "after");
}

TEST(Phase, TimerFeedsRegistryGauge) {
  Gauge& g = registry().gauge("phase_seconds{test-phase}");
  g.reset();
  { PhaseSpan t("test-phase"); }
  EXPECT_GT(g.value(), 0.0);
}

// ---------------------------------------------------------------------------
// Trace sink

std::vector<std::string> lines_of(const std::string& buffer) {
  std::vector<std::string> lines;
  std::istringstream in(buffer);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

TEST(Trace, MemorySinkEmitsOneValidJsonPerLine) {
  auto sink = TraceSink::memory();
  ASSERT_NE(sink, nullptr);
  sink->event("alpha").field("x", 1).field("note", "a\"quote");
  sink->event("beta").field("rate", 0.25);
  {
    auto ev = sink->event("gamma");
    ev.begin("nested").field("inner", 2).end();
  }
  EXPECT_EQ(sink->lines_written(), 3u);
  const auto lines = lines_of(sink->buffer());
  ASSERT_EQ(lines.size(), 3u);
  for (const auto& line : lines) {
    EXPECT_TRUE(json::validate(line)) << line;
  }
  EXPECT_EQ(json::string_field(lines[0], "event"), "alpha");
  EXPECT_EQ(json::number_field(lines[0], "seq"), 0.0);
  EXPECT_EQ(json::number_field(lines[1], "seq"), 1.0);
  EXPECT_EQ(json::string_field(lines[0], "note"), "a\"quote");
  EXPECT_EQ(json::number_field(lines[2], "inner"), 2.0);
}

TEST(Trace, FileSinkRoundTrips) {
  const std::string path = ::testing::TempDir() + "rcgp_trace_test.jsonl";
  {
    auto sink = TraceSink::open(path);
    ASSERT_NE(sink, nullptr);
    sink->event("one").field("v", 1);
    sink->event("two").field("v", 2);
    sink->flush();
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content(4096, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  const auto lines = lines_of(content);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_TRUE(json::validate(lines[0]));
  EXPECT_TRUE(json::validate(lines[1]));
  EXPECT_EQ(json::string_field(lines[1], "event"), "two");
  std::remove(path.c_str());
}

TEST(Trace, OpenFailureReturnsNull) {
  EXPECT_EQ(TraceSink::open("/nonexistent-dir/trace.jsonl"), nullptr);
}

TEST(Trace, AttachToLogRoutesMessages) {
  const util::LogLevel saved = util::log_level();
  {
    auto sink = TraceSink::memory();
    sink->attach_to_log();
    util::set_log_level(util::LogLevel::kInfo);
    util::log_info("hello from the test");
    util::log_debug("below threshold, not routed");
    const auto lines = lines_of(sink->buffer());
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_TRUE(json::validate(lines[0]));
    EXPECT_EQ(json::string_field(lines[0], "event"), "log");
    EXPECT_EQ(json::string_field(lines[0], "level"), "INFO");
    EXPECT_EQ(json::string_field(lines[0], "message"), "hello from the test");
    const auto ts = json::string_field(lines[0], "ts");
    ASSERT_TRUE(ts.has_value());
    EXPECT_EQ(ts->size(), 24u); // 2026-08-05T12:00:00.000Z
    EXPECT_EQ((*ts)[10], 'T');
    EXPECT_EQ(ts->back(), 'Z');
  }
  // Sink destruction detaches the hook; logging must not crash afterwards.
  util::log_info("after detach");
  util::set_log_level(saved);
}

TEST(Trace, Iso8601TimestampShape) {
  const std::string ts = util::iso8601_utc_now();
  ASSERT_EQ(ts.size(), 24u);
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[7], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts[13], ':');
  EXPECT_EQ(ts[19], '.');
  EXPECT_EQ(ts[23], 'Z');
}

TEST(Trace, EventsCarryMonotonicTms) {
  auto sink = TraceSink::memory();
  sink->event("first").field("v", 1);
  sink->event("second").field("v", 2);
  const auto lines = lines_of(sink->buffer());
  ASSERT_EQ(lines.size(), 2u);
  const auto t0 = json::number_field(lines[0], "t_ms");
  const auto t1 = json::number_field(lines[1], "t_ms");
  ASSERT_TRUE(t0.has_value());
  ASSERT_TRUE(t1.has_value());
  EXPECT_GE(*t0, 0.0);
  EXPECT_GE(*t1, *t0);
  // Same timebase as the span profiler (microseconds vs milliseconds).
  EXPECT_LE(*t1, static_cast<double>(profile_now_us()) / 1000.0 + 1.0);
}

// ---------------------------------------------------------------------------
// JSON value parser (the read side used by `rcgp report`)

TEST(Json, ParseMaterializesValues) {
  const auto doc = json::parse(
      "{\"name\":\"x\",\"n\":-2.5,\"ok\":true,\"none\":null,"
      "\"list\":[1,\"two\",{\"k\":3}]}");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->string_or("name", ""), "x");
  EXPECT_DOUBLE_EQ(doc->number_or("n", 0), -2.5);
  const json::Value* ok = doc->find("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_TRUE(ok->as_bool());
  EXPECT_EQ(doc->find("none")->kind(), json::Value::Kind::kNull);
  const json::Value* list = doc->find("list");
  ASSERT_NE(list, nullptr);
  ASSERT_TRUE(list->is_array());
  ASSERT_EQ(list->items().size(), 3u);
  EXPECT_DOUBLE_EQ(list->items()[0].as_number(), 1.0);
  EXPECT_EQ(list->items()[1].as_string(), "two");
  EXPECT_DOUBLE_EQ(list->items()[2].number_or("k", 0), 3.0);
  // Defaults when absent or type-mismatched.
  EXPECT_DOUBLE_EQ(doc->number_or("absent", 9.0), 9.0);
  EXPECT_EQ(doc->string_or("n", "fallback"), "fallback");
}

TEST(Json, ParseDecodesEscapes) {
  const auto doc = json::parse("{\"s\":\"a\\\"b\\\\c\\n\\t\\u0041\"}");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string_or("s", ""), "a\"b\\c\n\tA");
}

TEST(Json, ParseRejectsMalformed) {
  EXPECT_FALSE(json::parse("").has_value());
  EXPECT_FALSE(json::parse("{\"a\":}").has_value());
  EXPECT_FALSE(json::parse("[1 2]").has_value());
  EXPECT_FALSE(json::parse("{} extra").has_value());
}

// ---------------------------------------------------------------------------
// Histogram quantiles

TEST(Metrics, QuantileInterpolatesUniformDistribution) {
  // 1..100 over decade-wide buckets: 10 observations per bucket, so the
  // interpolated quantiles land on exact values.
  const double bounds[] = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  Histogram& h = registry().histogram("test.obs.quantile_uniform", bounds);
  h.reset();
  for (int v = 1; v <= 100; ++v) {
    h.observe(static_cast<double>(v));
  }
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 95.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0); // first bucket starts at 0
}

TEST(Metrics, QuantileEdgeCases) {
  const double bounds[] = {1.0, 2.0};
  Histogram& h = registry().histogram("test.obs.quantile_edges", bounds);
  h.reset();
  EXPECT_TRUE(std::isnan(h.quantile(0.5))); // empty
  h.observe(100.0);                         // overflow bucket only
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);   // clamps to the largest bound

  // The free function, straight from exported bucket data.
  const double b2[] = {10.0, 20.0};
  const std::uint64_t counts[] = {4, 4, 0};
  EXPECT_DOUBLE_EQ(quantile_from_buckets(b2, counts, 0.25), 5.0);
  EXPECT_DOUBLE_EQ(quantile_from_buckets(b2, counts, 0.75), 15.0);
  const std::uint64_t empty[] = {0, 0, 0};
  EXPECT_TRUE(std::isnan(quantile_from_buckets(b2, empty, 0.5)));
}

// ---------------------------------------------------------------------------
// Prometheus exposition

TEST(Metrics, PrometheusExpositionShape) {
  registry().counter("test.obs.prom_counter").reset();
  registry().counter("test.obs.prom_counter").inc(5);
  registry().gauge("phase_seconds{prom-test}").set(1.25);
  const double bounds[] = {1.0, 2.0};
  Histogram& h = registry().histogram("test.obs.prom_hist", bounds);
  h.reset();
  h.observe(0.5);
  h.observe(1.5);
  h.observe(99.0);

  const std::string text = registry().to_prometheus();
  EXPECT_NE(text.find("# TYPE rcgp_test_obs_prom_counter counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("rcgp_test_obs_prom_counter 5\n"), std::string::npos);
  // `base{x}` gauges become labeled families.
  EXPECT_NE(text.find("rcgp_phase_seconds{phase=\"prom-test\"} 1.25\n"),
            std::string::npos);
  // Histogram buckets are cumulative and the +Inf bucket equals _count.
  EXPECT_NE(text.find("rcgp_test_obs_prom_hist_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("rcgp_test_obs_prom_hist_bucket{le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("rcgp_test_obs_prom_hist_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("rcgp_test_obs_prom_hist_count 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rcgp_test_obs_prom_hist histogram\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Span profiler

TEST(Span, DisabledSpansAreInert) {
  set_profiling_enabled(false);
  reset_profile();
  {
    Span s("inert");
    EXPECT_FALSE(s.active());
    s.arg("k", std::uint64_t{1}); // must not crash or record
  }
  EXPECT_TRUE(profile_spans().empty());
  EXPECT_EQ(current_span_id(), 0u);
}

TEST(Span, RecordsNestingAndParents) {
  reset_profile();
  set_profiling_enabled(true);
  {
    Span outer("outer-span");
    EXPECT_TRUE(outer.active());
    EXPECT_NE(current_span_id(), 0u);
    {
      Span inner("inner-span");
      inner.arg("k", std::uint64_t{7});
    }
  }
  set_profiling_enabled(false);
  const auto spans = profile_spans();
  const SpanRecord* outer = nullptr;
  const SpanRecord* inner = nullptr;
  for (const auto& s : spans) {
    if (s.name == "outer-span") {
      outer = &s;
    } else if (s.name == "inner-span") {
      inner = &s;
    }
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->tid, outer->tid);
  // The child is contained in the parent (same clock, measured inside).
  EXPECT_GE(inner->start_us, outer->start_us);
  EXPECT_LE(inner->start_us + inner->dur_us,
            outer->start_us + outer->dur_us);
  EXPECT_EQ(inner->args_json, "\"k\":7");
  reset_profile();
}

TEST(Span, ChromeTraceJsonIsValidAndCarriesSpans) {
  reset_profile();
  set_thread_name("obs-test-thread");
  set_profiling_enabled(true);
  {
    Span s("chrome-span");
    s.arg("label", "value");
  }
  set_profiling_enabled(false);
  const std::string doc_text = chrome_trace_json();
  const auto doc = json::parse(doc_text);
  ASSERT_TRUE(doc.has_value()) << doc_text;
  const json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool saw_span = false;
  bool saw_thread_name = false;
  for (const auto& ev : events->items()) {
    const std::string ph = ev.string_or("ph", "");
    if (ph == "X" && ev.string_or("name", "") == "chrome-span") {
      saw_span = true;
      EXPECT_GE(ev.number_or("ts", -1), 0.0);
      EXPECT_GE(ev.number_or("dur", -1), 0.0);
      const json::Value* args = ev.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->string_or("label", ""), "value");
      EXPECT_GT(args->number_or("span_id", 0), 0.0);
    }
    if (ph == "M" && ev.string_or("name", "") == "thread_name" &&
        ev.find("args")->string_or("name", "") == "obs-test-thread") {
      saw_thread_name = true;
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_thread_name);
  reset_profile();
}

// ---------------------------------------------------------------------------
// Periodic metrics snapshots

TEST(Snapshot, PeriodicWriterProducesValidSnapshots) {
  const std::string json_path = ::testing::TempDir() + "rcgp_snap_test.json";
  const std::string prom_path = ::testing::TempDir() + "rcgp_snap_test.prom";
  registry().counter("test.obs.snapshot_counter").inc();
  {
    MetricsSnapshotter snap({json_path, prom_path, 0.02});
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    EXPECT_GE(snap.snapshots_written(), 1u);
  } // destructor writes a final snapshot of both paths
  std::ifstream json_in(json_path);
  std::stringstream json_buf;
  json_buf << json_in.rdbuf();
  EXPECT_TRUE(json::validate(json_buf.str())) << json_buf.str();
  std::ifstream prom_in(prom_path);
  std::stringstream prom_buf;
  prom_buf << prom_in.rdbuf();
  EXPECT_NE(prom_buf.str().find("# TYPE"), std::string::npos);
  std::remove(json_path.c_str());
  std::remove(prom_path.c_str());
}

TEST(Snapshot, DisabledWhenIntervalZero) {
  MetricsSnapshotter snap({"", "", 0.0});
  EXPECT_EQ(snap.snapshots_written(), 0u);
}

// ---------------------------------------------------------------------------
// Run report

TEST(Report, RendersAllThreeSections) {
  const std::string dir = ::testing::TempDir();
  const std::string profile_path = dir + "rcgp_report_profile.json";
  const std::string trace_path = dir + "rcgp_report_trace.jsonl";
  const std::string metrics_path = dir + "rcgp_report_metrics.json";

  reset_profile();
  set_profiling_enabled(true);
  {
    Span outer("report-outer");
    Span inner("report-inner");
  }
  set_profiling_enabled(false);
  ASSERT_TRUE(write_chrome_trace(profile_path));
  reset_profile();

  std::ofstream trace(trace_path);
  trace << "{\"event\":\"run_start\",\"seq\":0,\"t_ms\":0.1}\n"
        << "{\"event\":\"improvement\",\"seq\":1,\"t_ms\":0.2,\"gen\":10,"
           "\"n_r\":7,\"n_g\":9,\"n_b\":4}\n"
        << "{\"event\":\"improvement\",\"seq\":2,\"t_ms\":0.5,\"gen\":500,"
           "\"n_r\":7,\"n_g\":8,\"n_b\":4}\n"
        << "{\"event\":\"run_end\",\"seq\":3,\"t_ms\":0.9,\"reason\":"
           "\"completed\",\"generations_run\":1000,\"evaluations\":4000,"
           "\"improvements\":2,\"elapsed_s\":0.5}\n";
  trace.close();
  ASSERT_TRUE(registry().write_json(metrics_path));

  const std::string report =
      run_report({profile_path, trace_path, metrics_path});
  EXPECT_NE(report.find("rcgp run report"), std::string::npos);
  EXPECT_NE(report.find("report-outer"), std::string::npos);
  EXPECT_NE(report.find("report-inner"), std::string::npos);
  EXPECT_NE(report.find("improvement"), std::string::npos);
  EXPECT_NE(report.find("reason=completed"), std::string::npos);
  EXPECT_NE(report.find("-- metrics:"), std::string::npos);

  std::remove(profile_path.c_str());
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

TEST(Report, ServiceSectionReadsADaemonsMetrics) {
  // The registry shape `rcgp serve --metrics-out` writes: 40 requests, 1
  // error, 24 of 32 lookups hit.
  const std::string path =
      ::testing::TempDir() + "rcgp_report_serve_metrics.json";
  std::ofstream(path)
      << "{\"counters\":{\"cache.hits\":24,\"cache.lookups\":32,"
         "\"cache.misses\":8,\"serve.errors\":1,\"serve.requests\":40},"
         "\"gauges\":{},\"histograms\":{"
         "\"cache.hit.seconds\":{\"count\":30,\"sum\":0.0006,\"buckets\":["
         "{\"le\":1e-06,\"count\":0},{\"le\":1e-05,\"count\":20},"
         "{\"le\":0.0001,\"count\":10},{\"count\":0}]},"
         "\"serve.request.seconds\":{\"count\":40,\"sum\":0.05,\"buckets\":["
         "{\"le\":0.0001,\"count\":30},{\"le\":0.001,\"count\":0},"
         "{\"le\":0.01,\"count\":10},{\"count\":0}]}}}";
  const std::string report = run_report({"", "", path});
  EXPECT_NE(report.find("service:"), std::string::npos) << report;
  EXPECT_NE(report.find("requests            40 (1 errors)"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("cache hit share     75.0% (24 of 32 lookups)"),
            std::string::npos)
      << report;
  // Request p50: rank 20 of the 30 in (0, 100us] -> 67us; p90: rank 36,
  // the 6th of 10 in (1ms, 10ms] -> 6.40ms. Hit p50: rank 15 of the 20 in
  // (1us, 10us] -> 7.75us; p90: rank 27, the 7th of 10 in (10us, 100us]
  // -> 73us.
  EXPECT_NE(report.find("request latency     p50 67us  p90 6.40ms  "
                        "(serve.request.seconds)"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("hit latency         p50 8us  p90 73us  "
                        "(cache.hit.seconds)"),
            std::string::npos)
      << report;
  std::remove(path.c_str());

  // A run that served nothing shows no service section.
  std::ofstream(path) << "{\"counters\":{\"cache.lookups\":3}}";
  EXPECT_EQ(run_report({"", "", path}).find("service:"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Report, ThrowsOnMissingOrMalformedInput) {
  EXPECT_THROW(run_report({"/nonexistent/profile.json", "", ""}),
               std::runtime_error);
  const std::string bad = ::testing::TempDir() + "rcgp_report_bad.json";
  std::ofstream(bad) << "this is not json";
  EXPECT_THROW(run_report({bad, "", ""}), std::runtime_error);
  std::remove(bad.c_str());
  EXPECT_THROW(run_report({"", "", ""}), std::invalid_argument);
}

} // namespace
} // namespace rcgp::obs
