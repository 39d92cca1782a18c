#include "obs/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace rcgp::obs {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("report: cannot read " + path);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

std::string fmt_seconds(double s) {
  char buf[32];
  if (s >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fs", s);
  } else if (s >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fus", s * 1e6);
  }
  return buf;
}

/// Exact quantile over raw values (profile spans carry real durations, so
/// no bucket interpolation is needed there).
double exact_quantile(std::vector<double>& values, double q) {
  if (values.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// ---------------------------------------------------------------------------
// Profile section (Chrome trace-event JSON)

struct ProfSpan {
  std::string name;
  double ts = 0.0;  // µs
  double dur = 0.0; // µs
  std::uint64_t tid = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
};

struct PathAgg {
  double total_us = 0.0;
  std::uint64_t count = 0;
  int depth = 0;
};

void report_profile(std::string& out, const std::string& path) {
  const auto doc = json::parse(read_file(path));
  if (!doc || !doc->is_object()) {
    throw std::runtime_error("report: " + path + " is not a JSON object");
  }
  const json::Value* events = doc->find("traceEvents");
  if (!events || !events->is_array()) {
    throw std::runtime_error("report: " + path + " has no traceEvents");
  }

  std::vector<ProfSpan> spans;
  std::map<std::uint64_t, std::string> thread_names;
  for (const auto& ev : events->items()) {
    if (!ev.is_object()) {
      continue;
    }
    const std::string ph = ev.string_or("ph", "");
    if (ph == "M" && ev.string_or("name", "") == "thread_name") {
      if (const json::Value* args = ev.find("args")) {
        thread_names[static_cast<std::uint64_t>(ev.number_or("tid", 0))] =
            args->string_or("name", "");
      }
      continue;
    }
    if (ph != "X") {
      continue;
    }
    ProfSpan s;
    s.name = ev.string_or("name", "?");
    s.ts = ev.number_or("ts", 0.0);
    s.dur = ev.number_or("dur", 0.0);
    s.tid = static_cast<std::uint64_t>(ev.number_or("tid", 0));
    if (const json::Value* args = ev.find("args")) {
      s.id = static_cast<std::uint64_t>(args->number_or("span_id", 0));
      s.parent = static_cast<std::uint64_t>(args->number_or("span_parent", 0));
    }
    spans.push_back(std::move(s));
  }
  appendf(out, "-- profile: %s --\n", path.c_str());
  if (spans.empty()) {
    out += "  (no spans recorded)\n\n";
    return;
  }

  // Name paths: walk each span's parent chain ("flow root" spans have
  // parent 0). The tree aggregates time and count per path.
  std::map<std::uint64_t, const ProfSpan*> by_id;
  for (const auto& s : spans) {
    by_id[s.id] = &s;
  }
  std::map<std::uint64_t, std::string> path_cache;
  const auto path_of = [&](const ProfSpan& s) -> const std::string& {
    auto it = path_cache.find(s.id);
    if (it != path_cache.end()) {
      return it->second;
    }
    std::vector<const ProfSpan*> chain{&s};
    const ProfSpan* cur = &s;
    while (cur->parent != 0) {
      const auto pit = by_id.find(cur->parent);
      if (pit == by_id.end()) {
        break; // parent dropped at the buffer cap; treat as a root
      }
      cur = pit->second;
      chain.push_back(cur);
    }
    std::string p;
    for (auto rit = chain.rbegin(); rit != chain.rend(); ++rit) {
      if (!p.empty()) {
        p += '/';
      }
      p += (*rit)->name;
    }
    return path_cache.emplace(s.id, std::move(p)).first->second;
  };

  std::map<std::string, PathAgg> tree;
  double t_min = spans.front().ts;
  double t_max = spans.front().ts + spans.front().dur;
  for (const auto& s : spans) {
    const std::string& p = path_of(s);
    PathAgg& agg = tree[p];
    agg.total_us += s.dur;
    agg.count += 1;
    agg.depth = static_cast<int>(std::count(p.begin(), p.end(), '/'));
    t_min = std::min(t_min, s.ts);
    t_max = std::max(t_max, s.ts + s.dur);
  }
  const double window_s = (t_max - t_min) / 1e6;
  appendf(out, "  %zu spans over %s wall clock\n", spans.size(),
          fmt_seconds(window_s).c_str());

  out += "  time tree (self+children per path):\n";
  // The map is path-sorted, which interleaves children under parents; cap
  // the tree at the 40 heaviest paths to keep deep profiles readable.
  std::vector<std::pair<std::string, PathAgg>> rows(tree.begin(), tree.end());
  if (rows.size() > 40) {
    std::vector<std::pair<std::string, PathAgg>> sorted = rows;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto& a, const auto& b) {
                return a.second.total_us > b.second.total_us;
              });
    sorted.resize(40);
    std::vector<std::pair<std::string, PathAgg>> kept;
    for (const auto& row : rows) {
      for (const auto& k : sorted) {
        if (k.first == row.first) {
          kept.push_back(row);
          break;
        }
      }
    }
    rows = std::move(kept);
    appendf(out, "    (showing the %zu heaviest of %zu paths)\n",
            rows.size(), tree.size());
  }
  for (const auto& [p, agg] : rows) {
    const std::string leaf =
        agg.depth == 0 ? p : p.substr(p.find_last_of('/') + 1);
    appendf(out, "    %*s%-24s %10s  x%llu\n", agg.depth * 2, "",
            leaf.c_str(), fmt_seconds(agg.total_us / 1e6).c_str(),
            static_cast<unsigned long long>(agg.count));
  }

  // Per-worker utilization: top-level span time per thread over the
  // profile window.
  std::map<std::uint64_t, double> busy_us;
  std::map<std::uint64_t, std::uint64_t> span_count;
  for (const auto& s : spans) {
    if (s.parent == 0 || by_id.find(s.parent) == by_id.end()) {
      busy_us[s.tid] += s.dur;
    }
    span_count[s.tid] += 1;
  }
  out += "  per-worker utilization:\n";
  for (const auto& [tid, busy] : busy_us) {
    const auto nit = thread_names.find(tid);
    const std::string name = nit != thread_names.end() && !nit->second.empty()
                                 ? nit->second
                                 : "thread-" + std::to_string(tid);
    const double util = window_s > 0.0 ? busy / 1e6 / window_s : 0.0;
    appendf(out, "    %-18s %5.1f%% busy (%s across %llu spans)\n",
            name.c_str(), util * 100.0, fmt_seconds(busy / 1e6).c_str(),
            static_cast<unsigned long long>(span_count[tid]));
  }

  // Latency percentiles for the repeated span families.
  for (const char* family : {"eval.generation", "batch.job", "buffer.plan",
                             "cec.sat", "cec.bdd"}) {
    std::vector<double> durs;
    for (const auto& s : spans) {
      if (s.name == family) {
        durs.push_back(s.dur / 1e6);
      }
    }
    if (durs.size() < 2) {
      continue;
    }
    std::vector<double> p50v = durs;
    const double p50 = exact_quantile(p50v, 0.50);
    const double p95 = exact_quantile(p50v, 0.95);
    const double p99 = exact_quantile(p50v, 0.99);
    appendf(out, "  %-16s latency: p50 %s, p95 %s, p99 %s (n=%zu)\n",
            family, fmt_seconds(p50).c_str(), fmt_seconds(p95).c_str(),
            fmt_seconds(p99).c_str(), durs.size());
  }
  out += '\n';
}

// ---------------------------------------------------------------------------
// Trace section (JSONL evolution trace)

void report_trace(std::string& out, const std::string& path) {
  const std::string content = read_file(path);
  std::map<std::string, std::uint64_t> by_type;
  std::vector<json::Value> improvements;
  json::Value run_end;
  bool has_run_end = false;

  std::istringstream in(content);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    auto ev = json::parse(line);
    if (!ev || !ev->is_object()) {
      throw std::runtime_error("report: " + path + ":" +
                               std::to_string(line_no) + ": not a JSON object");
    }
    const std::string type = ev->string_or("event", "?");
    by_type[type] += 1;
    if (type == "improvement") {
      improvements.push_back(std::move(*ev));
    } else if (type == "run_end") {
      run_end = std::move(*ev);
      has_run_end = true;
    }
  }

  appendf(out, "-- trace: %s --\n  events:", path.c_str());
  for (const auto& [type, n] : by_type) {
    appendf(out, " %s=%llu", type.c_str(),
            static_cast<unsigned long long>(n));
  }
  out += '\n';

  if (!improvements.empty()) {
    const json::Value& first = improvements.front();
    const json::Value& last = improvements.back();
    appendf(out,
            "  convergence: %zu improvements, n_r %g -> %g, n_g %g -> %g, "
            "n_b %g -> %g\n",
            improvements.size(), first.number_or("n_r", 0),
            last.number_or("n_r", 0), first.number_or("n_g", 0),
            last.number_or("n_g", 0), first.number_or("n_b", 0),
            last.number_or("n_b", 0));

    // Stagnation profile: generations between consecutive improvements,
    // bucketed by decade.
    std::map<int, std::uint64_t> decades;
    double prev_gen = -1.0;
    for (const auto& imp : improvements) {
      const double gen = imp.number_or("gen", imp.number_or("step", 0));
      if (prev_gen >= 0.0) {
        const double gap = std::max(1.0, gen - prev_gen);
        decades[static_cast<int>(std::floor(std::log10(gap)))] += 1;
      }
      prev_gen = gen;
    }
    if (!decades.empty()) {
      out += "  stagnation (generations between improvements):\n";
      for (const auto& [decade, n] : decades) {
        appendf(out, "    %8.0f..%-8.0f %llu\n", std::pow(10.0, decade),
                std::pow(10.0, decade + 1) - 1,
                static_cast<unsigned long long>(n));
      }
    }
  }
  if (has_run_end) {
    appendf(out,
            "  run_end: reason=%s generations=%g evaluations=%g "
            "improvements=%g elapsed=%s\n",
            run_end.string_or("reason", "?").c_str(),
            run_end.number_or("generations_run", 0),
            run_end.number_or("evaluations", 0),
            run_end.number_or("improvements", 0),
            fmt_seconds(run_end.number_or("elapsed_s", 0)).c_str());
  }
  out += '\n';
}

// ---------------------------------------------------------------------------
// Metrics section (registry snapshot, bare or CLI-wrapped)

/// The q-quantile of an exported histogram, re-derived from its buckets
/// (NaN when it has no observations).
double histogram_quantile(const json::Value& h, double q) {
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  if (const json::Value* buckets = h.find("buckets")) {
    for (const auto& b : buckets->items()) {
      const json::Value* le = b.find("le");
      if (le && le->is_number()) {
        bounds.push_back(le->as_number());
      }
      counts.push_back(static_cast<std::uint64_t>(b.number_or("count", 0)));
    }
  }
  return quantile_from_buckets(bounds, counts, q);
}

/// Service digest (docs/SERVICE.md) of a `rcgp serve --metrics-out`
/// snapshot: traffic, the cache's hit share, and request and hit latency.
void report_service(std::string& out, const json::Value& registry) {
  const json::Value* counters = registry.find("counters");
  const json::Value* requests =
      counters ? counters->find("serve.requests") : nullptr;
  if (requests == nullptr) {
    return;
  }
  out += "  service:\n";
  appendf(out, "    requests            %.0f (%.0f errors)\n",
          requests->as_number(), counters->number_or("serve.errors", 0));
  const double lookups = counters->number_or("cache.lookups", 0);
  if (lookups > 0) {
    const double hits = counters->number_or("cache.hits", 0);
    appendf(out, "    cache hit share     %.1f%% (%.0f of %.0f lookups)\n",
            100.0 * hits / lookups, hits, lookups);
  }
  const json::Value* hists = registry.find("histograms");
  const std::pair<const char*, const char*> latencies[] = {
      {"request latency", "serve.request.seconds"},
      {"hit latency", "cache.hit.seconds"}};
  for (const auto& [label, name] : latencies) {
    const json::Value* h = hists ? hists->find(name) : nullptr;
    if (h == nullptr || h->number_or("count", 0) <= 0) {
      continue;
    }
    appendf(out, "    %-19s p50 %s  p90 %s  (%s)\n", label,
            fmt_seconds(histogram_quantile(*h, 0.50)).c_str(),
            fmt_seconds(histogram_quantile(*h, 0.90)).c_str(), name);
  }
}

void report_metrics(std::string& out, const std::string& path) {
  const auto doc = json::parse(read_file(path));
  if (!doc || !doc->is_object()) {
    throw std::runtime_error("report: " + path + " is not a JSON object");
  }
  appendf(out, "-- metrics: %s --\n", path.c_str());

  const json::Value* registry = doc->find("metrics");
  double flow_total = 0.0;
  double cgp_seconds = 0.0;
  if (const json::Value* flow = doc->find("flow")) {
    flow_total = flow->number_or("seconds_total", 0);
    appendf(out, "  flow total %s\n", fmt_seconds(flow_total).c_str());
    if (const json::Value* phases = flow->find("phases")) {
      for (const auto& [name, v] : phases->members()) {
        appendf(out, "    %-14s %10s\n", name.c_str(),
                fmt_seconds(v.as_number()).c_str());
        if (name == "cgp") {
          cgp_seconds = v.as_number();
        }
      }
    }
  }
  if (!registry) {
    registry = &*doc; // bare registry snapshot
  }

  // Simulation digest (docs/SIMD.md): which kernel tier ran, how many
  // words it chewed through, how many offspring stopped at word 0, and —
  // when the run carried flow phases — how much of the wall clock the
  // simulation-dominated CGP phase took.
  {
    const json::Value* gauges = registry->find("gauges");
    const json::Value* counters = registry->find("counters");
    const double width = gauges ? gauges->number_or("sim.simd_width", 0) : 0;
    const double wps =
        gauges ? gauges->number_or("sim.words_per_second", 0) : 0;
    const double words =
        counters ? counters->number_or("sim.words", 0) : 0;
    const json::Value* rejects =
        counters ? counters->find("evolve.pool.early_rejects") : nullptr;
    if (width > 0 || wps > 0 || words > 0) {
      out += "  simulation:\n";
      if (width > 0) {
        appendf(out, "    simd width          %.0f bits\n", width);
      }
      if (words > 0) {
        appendf(out, "    words simulated     %.3g\n", words);
      }
      if (rejects) {
        const double tasks = counters->number_or("evolve.pool.tasks", 0);
        appendf(out, "    early rejects       %.0f of %.0f offspring\n",
                rejects->as_number(), tasks);
      }
      if (wps > 0) {
        appendf(out, "    kernel throughput   %.3g words/s\n", wps);
      }
      if (cgp_seconds > 0 && flow_total > 0) {
        appendf(out, "    cgp share of flow   %.1f%%\n",
                100.0 * cgp_seconds / flow_total);
      }
    }
  }

  report_service(out, *registry);

  // Island digest (docs/ISLANDS.md): fleet shape, migration traffic, and
  // the per-island best costs and immigrant tallies.
  {
    const json::Value* gauges = registry->find("gauges");
    const json::Value* counters = registry->find("counters");
    const double fleets =
        counters ? counters->number_or("island.fleets", 0) : 0;
    if (fleets > 0) {
      const double offered =
          counters->number_or("island.migrations.offered", 0);
      const double accepted =
          counters->number_or("island.migrations.accepted", 0);
      out += "  islands:\n";
      appendf(out, "    fleets              %.0f (%.0f islands last)\n",
              fleets, gauges ? gauges->number_or("island.islands", 0) : 0);
      appendf(out, "    epochs              %.0f\n",
              counters->number_or("island.epochs", 0));
      appendf(out, "    migrations          %.0f offered, %.0f accepted "
                   "(%.1f%%), %.0f rejected\n",
              offered, accepted,
              offered > 0 ? 100.0 * accepted / offered : 0.0,
              counters->number_or("island.migrations.rejected", 0));
      for (unsigned i = 0;; ++i) {
        const std::string prefix = "island.island" + std::to_string(i);
        const json::Value* best =
            gauges ? gauges->find(prefix + ".best_n_r") : nullptr;
        if (best == nullptr) {
          break;
        }
        appendf(out, "    island %-3u          best n_r %-6.0f "
                     "immigrants %.0f\n",
                i, best->as_number(),
                counters->number_or(prefix + ".immigrants", 0));
      }
    }
  }

  if (const json::Value* gauges = registry->find("gauges")) {
    bool header = false;
    for (const auto& [name, v] : gauges->members()) {
      if (name.find("utilization") == std::string::npos) {
        continue;
      }
      if (!header) {
        out += "  utilization gauges:\n";
        header = true;
      }
      appendf(out, "    %-32s %5.1f%%\n", name.c_str(),
              v.as_number() * 100.0);
    }
  }

  if (const json::Value* hists = registry->find("histograms")) {
    for (const auto& [name, h] : hists->members()) {
      const json::Value* buckets = h.find("buckets");
      if (!buckets || !buckets->is_array()) {
        continue;
      }
      const double count = h.number_or("count", 0);
      if (count <= 0) {
        continue;
      }
      const double mean = h.number_or("sum", 0) / count;
      const double p50 = histogram_quantile(h, 0.50);
      const double p95 = histogram_quantile(h, 0.95);
      const double p99 = histogram_quantile(h, 0.99);
      appendf(out,
              "  %-40s n=%-8.0f mean=%-10g p50=%-10g p95=%-10g p99=%g\n",
              name.c_str(), count, mean, p50, p95, p99);
    }
  }
  out += '\n';
}

} // namespace

std::string run_report(const RunReportInputs& inputs) {
  if (inputs.profile_path.empty() && inputs.trace_path.empty() &&
      inputs.metrics_path.empty()) {
    throw std::invalid_argument("report: no inputs given");
  }
  std::string out = "== rcgp run report ==\n\n";
  if (!inputs.profile_path.empty()) {
    report_profile(out, inputs.profile_path);
  }
  if (!inputs.trace_path.empty()) {
    report_trace(out, inputs.trace_path);
  }
  if (!inputs.metrics_path.empty()) {
    report_metrics(out, inputs.metrics_path);
  }
  return out;
}

} // namespace rcgp::obs
