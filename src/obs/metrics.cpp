#include "obs/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

#include "obs/json.hpp"
#include "util/durable.hpp"

namespace rcgp::obs {

Histogram::Histogram(std::span<const double> bounds)
    : bounds_(bounds.begin(), bounds.end()),
      buckets_(bounds.size() + 1) {}

void Histogram::observe(double v) {
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) {
    ++i;
  }
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

double quantile_from_buckets(std::span<const double> bounds,
                             std::span<const std::uint64_t> counts,
                             double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) {
    total += c;
  }
  if (total == 0 || counts.size() != bounds.size() + 1) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double in_bucket = static_cast<double>(counts[i]);
    if (cum + in_bucket < rank && i + 1 < counts.size()) {
      cum += in_bucket;
      continue;
    }
    if (i == bounds.size()) {
      // Overflow bucket has no finite upper edge; report the largest
      // finite bound (the Prometheus histogram_quantile convention).
      return bounds.empty() ? std::numeric_limits<double>::quiet_NaN()
                            : bounds.back();
    }
    const double upper = bounds[i];
    double lower = i == 0 ? std::min(0.0, upper) : bounds[i - 1];
    if (in_bucket <= 0.0) {
      return upper;
    }
    return lower + (upper - lower) * (rank - cum) / in_bucket;
  }
  return bounds.back();
}

double Histogram::quantile(double q) const {
  std::vector<std::uint64_t> counts(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return quantile_from_buckets(bounds_, counts, q);
}

void Histogram::reset() {
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::span<const double> bounds) {
  std::lock_guard lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>(bounds))
             .first;
  }
  return *it->second;
}

std::string Registry::to_json() const {
  std::lock_guard lock(mu_);
  json::Writer w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_) {
    w.field(name, c->value());
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) {
    w.field(name, g->value());
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name).begin_object();
    w.field("count", h->count());
    w.field("sum", h->sum());
    w.key("buckets").begin_array();
    for (std::size_t i = 0; i < h->num_buckets(); ++i) {
      w.begin_object();
      if (i < h->bounds().size()) {
        w.field("le", h->bound(i));
      } else {
        w.field("le", "inf");
      }
      w.field("count", h->bucket_count(i));
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

namespace {

/// Durable write reporting failure as false, the Registry writers' contract.
bool write_document(const std::string& path, const std::string& doc) {
  try {
    util::write_file_durable(path, doc);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  }
}

} // namespace

bool Registry::write_json(const std::string& path) const {
  return write_document(path, to_json() + "\n");
}

namespace {

/// `rcgp_` prefix + every non-alphanumeric character mapped to '_' — the
/// Prometheus metric-name grammar ([a-zA-Z_:][a-zA-Z0-9_:]*).
std::string prom_name(std::string_view name) {
  std::string out = "rcgp_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out += ok ? c : '_';
  }
  return out;
}

/// Escapes a Prometheus label value (backslash, quote, newline).
std::string prom_label_value(std::string_view v) {
  std::string out;
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Splits `base{x}` into (base, x); no-brace names return (name, "").
std::pair<std::string_view, std::string_view> split_label(
    std::string_view name) {
  const auto open = name.find('{');
  if (open == std::string_view::npos || name.back() != '}') {
    return {name, {}};
  }
  return {name.substr(0, open),
          name.substr(open + 1, name.size() - open - 2)};
}

void append_prom_value(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "NaN";
  } else if (std::isinf(v)) {
    out += v > 0 ? "+Inf" : "-Inf";
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += buf;
  }
}

} // namespace

std::string Registry::to_prometheus() const {
  std::lock_guard lock(mu_);
  std::string out;
  for (const auto& [name, c] : counters_) {
    const std::string pn = prom_name(name);
    out += "# TYPE " + pn + " counter\n";
    out += pn + " " + std::to_string(c->value()) + "\n";
  }
  // Labeled gauges (`phase_seconds{cgp}`) share one family per base name;
  // the map's lexicographic order keeps a family's samples contiguous, so
  // one TYPE line per first-seen base suffices.
  std::string last_family;
  for (const auto& [name, g] : gauges_) {
    const auto [base, label] = split_label(name);
    const std::string pn = prom_name(base);
    if (pn != last_family) {
      out += "# TYPE " + pn + " gauge\n";
      last_family = pn;
    }
    out += pn;
    if (!label.empty()) {
      out += "{phase=\"" + prom_label_value(label) + "\"}";
    }
    out += ' ';
    append_prom_value(out, g->value());
    out += '\n';
  }
  for (const auto& [name, h] : histograms_) {
    const std::string pn = prom_name(name);
    out += "# TYPE " + pn + " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h->num_buckets(); ++i) {
      cum += h->bucket_count(i);
      out += pn + "_bucket{le=\"";
      if (i < h->bounds().size()) {
        append_prom_value(out, h->bound(i));
      } else {
        out += "+Inf";
      }
      out += "\"} " + std::to_string(cum) + "\n";
    }
    out += pn + "_sum ";
    append_prom_value(out, h->sum());
    out += '\n';
    // `cum` rather than h->count(): keeps `_count` equal to the +Inf
    // bucket even when a snapshot races concurrent observations.
    out += pn + "_count " + std::to_string(cum) + "\n";
  }
  return out;
}

bool Registry::write_prometheus(const std::string& path) const {
  return write_document(path, to_prometheus());
}

void Registry::reset_values() {
  std::lock_guard lock(mu_);
  for (auto& [name, c] : counters_) {
    c->reset();
  }
  for (auto& [name, g] : gauges_) {
    g->reset();
  }
  for (auto& [name, h] : histograms_) {
    h->reset();
  }
}

Registry& registry() {
  static Registry* r = new Registry; // immortal: see header
  return *r;
}

} // namespace rcgp::obs
