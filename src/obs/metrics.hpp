#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rcgp::obs {

/// Monotonic counter. Relaxed atomic increments — cheap enough for the
/// evolve hot loop (one uncontended fetch_add per event, no locks).
class Counter {
public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-value / accumulating gauge (doubles, e.g. phase seconds).
class Gauge {
public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds
/// (value <= bounds[i] lands in bucket i); one implicit +inf overflow
/// bucket. Observation is a linear scan over a handful of bounds plus two
/// relaxed atomics — no locks.
class Histogram {
public:
  explicit Histogram(std::span<const double> bounds);

  void observe(double v);

  /// Estimated q-quantile (q in [0, 1]) with linear interpolation inside
  /// the bucket the rank falls in (see quantile_from_buckets). NaN while
  /// the histogram is empty.
  double quantile(double q) const;

  std::size_t num_buckets() const { return buckets_.size(); } // bounds + inf
  double bound(std::size_t i) const { return bounds_[i]; }    // i < bounds
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  void reset();

private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Quantile estimate over fixed-bucket histogram data: `bounds` are the
/// ascending inclusive upper bounds, `counts` the per-bucket observation
/// counts (`bounds.size() + 1` entries, last = overflow). The rank
/// `q * total` is located in its bucket and linearly interpolated between
/// the bucket's edges (the first bucket interpolates from 0 when its bound
/// is positive, Prometheus-style); a rank in the overflow bucket returns
/// the largest finite bound. Returns NaN when `counts` sum to zero.
/// Shared by Histogram::quantile and the `rcgp report` tool, which
/// re-derives quantiles from exported snapshots.
double quantile_from_buckets(std::span<const double> bounds,
                             std::span<const std::uint64_t> counts, double q);

/// Process-wide metrics registry. Registration (first lookup of a name)
/// takes a mutex; the returned reference is stable for the process
/// lifetime, so hot paths cache it once and then only touch atomics.
class Registry {
public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Returns the existing histogram when the name is already registered
  /// (the bounds of the first registration win).
  Histogram& histogram(std::string_view name, std::span<const double> bounds);

  /// Snapshot of every metric as one JSON object:
  /// {"counters":{...},"gauges":{...},"histograms":{...}}.
  std::string to_json() const;
  /// Writes to_json() (plus a trailing newline) to `path` through
  /// util::write_file_durable; false on I/O failure.
  bool write_json(const std::string& path) const;

  /// Snapshot of every metric in the Prometheus text exposition format
  /// (one scrapeable document). Names are prefixed `rcgp_` and sanitized
  /// (non-alphanumerics become '_'); gauge names of the form `base{x}`
  /// (the flow phase gauges) become `rcgp_base{phase="x"}` label families;
  /// histogram buckets are emitted cumulatively with the standard
  /// `_bucket{le=...}` / `_sum` / `_count` series.
  std::string to_prometheus() const;
  /// Writes to_prometheus() to `path` through util::write_file_durable;
  /// false on I/O failure.
  bool write_prometheus(const std::string& path) const;

  /// Zeroes every metric value. Addresses stay valid (tests and benches
  /// use this between runs; cached references in hot loops survive).
  void reset_values();

private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// The process-wide registry (intentionally leaked so references cached in
/// static storage stay valid through program shutdown).
Registry& registry();

} // namespace rcgp::obs
