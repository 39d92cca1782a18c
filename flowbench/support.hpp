#pragma once

// Helpers of bench_flow: strict number parsing for its flags,
// order statistics, process resource readings, the metric sheet it
// prints, and the attempted/failed operation tally.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <sys/resource.h>

#include "obs/json.hpp"

namespace flowbench {

/// Parses the whole of `text` as a decimal unsigned integer. Empty text, a
/// sign, trailing characters ("2e5", "10x") and overflow are rejected with
/// std::invalid_argument naming `what`, so a typo never silently becomes 0
/// or a truncated prefix.
inline std::uint64_t parse_u64(std::string_view text, std::string_view what) {
  const std::string s(text);
  if (s.empty() || s.front() < '0' || s.front() > '9') {
    throw std::invalid_argument(std::string(what) + ": expected an unsigned "
                                "integer, got '" + s + "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno == ERANGE || end != s.c_str() + s.size()) {
    throw std::invalid_argument(std::string(what) + ": expected an unsigned "
                                "integer, got '" + s + "'");
  }
  return v;
}

/// Parses the whole of `text` as a finite, non-negative decimal number,
/// with the same rejection rules as parse_u64.
inline double parse_f64(std::string_view text, std::string_view what) {
  const std::string s(text);
  errno = 0;
  char* end = nullptr;
  const double v = s.empty() ? 0.0 : std::strtod(s.c_str(), &end);
  if (s.empty() || errno == ERANGE || end != s.c_str() + s.size() ||
      !std::isfinite(v) || v < 0.0) {
    throw std::invalid_argument(std::string(what) + ": expected a "
                                "non-negative number, got '" + s + "'");
  }
  return v;
}

/// Quantile q in [0, 1] with linear interpolation between order
/// statistics (q = 0.5 is the median). 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

inline double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// User + system CPU seconds of the whole process (every thread).
inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/// Peak resident set size of this program image so far, in MiB: VmHWM of
/// /proc/self/status. getrusage's ru_maxrss would not do, since Linux
/// carries it across execve, so a launcher's own footprint leaks into it.
inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream kib(line.substr(6));
      double value = 0.0;
      kib >> value;
      return value / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// Named metrics in insertion order, each with its unit.
class Sheet {
public:
  void add(std::string name, double value, std::string unit) {
    // JSON has no NaN/inf; a non-finite reading is a bench bug.
    if (!std::isfinite(value)) {
      throw std::logic_error("metric " + name + " is not finite");
    }
    items_.push_back({std::move(name), value, std::move(unit)});
  }

  void write(rcgp::obs::json::Writer& w) const {
    w.begin_object();
    for (const auto& m : items_) {
      w.key(m.name).begin_object();
      w.field("value", m.value);
      w.field("unit", m.unit);
      w.end_object();
    }
    w.end_object();
  }

private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Operations attempted and failed over the whole run. A failed check is
/// also reported on stderr so a red run says what broke.
class Ops {
public:
  void record(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "bench_flow: FAILED %s\n", what.c_str());
    }
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

} // namespace flowbench
