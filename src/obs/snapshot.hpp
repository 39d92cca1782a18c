#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

namespace rcgp::obs {

/// Periodic metrics-snapshot writer for long runs: a background thread
/// that re-exports the registry every `interval_seconds` so an external
/// watcher (or a Prometheus file-based scrape) sees live values instead of
/// having to wait for the run to finish. Snapshots go through
/// Registry::write_json / write_prometheus (util::write_file_durable), so
/// a reader never observes a torn document.
///
/// Construction starts the thread when the interval is positive and at
/// least one path is set; destruction stops it and writes one final
/// snapshot of each configured path.
class MetricsSnapshotter {
public:
  struct Options {
    std::string json_path; ///< registry JSON snapshot ("" = skip)
    std::string prom_path; ///< Prometheus text snapshot ("" = skip)
    double interval_seconds = 0.0;
  };

  explicit MetricsSnapshotter(Options options);
  ~MetricsSnapshotter();
  MetricsSnapshotter(const MetricsSnapshotter&) = delete;
  MetricsSnapshotter& operator=(const MetricsSnapshotter&) = delete;

  /// Snapshots completed so far (each cycle writes every configured path).
  std::uint64_t snapshots_written() const;

private:
  void write_snapshot();

  Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::uint64_t written_ = 0;
  std::thread thread_;
};

} // namespace rcgp::obs
