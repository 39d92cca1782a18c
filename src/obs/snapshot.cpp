#include "obs/snapshot.hpp"

#include <chrono>

#include "obs/metrics.hpp"

namespace rcgp::obs {

MetricsSnapshotter::MetricsSnapshotter(Options options)
    : options_(std::move(options)) {
  const bool has_path = !options_.json_path.empty() ||
                        !options_.prom_path.empty();
  if (options_.interval_seconds <= 0.0 || !has_path) {
    return;
  }
  thread_ = std::thread([this] {
    const auto interval = std::chrono::duration<double>(
        options_.interval_seconds);
    std::unique_lock lock(mu_);
    while (!cv_.wait_for(lock, interval, [this] { return stop_; })) {
      lock.unlock();
      write_snapshot();
      lock.lock();
      ++written_;
    }
  });
}

MetricsSnapshotter::~MetricsSnapshotter() {
  const bool ran = thread_.joinable();
  if (ran) {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    // One final snapshot so the files reflect the run's end state.
    write_snapshot();
  }
}

void MetricsSnapshotter::write_snapshot() {
  if (!options_.json_path.empty()) {
    registry().write_json(options_.json_path);
  }
  if (!options_.prom_path.empty()) {
    registry().write_prometheus(options_.prom_path);
  }
}

std::uint64_t MetricsSnapshotter::snapshots_written() const {
  std::lock_guard lock(mu_);
  return written_;
}

} // namespace rcgp::obs
