#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rcgp::obs {

/// Span-based profiling (docs/OBSERVABILITY.md). A Span is an RAII timing
/// scope recorded into a per-thread buffer while profiling is enabled;
/// the whole profile exports as one Chrome trace-event / Perfetto JSON
/// document (`write_chrome_trace`, loadable in ui.perfetto.dev).
///
/// Disabled-mode cost: constructing a Span is one relaxed atomic load and
/// the destructor a branch — safe to leave in hot paths. Enabled-mode cost
/// is two steady-clock reads, one relaxed id fetch_add, and an append to
/// the calling thread's buffer under an uncontended mutex.

/// Microseconds since the process-wide steady-clock epoch (captured at
/// load time). Shared by spans and TraceSink `t_ms` stamps so traces and
/// profiles are time-aligned.
std::uint64_t profile_now_us();

/// Global profiling switch (off by default). Spans constructed while the
/// switch is off are inert.
void set_profiling_enabled(bool on);

/// Names the calling thread's profiler track (shown as the Perfetto row
/// label, e.g. "eval-worker-1"). Safe to call whether or not profiling is
/// enabled; the latest name wins.
void set_thread_name(std::string_view name);

/// One completed span. `tid` is a small sequential per-process thread id;
/// `parent` is the id of the enclosing span on the same thread (0 = none).
struct SpanRecord {
  std::string name;
  std::string args_json; ///< "" or a complete JSON object of span args
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint32_t tid = 0;
};

/// RAII profiling span. Nests through a thread-local stack: a Span
/// constructed while another is alive on the same thread records it as its
/// parent. Args attach as Perfetto `args` key/values.
class Span {
public:
  explicit Span(std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// False when profiling was disabled at construction (the span records
  /// nothing and args are dropped).
  bool active() const { return active_; }

  Span& arg(std::string_view key, std::string_view value);
  Span& arg(std::string_view key, std::uint64_t value);
  Span& arg(std::string_view key, unsigned value) {
    return arg(key, static_cast<std::uint64_t>(value));
  }
  Span& arg(std::string_view key, double value);

private:
  bool active_ = false;
  std::uint64_t start_us_ = 0;
  std::uint64_t id_ = 0;
  Span* parent_ = nullptr;
  std::string name_;
  std::string args_json_; // comma-joined "key":value fragments

  friend std::uint64_t current_span_id();
};

/// Id of the innermost active span on the calling thread (0 = none).
std::uint64_t current_span_id();

/// Snapshot of every recorded span across all threads (per-thread
/// completion order, threads in registration order).
std::vector<SpanRecord> profile_spans();

/// Spans dropped because a thread hit its buffer cap (profile still loads,
/// but has holes; the cap bounds memory on very long enabled runs).
std::uint64_t profile_dropped_spans();

/// Clears every thread's recorded spans (thread registrations and ids
/// survive). Benches and tests call this between runs.
void reset_profile();

/// The whole profile as one Chrome trace-event JSON document:
/// {"displayTimeUnit":"ms","traceEvents":[...]} with one "X" (complete)
/// event per span (`ts`/`dur` in microseconds) and "M" metadata events
/// naming the process and threads. Loads in ui.perfetto.dev and
/// chrome://tracing.
std::string chrome_trace_json();

/// Writes chrome_trace_json() to `path`; false on I/O failure.
bool write_chrome_trace(const std::string& path);

} // namespace rcgp::obs
