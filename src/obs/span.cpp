#include "obs/span.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

#include "obs/json.hpp"

namespace rcgp::obs {

namespace {

using steady = std::chrono::steady_clock;

// Captured at load time so every span and TraceSink t_ms stamp shares one
// timebase regardless of when profiling is first enabled.
const steady::time_point g_epoch = steady::now();

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_span_id{1};
std::atomic<std::uint64_t> g_dropped{0};

// Memory bound for very long enabled runs: past this, a thread's spans are
// counted as dropped instead of recorded.
constexpr std::size_t kMaxSpansPerThread = 1u << 20;

/// One thread's recorded spans. Owned by the global registry (shared_ptr)
/// so records survive thread exit until exported; the recording thread
/// appends under `mu`, which is uncontended except during export.
struct ThreadBuffer {
  std::mutex mu;
  std::uint32_t tid = 0;
  std::string name;
  std::vector<SpanRecord> records;
};

struct ProfilerState {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> threads;
};

ProfilerState& profiler() {
  static ProfilerState* s = new ProfilerState; // immortal, like registry()
  return *s;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = [] {
    auto owned = std::make_shared<ThreadBuffer>();
    ProfilerState& s = profiler();
    std::lock_guard lock(s.mu);
    owned->tid = static_cast<std::uint32_t>(s.threads.size() + 1);
    s.threads.push_back(owned);
    return owned.get();
  }();
  return *buf;
}

thread_local Span* t_current_span = nullptr;

} // namespace

std::uint64_t profile_now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(steady::now() -
                                                            g_epoch)
          .count());
}

void set_profiling_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

void set_thread_name(std::string_view name) {
  ThreadBuffer& buf = local_buffer();
  std::lock_guard lock(buf.mu);
  buf.name = name;
}

Span::Span(std::string_view name) {
  if (!g_enabled.load(std::memory_order_relaxed)) {
    return;
  }
  active_ = true;
  name_ = name;
  parent_ = t_current_span;
  t_current_span = this;
  id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  start_us_ = profile_now_us();
}

Span::~Span() {
  if (!active_) {
    return;
  }
  const std::uint64_t end_us = profile_now_us();
  t_current_span = parent_;
  ThreadBuffer& buf = local_buffer();
  std::lock_guard lock(buf.mu);
  if (buf.records.size() >= kMaxSpansPerThread) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  SpanRecord& rec = buf.records.emplace_back();
  rec.name = std::move(name_);
  rec.args_json = std::move(args_json_);
  rec.start_us = start_us_;
  rec.dur_us = end_us - start_us_;
  rec.id = id_;
  rec.parent = parent_ ? parent_->id_ : 0;
  rec.tid = buf.tid;
}

Span& Span::arg(std::string_view key, std::string_view value) {
  if (!active_) {
    return *this;
  }
  if (!args_json_.empty()) {
    args_json_ += ',';
  }
  args_json_ += '"';
  args_json_ += json::escape(key);
  args_json_ += "\":\"";
  args_json_ += json::escape(value);
  args_json_ += '"';
  return *this;
}

Span& Span::arg(std::string_view key, std::uint64_t value) {
  if (!active_) {
    return *this;
  }
  if (!args_json_.empty()) {
    args_json_ += ',';
  }
  args_json_ += '"';
  args_json_ += json::escape(key);
  args_json_ += "\":";
  args_json_ += std::to_string(value);
  return *this;
}

Span& Span::arg(std::string_view key, double value) {
  if (!active_) {
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  if (!args_json_.empty()) {
    args_json_ += ',';
  }
  args_json_ += '"';
  args_json_ += json::escape(key);
  args_json_ += "\":";
  args_json_ += buf;
  return *this;
}

std::uint64_t current_span_id() {
  return t_current_span ? t_current_span->id_ : 0;
}

namespace {

/// Stable snapshot of the thread list plus each buffer's records and name.
struct ThreadSnapshot {
  std::uint32_t tid;
  std::string name;
  std::vector<SpanRecord> records;
};

std::vector<ThreadSnapshot> snapshot_threads() {
  std::vector<std::shared_ptr<ThreadBuffer>> threads;
  {
    ProfilerState& s = profiler();
    std::lock_guard lock(s.mu);
    threads = s.threads;
  }
  std::vector<ThreadSnapshot> out;
  out.reserve(threads.size());
  for (const auto& t : threads) {
    std::lock_guard lock(t->mu);
    out.push_back({t->tid, t->name, t->records});
  }
  return out;
}

} // namespace

std::vector<SpanRecord> profile_spans() {
  std::vector<SpanRecord> out;
  for (auto& t : snapshot_threads()) {
    out.insert(out.end(), std::make_move_iterator(t.records.begin()),
               std::make_move_iterator(t.records.end()));
  }
  return out;
}

std::uint64_t profile_dropped_spans() {
  return g_dropped.load(std::memory_order_relaxed);
}

void reset_profile() {
  std::vector<std::shared_ptr<ThreadBuffer>> threads;
  {
    ProfilerState& s = profiler();
    std::lock_guard lock(s.mu);
    threads = s.threads;
  }
  for (const auto& t : threads) {
    std::lock_guard lock(t->mu);
    t->records.clear();
  }
  g_dropped.store(0, std::memory_order_relaxed);
}

std::string chrome_trace_json() {
  auto threads = snapshot_threads();

  std::string out;
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& event) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += event;
  };

  emit("{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
       "\"args\":{\"name\":\"rcgp\"}}");
  for (const auto& t : threads) {
    if (t.name.empty() && t.records.empty()) {
      continue;
    }
    std::string ev = "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    ev += std::to_string(t.tid);
    ev += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    ev += json::escape(t.name.empty() ? "thread-" + std::to_string(t.tid)
                                      : t.name);
    ev += "\"}}";
    emit(ev);
  }

  // Deterministic order (by tid, then start, longest span first on ties)
  // so nested spans always follow their parents.
  for (auto& t : threads) {
    std::stable_sort(t.records.begin(), t.records.end(),
                     [](const SpanRecord& a, const SpanRecord& b) {
                       if (a.start_us != b.start_us) {
                         return a.start_us < b.start_us;
                       }
                       return a.dur_us > b.dur_us;
                     });
    for (const SpanRecord& r : t.records) {
      std::string ev = "{\"ph\":\"X\",\"pid\":1,\"tid\":";
      ev += std::to_string(r.tid);
      ev += ",\"name\":\"";
      ev += json::escape(r.name);
      ev += "\",\"cat\":\"rcgp\",\"ts\":";
      ev += std::to_string(r.start_us);
      ev += ",\"dur\":";
      ev += std::to_string(r.dur_us);
      ev += ",\"args\":{";
      if (!r.args_json.empty()) {
        ev += r.args_json;
        ev += ',';
      }
      // Namespaced so user args (e.g. a batch job's "id") can't collide.
      ev += "\"span_id\":";
      ev += std::to_string(r.id);
      ev += ",\"span_parent\":";
      ev += std::to_string(r.parent);
      ev += "}}";
      emit(ev);
    }
  }
  out += "]}";
  return out;
}

bool write_chrome_trace(const std::string& path) {
  const std::string doc = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    return false;
  }
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  return ok;
}

} // namespace rcgp::obs
