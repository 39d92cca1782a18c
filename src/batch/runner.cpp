#include "batch/runner.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <thread>

#include "cache/store.hpp"
#include "io/rqfp_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "robust/integrity.hpp"
#include "util/durable.hpp"

namespace rcgp::batch {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Per-job wall seconds: sub-second smoke jobs through hour-scale runs.
constexpr double kJobSecondsBounds[] = {0.01, 0.03, 0.1,   0.3,   1.0,  3.0,
                                        10.0, 30.0, 100.0, 300.0, 1000.0};

struct BatchMetrics {
  obs::Counter& queued = obs::registry().counter("batch.jobs.queued");
  obs::Counter& done = obs::registry().counter("batch.jobs.done");
  obs::Counter& failed = obs::registry().counter("batch.jobs.failed");
  obs::Counter& retried = obs::registry().counter("batch.jobs.retried");
  obs::Counter& skipped = obs::registry().counter("batch.jobs.skipped");
  obs::Counter& interrupted =
      obs::registry().counter("batch.jobs.interrupted");
  obs::Gauge& running = obs::registry().gauge("batch.jobs.running");
  obs::Gauge& workers = obs::registry().gauge("batch.workers");
};

} // namespace

BatchSummary run_batch(const Manifest& manifest,
                       const BatchOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  std::filesystem::create_directories(options.out_dir);
  const std::string results_path = options.out_dir + "/results.jsonl";

  // Resume: every job with a final record in the store is already settled.
  std::map<std::string, JobRecord> settled;
  if (options.resume) {
    for (auto& rec : ResultsStore::load(results_path)) {
      if (rec.final_record) {
        settled[rec.id] = std::move(rec); // last final record wins
      }
    }
  } else {
    std::remove(results_path.c_str()); // a fresh batch starts a fresh store
  }
  ResultsStore store(results_path);

  std::vector<const Job*> queue;
  for (const auto& job : manifest.jobs) {
    if (settled.find(job.id) == settled.end()) {
      queue.push_back(&job);
    }
  }

  BatchMetrics metrics;
  metrics.queued.inc(queue.size());
  metrics.skipped.inc(settled.size());

  unsigned workers = options.workers != 0
                         ? options.workers
                         : std::thread::hardware_concurrency();
  workers = std::max(1u, std::min<unsigned>(workers, queue.size()));
  metrics.workers.set(static_cast<double>(workers));

  // Batch-level stop: the watchdog bridges the external token and the
  // deadline onto one internal token every running job polls. Jobs are
  // never handed a shrinking time budget — interrupting them (non-final
  // record, re-run on resume) is what keeps per-job results independent
  // of batch scheduling.
  robust::StopToken internal_stop;
  std::atomic<bool> workers_done{false};
  std::atomic<int> batch_reason{
      static_cast<int>(robust::StopReason::kCompleted)};
  std::thread watchdog;
  if (options.budget.deadline_seconds > 0.0 ||
      options.budget.stop != nullptr) {
    watchdog = std::thread([&] {
      while (!workers_done.load(std::memory_order_relaxed)) {
        if (options.budget.stop_requested()) {
          batch_reason.store(
              static_cast<int>(robust::StopReason::kStopRequested),
              std::memory_order_relaxed);
          internal_stop.request_stop();
          return;
        }
        if (options.budget.deadline_seconds > 0.0 &&
            seconds_since(start) > options.budget.deadline_seconds) {
          batch_reason.store(
              static_cast<int>(robust::StopReason::kTimeLimit),
              std::memory_order_relaxed);
          internal_stop.request_stop();
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }

  const JobExecutor executor =
      options.executor
          ? options.executor
          : [&options](const Job& job, const JobContext& ctx) {
              return execute_request(job, ctx, options.execute);
            };

  std::vector<JobRecord> produced(queue.size());
  std::vector<char> has_record(queue.size(), 0);
  std::atomic<std::size_t> next{0};

  obs::Histogram& job_seconds =
      obs::registry().histogram("batch.job.seconds", kJobSecondsBounds);

  auto worker_body = [&](unsigned w) {
    obs::set_thread_name("batch-worker-" + std::to_string(w));
    obs::Counter& worker_jobs = obs::registry().counter(
        "batch.worker" + std::to_string(w) + ".jobs");
    obs::Gauge& worker_busy = obs::registry().gauge(
        "batch.worker" + std::to_string(w) + ".busy_seconds");
    while (!internal_stop.stop_requested()) {
      const std::size_t idx = next.fetch_add(1, std::memory_order_relaxed);
      if (idx >= queue.size()) {
        return;
      }
      const Job& job = *queue[idx];
      obs::Span job_span("batch.job");
      job_span.arg("id", job.id).arg("worker", w).arg("circuit", job.circuit);
      const std::string ckpt = options.execute.checkpoint_interval != 0 &&
                                       job.algorithm ==
                                           core::Algorithm::kEvolve
                                   ? options.out_dir + "/" + job.id + ".ckpt"
                                   : std::string();
      const unsigned retries = job.retries >= 0
                                   ? static_cast<unsigned>(job.retries)
                                   : options.default_retries;
      metrics.running.add(1.0);
      const auto job_start = std::chrono::steady_clock::now();
      JobRecord rec;
      rec.id = job.id;
      rec.worker = w;
      for (unsigned attempt = 1;; ++attempt) {
        JobContext ctx;
        ctx.worker = w;
        ctx.attempt = attempt;
        ctx.stop = &internal_stop;
        ctx.checkpoint_path = ckpt;
        ctx.fleet_dir = ckpt.empty() ? std::string() : fleet_state_dir(ckpt);
        ctx.resume_from_checkpoint = options.resume && attempt == 1 &&
                                     !ckpt.empty() && saved_state_exists(ckpt);
        try {
          const JobExecution exec = executor(job, ctx);
          rec.attempts = attempt;
          rec.stop_reason = robust::to_string(exec.stop_reason);
          rec.final_record =
              exec.stop_reason != robust::StopReason::kStopRequested;
          rec.verified = exec.verified;
          rec.cached = exec.cached;
          rec.seeded = exec.seeded;
          rec.ok = rec.final_record && exec.verified;
          const rqfp::Cost& cost = exec.flow.optimized_cost;
          rec.n_r = cost.n_r;
          rec.n_b = cost.n_b;
          rec.jjs = cost.jjs;
          rec.n_d = cost.n_d;
          rec.n_g = cost.n_g;
          if (rec.final_record && !rec.ok) {
            rec.error = "result failed verification";
          }
          if (rec.ok) {
            // Durable before the record that names it is appended.
            rec.netlist_path = options.out_dir + "/" + job.id + ".rqfp";
            util::write_file_durable(
                rec.netlist_path, io::write_rqfp_string(exec.flow.optimized));
          }
        } catch (const robust::IntegrityError& e) {
          metrics.retried.inc();
          if (!ckpt.empty()) {
            remove_saved_state(ckpt); // never resume from suspect state
          }
          if (attempt <= retries) {
            continue;
          }
          rec.attempts = attempt;
          rec.stop_reason = "error";
          rec.error = e.what();
          rec.ok = false;
          rec.final_record = true;
        } catch (const std::exception& e) {
          rec.attempts = attempt;
          rec.stop_reason = "error";
          rec.error = e.what();
          rec.ok = false;
          rec.final_record = true;
        }
        break;
      }
      rec.seconds = seconds_since(job_start);
      // A finished job no longer needs its crash-safety checkpoint; an
      // interrupted one keeps it so resume continues bit-identically.
      if (rec.final_record && !ckpt.empty()) {
        remove_saved_state(ckpt);
      }
      store.append(rec);
      if (!rec.final_record) {
        metrics.interrupted.inc();
      } else if (rec.ok) {
        metrics.done.inc();
      } else {
        metrics.failed.inc();
      }
      worker_jobs.inc();
      worker_busy.add(rec.seconds);
      job_seconds.observe(rec.seconds);
      metrics.running.add(-1.0);
      if (options.trace) {
        options.trace->event("batch_job")
            .field("id", rec.id)
            .field("worker", rec.worker)
            .field("attempts", rec.attempts)
            .field("seconds", rec.seconds)
            .field("ok", rec.ok)
            .field("final", rec.final_record)
            .field("stop_reason", rec.stop_reason)
            .field("n_r", rec.n_r)
            .field("n_b", rec.n_b)
            .field("jjs", rec.jjs);
      }
      produced[idx] = rec;
      has_record[idx] = 1;
      if (options.on_record) {
        options.on_record(rec);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back(worker_body, w);
  }
  for (auto& t : pool) {
    t.join();
  }
  workers_done.store(true, std::memory_order_relaxed);
  if (watchdog.joinable()) {
    watchdog.join();
  }
  if (options.execute.cache != nullptr) {
    options.execute.cache->save(); // one write-back for the whole batch
  }

  BatchSummary summary;
  summary.results_path = results_path;
  summary.total = static_cast<unsigned>(manifest.jobs.size());
  summary.seconds = seconds_since(start);
  const double total_seconds = summary.seconds > 0.0 ? summary.seconds : 1.0;
  for (unsigned w = 0; w < workers; ++w) {
    const double busy =
        obs::registry()
            .gauge("batch.worker" + std::to_string(w) + ".busy_seconds")
            .value();
    obs::registry()
        .gauge("batch.worker" + std::to_string(w) + ".utilization")
        .set(busy / total_seconds);
  }

  std::map<std::string, std::size_t> queued_index;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    queued_index[queue[i]->id] = i;
  }
  for (const auto& job : manifest.jobs) {
    const auto settled_it = settled.find(job.id);
    if (settled_it != settled.end()) {
      ++summary.skipped;
      if (settled_it->second.ok) {
        ++summary.done;
      } else {
        ++summary.failed;
      }
      summary.records.push_back(settled_it->second);
      continue;
    }
    const std::size_t idx = queued_index.at(job.id);
    if (!has_record[idx]) {
      ++summary.unrun; // never claimed before the batch stopped
      continue;
    }
    const JobRecord& rec = produced[idx];
    summary.records.push_back(rec);
    if (!rec.final_record) {
      ++summary.unrun; // interrupted mid-run; resume re-runs it
    } else if (rec.ok) {
      ++summary.done;
    } else {
      ++summary.failed;
    }
  }
  if (internal_stop.stop_requested()) {
    summary.stop_reason =
        static_cast<robust::StopReason>(batch_reason.load());
  }
  return summary;
}

} // namespace rcgp::batch
