#include "core/eval_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace rcgp::core {

/// Per-worker reusable state. Owned by exactly one thread during a
/// generation (worker i uses scratch_[i]; the caller thread is worker 0),
/// so nothing here needs synchronization.
struct EvalPool::Scratch {
  /// Base netlist whose port tables `cache`, whose liveness/levels `cost`
  /// and whose port consumers `consumers` currently hold.
  rqfp::Netlist base;
  rqfp::SimCache cache;
  rqfp::CostCache cost;
  ConsumerMap consumers;
  /// The EvalJob::parent_version `base` was synced at (0: not numbered).
  std::uint64_t base_version = 0;
  bool cache_valid = false;
  /// λ-batch scratch: the block's child pointers, their fitness slots, and
  /// the per-child simulation overlays (allocations persist across
  /// generations).
  std::vector<const rqfp::Netlist*> children;
  std::vector<Fitness> fitness;
  rqfp::DeltaBatch batch;
  double busy_seconds = 0.0;
  unsigned index = 0;
  obs::Counter* evals = nullptr;
};

namespace {

obs::Counter& pool_tasks() {
  static obs::Counter& c = obs::registry().counter("evolve.pool.tasks");
  return c;
}

obs::Counter& pool_early_rejects() {
  static obs::Counter& c =
      obs::registry().counter("evolve.pool.early_rejects");
  return c;
}

// λ-generation wall seconds: sub-ms through tens of seconds.
constexpr double kGenerationSecondsBounds[] = {
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0};

} // namespace

unsigned EvalPool::resolve_threads(unsigned requested, unsigned lambda) {
  const unsigned t =
      requested != 0 ? requested : std::thread::hardware_concurrency();
  const unsigned blocks = (lambda + kBlock - 1) / kBlock;
  return std::max(1u, std::min(t, blocks));
}

EvalPool::EvalPool(unsigned threads) : threads_(threads) {
  if (threads_ == 0) {
    throw std::invalid_argument("EvalPool: threads must be >= 1");
  }
  scratch_.reserve(threads_);
  for (unsigned i = 0; i < threads_; ++i) {
    auto s = std::make_unique<Scratch>();
    s->index = i;
    s->evals = &obs::registry().counter("evolve.pool.worker" +
                                        std::to_string(i) + ".evals");
    scratch_.push_back(std::move(s));
  }
  obs::registry().gauge("evolve.pool.threads").set(threads_);
  workers_.reserve(threads_ - 1);
  for (unsigned i = 1; i < threads_; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

EvalPool::~EvalPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

double EvalPool::utilization() const {
  if (span_seconds_ <= 0.0) {
    return 0.0;
  }
  return busy_seconds_ / (span_seconds_ * threads_);
}

void EvalPool::worker_main(unsigned index) {
  obs::set_thread_name("eval-worker-" + std::to_string(index));
  std::uint64_t seen = 0;
  for (;;) {
    const EvalJob* job = nullptr;
    OffspringResult* out = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_start_.wait(lock, [&] { return shutdown_ || job_id_ != seen; });
      if (shutdown_) {
        return;
      }
      seen = job_id_;
      // A retired job (the caller's barrier already opened before this
      // worker woke) is skipped entirely — job_ points into the caller's
      // stack frame and must never be read outside the job's lifetime.
      if (job_ == nullptr) {
        continue;
      }
      job = job_;
      out = out_;
      ++active_workers_;
    }
    run_tasks(*scratch_[index], *job, out);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_workers_;
    }
    cv_done_.notify_all();
  }
}

void EvalPool::run_tasks(Scratch& scratch, const EvalJob& job,
                         OffspringResult* out) {
  // One span per worker per generation: the Perfetto timeline shows each
  // worker's busy stretch, which is exactly the utilization picture.
  obs::Span span("eval.generation");
  span.arg("worker", scratch.index)
      .arg("gen", job.generation)
      .arg("lambda", job.lambda);
  util::Stopwatch watch;
  const unsigned lambda = job.lambda;
  // ⌈λ / threads⌉ per claim: each thread takes about one equal share, so
  // the workers finish together (λ = 9 on 3 threads runs 3/3/3, not 4/4/1).
  const unsigned block = (lambda + threads_ - 1) / threads_;
  for (;;) {
    const unsigned k0 = next_task_.fetch_add(block, std::memory_order_relaxed);
    if (k0 >= lambda) {
      break;
    }
    const unsigned k1 = std::min(k0 + block, lambda);
    if (!aborted_.load(std::memory_order_relaxed)) {
      // One abort poll per block keeps the granularity of the old
      // task-at-a-time loop without re-checking mid-batch; the abort
      // conditions are monotone, so a block that started is as valid to
      // finish as a single offspring was.
      if (job.should_abort && job.should_abort()) {
        aborted_.store(true, std::memory_order_relaxed);
      } else {
        evaluate_block(scratch, job, out, k0, k1);
      }
    }
    done_tasks_.fetch_add(k1 - k0, std::memory_order_acq_rel);
  }
  scratch.busy_seconds += watch.seconds();
}

void EvalPool::evaluate_block(Scratch& scratch, const EvalJob& job,
                              OffspringResult* out, unsigned k0,
                              unsigned k1) {
  const rqfp::Netlist& parent = *job.parent;

  // Bring this worker's caches to the current parent: a full build when
  // the shape changed (shrink on acceptance can drop gates), otherwise an
  // incremental commit of whatever drifted since this worker last looked.
  // The cost cache syncs in the same tiers, against the *old* base before
  // it is overwritten. The consumer map is refilled whenever the base
  // changes: one O(n) walk per accepted parent instead of one per child.
  // A numbered parent the base already holds needs no gene compare.
  const bool synced = job.parent_version != 0 &&
                      job.parent_version == scratch.base_version;
  if (!scratch.cache_valid ||
      scratch.base.num_gates() != parent.num_gates() ||
      scratch.base.num_pis() != parent.num_pis()) {
    rqfp::build_sim_cache(parent, scratch.cache);
    rqfp::build_cost_cache(parent, rqfp::BufferSchedule::kAsap, scratch.cost);
    scratch.base = parent;
    build_consumer_map(parent, scratch.consumers);
    scratch.cache_valid = true;
  } else if (!synced && !(scratch.base == parent)) {
    rqfp::update_sim_cache(scratch.base, parent, scratch.cache);
    rqfp::update_cost_cache(scratch.base, parent, scratch.cost);
    scratch.base = parent;
    build_consumer_map(parent, scratch.consumers);
  }
  scratch.base_version = job.parent_version;

  // Offspring k is a pure function of (seed, generation, k, parent): its
  // own counter-based RNG stream makes the result independent of which
  // worker ran it, in what order, and how the block boundaries fell.
  scratch.children.clear();
  for (unsigned k = k0; k < k1; ++k) {
    OffspringResult& slot = out[k];
    slot.child = parent;
    util::Rng rng = util::Rng::stream(job.seed, job.generation, k);
    slot.stats = mutate(slot.child, rng, job.mutation, scratch.consumers);
    scratch.children.push_back(&slot.child);
  }
  scratch.fitness.resize(scratch.children.size());
  evaluate_delta_batch(scratch.base, scratch.cache, scratch.cost,
                       scratch.children, job.spec, job.fitness,
                       scratch.batch, scratch.fitness, job.early_reject);
  for (unsigned k = k0; k < k1; ++k) {
    out[k].fitness = scratch.fitness[k - k0];
    scratch.evals->inc();
    pool_tasks().inc();
  }
  if (job.early_reject) {
    std::uint64_t rejects = 0;
    for (std::size_t c = 0; c < scratch.children.size(); ++c) {
      rejects += scratch.batch.children[c].rejected ? 1 : 0;
    }
    pool_early_rejects().inc(rejects);
  }
}

bool EvalPool::evaluate_generation(const EvalJob& job,
                                   std::span<OffspringResult> out) {
  if (job.lambda == 0) {
    return true;
  }
  if (out.size() < job.lambda) {
    throw std::invalid_argument("EvalPool: result span too small");
  }
  util::Stopwatch watch;
  next_task_.store(0, std::memory_order_relaxed);
  done_tasks_.store(0, std::memory_order_relaxed);
  aborted_.store(false, std::memory_order_relaxed);
  if (workers_.empty()) {
    // Inline path: same per-offspring code, no synchronization at all.
    run_tasks(*scratch_[0], job, out.data());
  } else {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = &job;
      out_ = out.data();
      ++job_id_;
    }
    cv_start_.notify_all();
    run_tasks(*scratch_[0], job, out.data()); // the caller is worker 0
    {
      // The barrier: every task counted AND every woken worker out of
      // run_tasks. Workers that never woke are harmless — job_ is retired
      // under the same mutex below, so a late waker skips the stale job.
      std::unique_lock<std::mutex> lock(mutex_);
      cv_done_.wait(lock, [&] {
        return done_tasks_.load(std::memory_order_acquire) >= job.lambda &&
               active_workers_ == 0;
      });
      job_ = nullptr;
      out_ = nullptr;
    }
  }
  const double gen_seconds = watch.seconds();
  span_seconds_ += gen_seconds;
  busy_seconds_ = 0.0;
  for (const auto& s : scratch_) {
    busy_seconds_ += s->busy_seconds;
  }
  static obs::Gauge& g_utilization =
      obs::registry().gauge("evolve.pool.utilization");
  static obs::Histogram& h_generation = obs::registry().histogram(
      "evolve.generation.seconds", kGenerationSecondsBounds);
  g_utilization.set(utilization());
  h_generation.observe(gen_seconds);
  return !aborted_.load(std::memory_order_relaxed);
}

} // namespace rcgp::core
