#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/fitness.hpp"
#include "core/mutation.hpp"
#include "rqfp/netlist.hpp"
#include "rqfp/simulate.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::core {

/// One evaluated offspring (slot k of a generation).
struct OffspringResult {
  rqfp::Netlist child;
  Fitness fitness;
  MutationStats stats;
};

/// One generation's worth of work for the pool.
struct EvalJob {
  const rqfp::Netlist* parent = nullptr;
  std::span<const tt::TruthTable> spec;
  MutationParams mutation;
  FitnessOptions fitness;
  std::uint64_t seed = 0;
  std::uint64_t generation = 0;
  unsigned lambda = 0;
  /// Stop simulating a child at its first output, in port order, that
  /// differs from the spec in word 0 (core::evaluate_delta_batch): its
  /// Fitness is that of a wrong child, with a success rate from that
  /// output alone. Selection never takes a wrong child over the correct
  /// parent, so a lineage is unchanged; only detail::continue_lineage
  /// sets it. Callers that compare every child's success_rate with a full
  /// evaluation leave it off.
  bool early_reject = false;
  /// Numbers `*parent` within one lineage, from 1 and new whenever the
  /// parent changes, so a worker whose base already holds that number
  /// skips comparing it with the parent gene by gene. 0 means "not
  /// numbered": the worker compares, as a caller that swaps parents under
  /// one pointer needs. Only detail::continue_lineage numbers its
  /// parents, and a pool must see one numbering.
  std::uint64_t parent_version = 0;
  /// Polled between offspring on every worker. Once it returns true the
  /// remaining offspring are skipped, evaluate_generation returns false,
  /// and the partially-filled results must be discarded — the abort
  /// conditions (stop token, deadline) are monotone, so the caller can
  /// re-derive the reason deterministically at the generation boundary.
  std::function<bool()> should_abort;
};

/// Persistent worker pool for deterministic λ-parallel offspring
/// evaluation (docs/PARALLELISM.md).
///
/// Offspring k of generation g is a pure function of (seed, g, k, parent):
/// it mutates its own parent copy under the counter-based RNG stream
/// util::Rng::stream(seed, g, k) and evaluates the result. Work is claimed
/// dynamically (first-free-worker), but since no offspring reads another's
/// state, the results are bit-identical for every thread count — including
/// threads == 1, which runs inline on the caller thread through the same
/// code path and is the reference "sequential loop".
///
/// The pool is sized from the work a generation can split: at most
/// ⌈λ / kBlock⌉ threads (resolve_threads), so no worker wakes without a
/// block to claim, and at the paper's λ = 4 every run takes the inline
/// threads == 1 path with no hand-off at all. Each generation is cut into
/// blocks of ⌈λ / threads⌉ offspring so the workers finish together, and
/// each block is evaluated through the delta path
/// (core::evaluate_delta_batch) against the worker's read-only base
/// SimCache: one forward pass per offspring evaluates only its changed
/// gates and their cone, reading the shared base rows and private
/// overlay rows, with no per-sibling undo/restore. Each child is mutated
/// from a copy of the worker's consumer map of the base, kept with the
/// caches, instead of a walk over the whole netlist. A worker compares its
/// base with the parent gene by gene and re-syncs its caches when they
/// differ, unless EvalJob::parent_version numbers a parent its base
/// already holds. With EvalJob::early_reject, a child is simulated no
/// further than its first output wrong in word 0
/// (evolve.pool.early_rejects counts them). Block partitioning cannot affect
/// results — each offspring is a pure function of (seed, g, k, parent) and
/// the batched simulation is bit-identical to a from-scratch one — so any
/// thread count, block size, and claim order produce the same generation.
class EvalPool {
public:
  /// threads must be >= 1; threads - 1 worker threads are spawned once
  /// and live until destruction (threads == 1 spawns none). Pass the
  /// result of resolve_threads: a wider pool still computes the same
  /// generation, it only claims smaller blocks.
  explicit EvalPool(unsigned threads);
  ~EvalPool();

  EvalPool(const EvalPool&) = delete;
  EvalPool& operator=(const EvalPool&) = delete;

  unsigned threads() const { return threads_; }

  /// Smallest block worth a worker of its own: a thread is only added per
  /// kBlock offspring, because a smaller share of a generation does not
  /// repay the two condition-variable hand-offs it costs.
  static constexpr unsigned kBlock = 4;

  /// Picks the pool width: `requested` (0 = hardware concurrency), capped
  /// at ⌈lambda / kBlock⌉ (at least 1). The cap applies to an explicit
  /// request too: results are bit-identical for every thread count.
  static unsigned resolve_threads(unsigned requested, unsigned lambda);

  /// Evaluates offspring 0..job.lambda-1 into out[k]; blocks until every
  /// slot is done. Returns false when job.should_abort tripped (the
  /// generation is incomplete and must be discarded by the caller).
  bool evaluate_generation(const EvalJob& job,
                           std::span<OffspringResult> out);

  /// Cumulative busy-fraction of the pool since construction:
  /// sum(per-worker busy seconds) / (generation wall seconds * threads).
  /// 1.0 means every thread was working the entire time.
  double utilization() const;

private:
  struct Scratch;

  void worker_main(unsigned index);
  void run_tasks(Scratch& scratch, const EvalJob& job, OffspringResult* out);
  void evaluate_block(Scratch& scratch, const EvalJob& job,
                      OffspringResult* out, unsigned k0, unsigned k1);

  unsigned threads_ = 1;
  std::vector<std::unique_ptr<Scratch>> scratch_;
  std::vector<std::thread> workers_;

  // Job hand-off: job_/out_/counters are published under mutex_ before
  // cv_start_ wakes the workers; completion is an atomic count with
  // release/acquire pairing so the caller sees every out_[k] write.
  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t job_id_ = 0;
  bool shutdown_ = false;
  unsigned active_workers_ = 0;
  const EvalJob* job_ = nullptr;
  OffspringResult* out_ = nullptr;
  std::atomic<unsigned> next_task_{0};
  std::atomic<unsigned> done_tasks_{0};
  std::atomic<bool> aborted_{false};

  double busy_seconds_ = 0.0;
  double span_seconds_ = 0.0;
};

} // namespace rcgp::core
