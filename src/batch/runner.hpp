#pragma once

#include <functional>
#include <string>
#include <vector>

#include "batch/execute.hpp"
#include "batch/manifest.hpp"
#include "batch/results.hpp"
#include "robust/stop.hpp"

namespace rcgp::obs {
class TraceSink;
}

namespace rcgp::batch {

struct BatchOptions {
  /// Worker threads sharding the job list (0 = hardware concurrency,
  /// clamped to the job count). Per-job results are bit-identical for
  /// every worker count.
  unsigned workers = 1;
  /// Output directory: results store (`results.jsonl`), per-job netlists
  /// (`<id>.rqfp`), and per-job checkpoints (`<id>.ckpt`). Created if
  /// missing.
  std::string out_dir = "batch_out";
  /// Re-run only jobs without a final record in the existing results
  /// store; finished jobs are reported as skipped. Without resume an
  /// existing store is truncated.
  bool resume = false;
  /// Integrity-retry budget per job; a manifest `retries` field overrides.
  unsigned default_retries = 1;
  /// Batch-level limits: deadline_seconds and stop are enforced (workers
  /// stop claiming jobs and running jobs are interrupted cooperatively);
  /// the generation/evaluation ceilings are per-job concerns and ignored
  /// here.
  robust::RunBudget budget;
  /// How each job runs (batch/execute.hpp). Its checkpoint_interval also
  /// switches per-job checkpoints (`<out-dir>/<id>.ckpt`, kEvolve jobs
  /// only) off at 0; threads_per_job stays 1 by default, because batch
  /// parallelism comes from sharding jobs, not from splitting one. A
  /// shared result cache is saved once after the batch.
  ExecuteOptions execute;
  /// Optional structured trace: one `batch_job` event per settled job
  /// (worker/attempt/cost attribution) and a final `batch_end` summary.
  /// The sink must outlive run_batch. Not owned.
  obs::TraceSink* trace = nullptr;
  JobExecutor executor;                         ///< test hook
  std::function<void(const JobRecord&)> on_record; ///< after each append
};

/// Outcome of a whole batch. `records` holds one entry per manifest job
/// that has a record — from this run or, for skipped jobs, from the
/// resumed store — in manifest order.
struct BatchSummary {
  std::vector<JobRecord> records;
  unsigned total = 0;   ///< manifest jobs
  unsigned done = 0;    ///< final ok (including previously finished)
  unsigned failed = 0;  ///< final failures (including previous)
  unsigned skipped = 0; ///< already final in the store (resume)
  unsigned unrun = 0;   ///< no final record: never claimed or interrupted
  robust::StopReason stop_reason = robust::StopReason::kCompleted;
  double seconds = 0.0;
  std::string results_path;

  bool all_ok() const { return failed == 0 && unrun == 0; }
};

/// Runs every manifest job across a worker pool. Deterministic contract
/// (docs/BATCH.md): with fixed manifest and seeds, the deterministic
/// record fields and written netlists are bit-identical for any worker
/// count, and a killed batch resumed with `resume = true` completes only
/// the unfinished jobs with identical results.
BatchSummary run_batch(const Manifest& manifest, const BatchOptions& options);

} // namespace rcgp::batch
