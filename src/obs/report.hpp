#pragma once

#include <string>

namespace rcgp::obs {

/// Inputs for `rcgp report`: any subset of the three artifacts a run can
/// export. Empty paths are skipped; at least one must be set.
struct RunReportInputs {
  std::string profile_path; ///< Chrome trace-event JSON (--profile-out)
  std::string trace_path;   ///< JSONL evolution trace (--trace-out)
  std::string metrics_path; ///< metrics JSON (--metrics-out), either the
                            ///< CLI {"flow":...,"metrics":...} shape or a
                            ///< bare registry snapshot
};

/// Renders the human-readable run report: per-phase time tree and
/// per-worker utilization (profile), span-latency percentiles (profile),
/// convergence summary and stagnation histogram (trace), and histogram
/// quantiles / phase gauges plus the simulation, service and island
/// digests (metrics). Throws std::runtime_error on an unreadable or
/// malformed input file.
std::string run_report(const RunReportInputs& inputs);

} // namespace rcgp::obs
