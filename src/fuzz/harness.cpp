#include "fuzz/harness.hpp"

#include <chrono>
#include <filesystem>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/durable.hpp"

namespace rcgp::fuzz {

namespace {

std::string case_stem(const Finding& f) {
  return f.target + "-s" + std::to_string(f.seed) + "-c" +
         std::to_string(f.case_index);
}

} // namespace

FuzzSummary run_fuzz(const FuzzOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  const std::vector<Target> targets =
      options.targets.empty() ? default_targets() : options.targets;

  std::error_code ec;
  const std::string work_dir = options.out_dir + "/work";
  std::filesystem::create_directories(work_dir, ec);
  if (ec) {
    throw std::runtime_error("fuzz: cannot create out dir: " +
                             options.out_dir + ": " + ec.message());
  }
  const std::string log_path = options.log_path.empty()
                                   ? options.out_dir + "/findings.jsonl"
                                   : options.log_path;
  FindingsLog log(log_path);

  auto& reg = obs::registry();
  FuzzSummary summary;
  summary.log_path = log_path;

  for (const Target target : targets) {
    obs::Span target_span(std::string("fuzz.") +
                          std::string(to_string(target)));
    const std::string tname(to_string(target));

    const std::uint64_t first =
        options.only_case.value_or(std::uint64_t{0});
    const std::uint64_t last =
        options.only_case ? *options.only_case + 1 : options.cases;
    for (std::uint64_t index = first; index < last; ++index) {
      if (const auto stop = options.budget.interrupted(elapsed())) {
        summary.stop_reason = *stop;
        break;
      }

      obs::Span case_span("fuzz.case");
      CaseContext ctx;
      ctx.seed = options.seed;
      ctx.index = index;
      ctx.work_dir = work_dir;
      ctx.do_shrink = options.shrink;

      std::vector<Finding> findings;
      try {
        run_case(target, ctx, findings);
      } catch (const std::exception& e) {
        Finding f;
        f.target = tname;
        f.seed = options.seed;
        f.case_index = index;
        f.kind = "unhandled-exception";
        f.detail = e.what();
        findings.push_back(std::move(f));
      }

      ++summary.cases_run;
      reg.counter("fuzz.cases").inc();
      reg.counter("fuzz." + tname + ".cases").inc();
      reg.counter("fuzz.shrink.attempts").inc(ctx.shrink_stats.attempts);
      reg.counter("fuzz.shrink.accepted").inc(ctx.shrink_stats.accepted);

      for (Finding& f : findings) {
        const std::string stem = case_stem(f);
        if (!f.reproducer.empty()) {
          f.reproducer_path = stem + f.reproducer_ext;
          util::write_file_durable(options.out_dir + "/" + f.reproducer_path,
                                   f.reproducer);
        }
        if (!f.reproducer2.empty()) {
          f.reproducer2_path = stem + "-b" + f.reproducer2_ext;
          util::write_file_durable(options.out_dir + "/" + f.reproducer2_path,
                                   f.reproducer2);
        }
        f.repro_command = "rcgp fuzz --targets=" + f.target +
                          " --seed=" + std::to_string(f.seed) +
                          " --case=" + std::to_string(f.case_index);
        log.append(f);
        ++summary.findings;
        reg.counter("fuzz.findings").inc();
        reg.counter("fuzz." + tname + ".findings").inc();
        if (options.on_finding) {
          options.on_finding(f);
        }
      }
    }
    if (summary.stop_reason != robust::StopReason::kCompleted) {
      break;
    }
  }

  summary.seconds = elapsed();
  reg.gauge("fuzz.seconds").add(summary.seconds);
  return summary;
}

} // namespace rcgp::fuzz
