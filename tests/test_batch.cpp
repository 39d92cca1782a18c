#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "batch/execute.hpp"
#include "batch/manifest.hpp"
#include "batch/results.hpp"
#include "batch/runner.hpp"
#include "benchmarks/benchmarks.hpp"
#include "cache/store.hpp"
#include "io/io.hpp"
#include "io/parse_error.hpp"
#include "io/rqfp_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "robust/integrity.hpp"
#include "robust/stop.hpp"
#include "rqfp/gate.hpp"
#include "rqfp/netlist.hpp"

namespace rcgp::batch {
namespace {

std::string temp_dir(const std::string& name) {
  const auto dir =
      std::filesystem::temp_directory_path() / ("rcgp_batch_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// ---------- manifest ----------

void expect_parse_error(const std::string& text, const std::string& fragment,
                        std::size_t line) {
  try {
    parse_manifest_string(text);
    FAIL() << "expected io::ParseError with: " << fragment;
  } catch (const io::ParseError& e) {
    const std::string what = e.what();
    const std::string prefix =
        "manifest:<string>:" + std::to_string(line) + ":";
    EXPECT_NE(what.find(prefix), std::string::npos) << what;
    EXPECT_NE(what.find(fragment), std::string::npos) << what;
  }
}

TEST(Manifest, ParsesJobsWithOverrides) {
  const std::string text =
      "# batch of two\n"
      "\n"
      "{\"id\":\"j1\",\"circuit\":\"full_adder\"}\n"
      "{\"id\":\"j2\", \"circuit\": \"decoder_2_4\", \"algorithm\": "
      "\"anneal\", \"generations\": 500, \"seed\": 9, \"restarts\": 3, "
      "\"deadline_seconds\": 1.5, \"max_evaluations\": 1000, "
      "\"retries\": 0}\n";
  const Manifest m = parse_manifest_string(text);
  ASSERT_EQ(m.jobs.size(), 2u);
  EXPECT_EQ(m.jobs[0].id, "j1");
  EXPECT_EQ(m.jobs[0].circuit, "full_adder");
  EXPECT_EQ(m.jobs[0].algorithm, core::Algorithm::kEvolve);
  EXPECT_EQ(m.jobs[0].generations, 0u);
  EXPECT_EQ(m.jobs[0].retries, -1);
  EXPECT_EQ(m.jobs[0].line, 3u);
  EXPECT_EQ(m.jobs[1].algorithm, core::Algorithm::kAnneal);
  EXPECT_EQ(m.jobs[1].generations, 500u);
  EXPECT_EQ(m.jobs[1].seed, 9u);
  // "restarts" only means something next to "algorithm": "multistart".
  EXPECT_EQ(m.jobs[1].islands, 0u);
  EXPECT_DOUBLE_EQ(m.jobs[1].deadline_seconds, 1.5);
  EXPECT_EQ(m.jobs[1].max_evaluations, 1000u);
  EXPECT_EQ(m.jobs[1].retries, 0);
  EXPECT_EQ(m.jobs[1].line, 4u);
}

TEST(Manifest, RejectsMalformedLinesWithContext) {
  expect_parse_error("{\"id\":\"a\",\"circuit\":\"c\"\n", "malformed JSON",
                     1);
  expect_parse_error("{\"id\":\"a\",\"circuit\":\"c\",\"color\":\"red\"}\n",
                     "unknown key \"color\"", 1);
  expect_parse_error(
      "{\"id\":\"a\",\"circuit\":\"c\"}\n"
      "{\"id\":\"a\",\"circuit\":\"d\"}\n",
      "duplicate job id \"a\"", 2);
  expect_parse_error(
      "{\"id\":\"a\",\"circuit\":\"c\",\"limits\":{\"g\":1}}\n",
      "unknown key \"limits\"", 1);
  expect_parse_error(
      "{\"id\":\"a\",\"circuit\":\"c\",\"generations\":{\"g\":1}}\n",
      "must be a number", 1);
  expect_parse_error(
      "{\"id\":\"a\",\"circuit\":\"c\",\"schema\":99}\n",
      "unsupported schema version", 1);
  expect_parse_error(
      "{\"id\":\"a\",\"circuit\":\"c\",\"id\":\"b\"}\n",
      "duplicate key \"id\"", 1);
  expect_parse_error(
      "{\"id\":\"a\",\"circuit\":\"c\",\"spec\":[\"e8\"],\"spec_vars\":3}\n",
      "mutually exclusive", 1);
  expect_parse_error("{\"id\":\"a\",\"spec\":[\"e8\"]}\n",
                     "requires \"spec_vars\"", 1);
  expect_parse_error("{\"circuit\":\"c\"}\n", "missing required key \"id\"",
                     1);
  expect_parse_error("{\"id\":\"a\"}\n", "missing required key \"circuit\"",
                     1);
  expect_parse_error(
      "{\"id\":\"a\",\"circuit\":\"c\",\"algorithm\":\"magic\"}\n",
      "unknown optimizer algorithm", 1);
  expect_parse_error(
      "{\"id\":\"a\",\"circuit\":\"c\",\"generations\":\"many\"}\n",
      "must be a number", 1);
  expect_parse_error(
      "{\"id\":\"a\",\"circuit\":\"c\",\"generations\":-5}\n",
      "non-negative integer", 1);
  expect_parse_error("{\"id\":\"a/b\",\"circuit\":\"c\"}\n",
                     "filesystem-safe", 1);
  expect_parse_error("# only comments\n\n", "manifest contains no jobs", 2);
}

TEST(Manifest, MissingFileReportsLineZero) {
  try {
    parse_manifest_file("/nonexistent/batch.jsonl");
    FAIL() << "expected io::ParseError";
  } catch (const io::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open file"),
              std::string::npos);
    EXPECT_EQ(e.line(), 0u);
  }
}

// ---------- results store ----------

TEST(Results, RecordRoundTrips) {
  JobRecord r;
  r.id = "job-1";
  r.ok = true;
  r.final_record = true;
  r.stop_reason = "completed";
  r.verified = true;
  r.n_r = 7;
  r.n_b = 12;
  r.jjs = 216;
  r.n_d = 4;
  r.n_g = 1;
  r.netlist_path = "out/job-1.rqfp";
  r.attempts = 2;
  r.worker = 3;
  r.seconds = 0.125;
  const auto back = parse_record(to_json(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->id, r.id);
  EXPECT_TRUE(back->ok);
  EXPECT_TRUE(back->final_record);
  EXPECT_EQ(back->stop_reason, "completed");
  EXPECT_TRUE(back->verified);
  EXPECT_EQ(back->n_r, 7u);
  EXPECT_EQ(back->n_b, 12u);
  EXPECT_EQ(back->jjs, 216u);
  EXPECT_EQ(back->n_d, 4u);
  EXPECT_EQ(back->n_g, 1u);
  EXPECT_EQ(back->netlist_path, "out/job-1.rqfp");
  EXPECT_EQ(back->attempts, 2u);
  EXPECT_EQ(back->worker, 3u);
  EXPECT_DOUBLE_EQ(back->seconds, 0.125);
}

TEST(Results, FailureRecordKeepsError) {
  JobRecord r;
  r.id = "bad";
  r.ok = false;
  r.final_record = true;
  r.stop_reason = "error";
  r.error = "integrity: \"quoted\" detail";
  const auto back = parse_record(to_json(r));
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->ok);
  EXPECT_EQ(back->error, "integrity: \"quoted\" detail");
}

TEST(Results, LoadSkipsTornTail) {
  const std::string dir = temp_dir("torn");
  const std::string path = dir + "/results.jsonl";
  {
    ResultsStore store(path);
    JobRecord a;
    a.id = "a";
    a.ok = true;
    store.append(a);
    JobRecord b;
    b.id = "b";
    store.append(b);
  }
  {
    // Simulate a crash mid-append: a torn, unterminated final line.
    std::ofstream out(path, std::ios::app);
    out << "{\"id\":\"c\",\"ok\":tr";
  }
  const auto records = ResultsStore::load(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].id, "a");
  EXPECT_TRUE(records[0].ok);
  EXPECT_EQ(records[1].id, "b");
  EXPECT_FALSE(records[1].ok);

  // The resumed batch reopens the store: its first record must land on a
  // line of its own, not glued onto the torn fragment.
  {
    ResultsStore store(path);
    JobRecord d;
    d.id = "d";
    d.ok = true;
    store.append(d);
  }
  const auto resumed = ResultsStore::load(path);
  ASSERT_EQ(resumed.size(), 3u);
  EXPECT_EQ(resumed[2].id, "d");
  EXPECT_TRUE(resumed[2].ok);
}

// ---------- runner (injected executors) ----------

rqfp::Netlist tiny_netlist() {
  rqfp::Netlist net(2);
  const auto g = net.add_gate({1, 2, rqfp::kConstPort},
                              rqfp::InvConfig::from_rows(5, 6, 4));
  net.add_po(net.port_of(g, 2), "f");
  return net;
}

JobExecution ok_execution() {
  JobExecution exec;
  exec.flow.optimized = tiny_netlist();
  exec.flow.optimized_cost.n_r = 1;
  exec.flow.optimized_cost.jjs = 24;
  exec.verified = true;
  return exec;
}

/// Sleeps in small slices while honoring the batch stop token, like a real
/// optimizer loop polling between evaluations.
JobExecution slow_ok_execution(const JobContext& ctx, int millis) {
  for (int waited = 0; waited < millis; waited += 5) {
    if (ctx.stop != nullptr && ctx.stop->stop_requested()) {
      JobExecution exec;
      exec.stop_reason = robust::StopReason::kStopRequested;
      return exec;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return ok_execution();
}

TEST(Runner, RetriesIntegrityFailuresThenSucceeds) {
  obs::registry().reset_values();
  const Manifest m = parse_manifest_string(
      "{\"id\":\"a\",\"circuit\":\"x\"}\n"
      "{\"id\":\"b\",\"circuit\":\"x\"}\n");
  std::mutex mu;
  std::map<std::string, unsigned> attempts_seen;
  BatchOptions opt;
  opt.out_dir = temp_dir("retry");
  opt.default_retries = 1;
  opt.executor = [&](const Job& job, const JobContext& ctx) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      attempts_seen[job.id] = ctx.attempt;
    }
    if (ctx.attempt == 1) {
      throw robust::IntegrityError(robust::IntegrityError::Kind::kInvariant,
                                   "test", "injected fault");
    }
    return ok_execution();
  };
  const BatchSummary s = run_batch(m, opt);
  EXPECT_EQ(s.done, 2u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_TRUE(s.all_ok());
  ASSERT_EQ(s.records.size(), 2u);
  for (const auto& rec : s.records) {
    EXPECT_TRUE(rec.ok);
    EXPECT_EQ(rec.attempts, 2u);
    EXPECT_TRUE(std::filesystem::exists(rec.netlist_path));
  }
  EXPECT_EQ(attempts_seen["a"], 2u);
  EXPECT_EQ(attempts_seen["b"], 2u);
  EXPECT_EQ(obs::registry().counter("batch.jobs.retried").value(), 2u);
  EXPECT_EQ(obs::registry().counter("batch.jobs.done").value(), 2u);
  EXPECT_EQ(obs::registry().counter("batch.jobs.queued").value(), 2u);
}

TEST(Runner, RetryBudgetExhaustionFailsTheJob) {
  const Manifest m =
      parse_manifest_string("{\"id\":\"a\",\"circuit\":\"x\"}\n");
  BatchOptions opt;
  opt.out_dir = temp_dir("exhaust");
  opt.default_retries = 2;
  opt.executor = [](const Job&, const JobContext&) -> JobExecution {
    throw robust::IntegrityError(robust::IntegrityError::Kind::kFunctional,
                                 "test", "always broken");
  };
  const BatchSummary s = run_batch(m, opt);
  EXPECT_EQ(s.done, 0u);
  EXPECT_EQ(s.failed, 1u);
  ASSERT_EQ(s.records.size(), 1u);
  EXPECT_FALSE(s.records[0].ok);
  EXPECT_TRUE(s.records[0].final_record);
  EXPECT_EQ(s.records[0].attempts, 3u); // 1 try + 2 retries
  EXPECT_EQ(s.records[0].stop_reason, "error");
  EXPECT_NE(s.records[0].error.find("always broken"), std::string::npos);
}

TEST(Runner, ManifestRetriesOverrideTheBatchDefault) {
  const Manifest m = parse_manifest_string(
      "{\"id\":\"a\",\"circuit\":\"x\",\"retries\":0}\n");
  BatchOptions opt;
  opt.out_dir = temp_dir("override");
  opt.default_retries = 5;
  opt.executor = [](const Job&, const JobContext&) -> JobExecution {
    throw robust::IntegrityError(robust::IntegrityError::Kind::kChecksum,
                                 "test", "broken");
  };
  const BatchSummary s = run_batch(m, opt);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.records[0].attempts, 1u); // retries:0 wins over default 5
}

TEST(Runner, OrdinaryExceptionFailsWithoutRetry) {
  const Manifest m =
      parse_manifest_string("{\"id\":\"a\",\"circuit\":\"x\"}\n");
  BatchOptions opt;
  opt.out_dir = temp_dir("throw");
  opt.default_retries = 3;
  opt.executor = [](const Job&, const JobContext&) -> JobExecution {
    throw std::runtime_error("no such circuit");
  };
  const BatchSummary s = run_batch(m, opt);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.records[0].attempts, 1u);
  EXPECT_NE(s.records[0].error.find("no such circuit"), std::string::npos);
}

TEST(Runner, UnverifiedResultIsAFinalFailure) {
  const Manifest m =
      parse_manifest_string("{\"id\":\"a\",\"circuit\":\"x\"}\n");
  BatchOptions opt;
  opt.out_dir = temp_dir("unverified");
  opt.executor = [](const Job&, const JobContext&) {
    JobExecution exec = ok_execution();
    exec.verified = false;
    return exec;
  };
  const BatchSummary s = run_batch(m, opt);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_TRUE(s.records[0].final_record);
  EXPECT_FALSE(s.records[0].ok);
  EXPECT_NE(s.records[0].error.find("verification"), std::string::npos);
  EXPECT_TRUE(s.records[0].netlist_path.empty());
}

TEST(Runner, PreTrippedStopLeavesEveryJobUnrun) {
  const Manifest m = parse_manifest_string(
      "{\"id\":\"a\",\"circuit\":\"x\"}\n"
      "{\"id\":\"b\",\"circuit\":\"x\"}\n"
      "{\"id\":\"c\",\"circuit\":\"x\"}\n");
  robust::StopToken stop;
  stop.request_stop();
  BatchOptions opt;
  opt.out_dir = temp_dir("prestopped");
  opt.workers = 1;
  opt.budget.stop = &stop;
  opt.executor = [](const Job&, const JobContext& ctx) {
    return slow_ok_execution(ctx, 50);
  };
  const BatchSummary s = run_batch(m, opt);
  EXPECT_EQ(s.done, 0u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.unrun, 3u);
  EXPECT_EQ(s.stop_reason, robust::StopReason::kStopRequested);
}

TEST(Runner, BatchDeadlineStopsClaimingJobs) {
  const Manifest m = parse_manifest_string(
      "{\"id\":\"a\",\"circuit\":\"x\"}\n"
      "{\"id\":\"b\",\"circuit\":\"x\"}\n"
      "{\"id\":\"c\",\"circuit\":\"x\"}\n"
      "{\"id\":\"d\",\"circuit\":\"x\"}\n");
  BatchOptions opt;
  opt.out_dir = temp_dir("deadline");
  opt.workers = 1;
  opt.budget.deadline_seconds = 0.08;
  opt.executor = [](const Job&, const JobContext& ctx) {
    return slow_ok_execution(ctx, 30);
  };
  const BatchSummary s = run_batch(m, opt);
  EXPECT_EQ(s.stop_reason, robust::StopReason::kTimeLimit);
  EXPECT_GE(s.unrun, 1u);
  EXPECT_EQ(s.done + s.failed + s.unrun, s.total);
}

TEST(Runner, KillMidBatchThenResumeRunsOnlyUnfinishedJobs) {
  const Manifest m = parse_manifest_string(
      "{\"id\":\"j1\",\"circuit\":\"x\"}\n"
      "{\"id\":\"j2\",\"circuit\":\"x\"}\n"
      "{\"id\":\"j3\",\"circuit\":\"x\"}\n");
  const std::string dir = temp_dir("killresume");

  // First run: the batch is "killed" (stop token tripped) right after the
  // first record lands, so j2 is interrupted mid-run and j3 never starts.
  robust::StopToken stop;
  BatchOptions first;
  first.out_dir = dir;
  first.workers = 1;
  first.budget.stop = &stop;
  first.executor = [](const Job&, const JobContext& ctx) {
    return slow_ok_execution(ctx, 40);
  };
  first.on_record = [&stop](const JobRecord&) { stop.request_stop(); };
  const BatchSummary s1 = run_batch(m, first);
  EXPECT_EQ(s1.done, 1u);
  EXPECT_EQ(s1.unrun, 2u);
  EXPECT_EQ(s1.stop_reason, robust::StopReason::kStopRequested);

  // Resume: only the unfinished jobs run; the finished one is skipped.
  std::mutex mu;
  std::set<std::string> ran;
  BatchOptions second;
  second.out_dir = dir;
  second.workers = 1;
  second.resume = true;
  second.executor = [&](const Job& job, const JobContext&) {
    {
      const std::lock_guard<std::mutex> lock(mu);
      ran.insert(job.id);
    }
    return ok_execution();
  };
  const BatchSummary s2 = run_batch(m, second);
  EXPECT_EQ(s2.done, 3u);
  EXPECT_EQ(s2.skipped, 1u);
  EXPECT_EQ(s2.unrun, 0u);
  EXPECT_TRUE(s2.all_ok());
  EXPECT_EQ(ran, (std::set<std::string>{"j2", "j3"}));
  ASSERT_EQ(s2.records.size(), 3u);
  EXPECT_EQ(s2.records[0].id, "j1"); // manifest order preserved
  EXPECT_EQ(s2.records[1].id, "j2");
  EXPECT_EQ(s2.records[2].id, "j3");
}

// ---------- runner (real synthesis flow) ----------

const char* kRealManifest =
    "{\"id\":\"fa\",\"circuit\":\"full_adder\",\"generations\":400,"
    "\"seed\":7}\n"
    "{\"id\":\"dec\",\"circuit\":\"decoder_2_4\",\"generations\":400,"
    "\"seed\":9}\n"
    "{\"id\":\"gc\",\"circuit\":\"graycode4\",\"generations\":300,"
    "\"seed\":11,\"algorithm\":\"anneal\"}\n";

void expect_same_results(const BatchSummary& a, const BatchSummary& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const JobRecord& ra = a.records[i];
    const JobRecord& rb = b.records[i];
    EXPECT_EQ(ra.id, rb.id);
    EXPECT_EQ(ra.ok, rb.ok);
    EXPECT_EQ(ra.stop_reason, rb.stop_reason);
    EXPECT_EQ(ra.verified, rb.verified);
    EXPECT_EQ(ra.n_r, rb.n_r) << ra.id;
    EXPECT_EQ(ra.n_b, rb.n_b) << ra.id;
    EXPECT_EQ(ra.jjs, rb.jjs) << ra.id;
    EXPECT_EQ(ra.n_d, rb.n_d) << ra.id;
    EXPECT_EQ(ra.n_g, rb.n_g) << ra.id;
    // Netlist files must be byte-identical, not just same-cost.
    EXPECT_EQ(read_file(ra.netlist_path), read_file(rb.netlist_path))
        << ra.id;
  }
}

TEST(Runner, StopBeforeTheOptimizerLeavesTheJobForResume) {
  // The token trips after the job is claimed but before its flow starts:
  // the flow skips CGP, so the record is a non-final stop-requested one,
  // not a completed job holding the unoptimized baseline.
  const Manifest m = parse_manifest_string(
      "{\"id\":\"fa\",\"circuit\":\"full_adder\",\"generations\":400,"
      "\"seed\":7}\n");
  const std::string dir = temp_dir("stopbeforecgp");
  BatchOptions first;
  first.out_dir = dir;
  first.workers = 1;
  first.executor = [&first](const Job& job, const JobContext& ctx) {
    ctx.stop->request_stop();
    return execute_request(job, ctx, first.execute);
  };
  const BatchSummary s1 = run_batch(m, first);
  EXPECT_EQ(s1.done, 0u);
  EXPECT_EQ(s1.unrun, 1u);
  const auto stored = ResultsStore::load(dir + "/results.jsonl");
  ASSERT_EQ(stored.size(), 1u);
  EXPECT_FALSE(stored[0].final_record);
  EXPECT_FALSE(stored[0].ok);
  EXPECT_EQ(stored[0].stop_reason, "stop-requested");

  BatchOptions second;
  second.out_dir = dir;
  second.workers = 1;
  second.resume = true;
  const BatchSummary s2 = run_batch(m, second);
  EXPECT_EQ(s2.done, 1u);
  EXPECT_EQ(s2.skipped, 0u);
  ASSERT_EQ(s2.records.size(), 1u);
  EXPECT_TRUE(s2.records[0].ok);
  EXPECT_EQ(s2.records[0].stop_reason, "completed");

  BatchOptions uninterrupted;
  uninterrupted.out_dir = temp_dir("stopbeforecgp_ref");
  uninterrupted.workers = 1;
  expect_same_results(run_batch(m, uninterrupted), s2);
}

TEST(Runner, ResultsAreBitIdenticalForAnyWorkerCount) {
  const Manifest m = parse_manifest_string(kRealManifest);
  BatchOptions one;
  one.out_dir = temp_dir("workers1");
  one.workers = 1;
  const BatchSummary s1 = run_batch(m, one);
  ASSERT_EQ(s1.done, 3u) << "baseline batch must fully succeed";

  BatchOptions three;
  three.out_dir = temp_dir("workers3");
  three.workers = 3;
  const BatchSummary s3 = run_batch(m, three);
  ASSERT_EQ(s3.done, 3u);
  expect_same_results(s1, s3);
}

TEST(Runner, KilledRealRunResumesBitIdentically) {
  // One job big enough (~2 s) that an 80 ms batch deadline reliably
  // interrupts it mid-evolve, after at least one checkpoint write.
  const Manifest m = parse_manifest_string(
      "{\"id\":\"dec\",\"circuit\":\"decoder_2_4\",\"generations\":60000,"
      "\"seed\":21}\n");

  BatchOptions reference;
  reference.out_dir = temp_dir("ref");
  reference.execute.checkpoint_interval = 500;
  const BatchSummary sr = run_batch(m, reference);
  ASSERT_EQ(sr.done, 1u);

  BatchOptions killed;
  killed.out_dir = temp_dir("killed");
  killed.execute.checkpoint_interval = 500;
  killed.budget.deadline_seconds = 0.08;
  const BatchSummary sk = run_batch(m, killed);
  ASSERT_EQ(sk.done, 0u);
  ASSERT_EQ(sk.unrun, 1u);
  EXPECT_EQ(sk.stop_reason, robust::StopReason::kTimeLimit);

  BatchOptions resumed;
  resumed.out_dir = killed.out_dir;
  resumed.execute.checkpoint_interval = 500;
  resumed.resume = true;
  const BatchSummary s2 = run_batch(m, resumed);
  ASSERT_EQ(s2.done, 1u);
  expect_same_results(sr, s2);
}

TEST(Runner, ResumeSkipsFinalFailuresToo) {
  const Manifest m = parse_manifest_string(
      "{\"id\":\"a\",\"circuit\":\"x\"}\n"
      "{\"id\":\"b\",\"circuit\":\"x\"}\n");
  const std::string dir = temp_dir("skipfail");
  BatchOptions first;
  first.out_dir = dir;
  first.default_retries = 0;
  first.executor = [](const Job& job, const JobContext&) -> JobExecution {
    if (job.id == "a") {
      throw std::runtime_error("permanent failure");
    }
    return ok_execution();
  };
  const BatchSummary s1 = run_batch(m, first);
  EXPECT_EQ(s1.done, 1u);
  EXPECT_EQ(s1.failed, 1u);

  BatchOptions second;
  second.out_dir = dir;
  second.resume = true;
  second.executor = [](const Job&, const JobContext&) -> JobExecution {
    ADD_FAILURE() << "resume must not re-run settled jobs";
    return ok_execution();
  };
  const BatchSummary s2 = run_batch(m, second);
  EXPECT_EQ(s2.skipped, 2u); // final failures are settled, not retried
  EXPECT_EQ(s2.done, 1u);
  EXPECT_EQ(s2.failed, 1u);
}

TEST(Runner, ContextNamesTheFleetDirectoryBesideTheCheckpoint) {
  const Manifest m =
      parse_manifest_string("{\"id\":\"a\",\"circuit\":\"x\"}\n");
  BatchOptions opt;
  opt.out_dir = temp_dir("fleetdir");
  JobContext seen;
  opt.executor = [&seen](const Job&, const JobContext& ctx) {
    seen = ctx;
    return ok_execution();
  };
  run_batch(m, opt);
  EXPECT_EQ(seen.checkpoint_path, opt.out_dir + "/a.ckpt");
  EXPECT_EQ(seen.fleet_dir, fleet_state_dir(seen.checkpoint_path));

  opt.execute.checkpoint_interval = 0; // no checkpoints: fleet in memory
  run_batch(m, opt);
  EXPECT_TRUE(seen.checkpoint_path.empty());
  EXPECT_TRUE(seen.fleet_dir.empty());
}

TEST(Runner, WorkerMetricsAccountForEveryRecord) {
  obs::registry().reset_values();
  const Manifest m = parse_manifest_string(kRealManifest);
  BatchOptions opt;
  opt.out_dir = temp_dir("metrics");
  opt.workers = 2;
  opt.executor = [](const Job&, const JobContext&) { return ok_execution(); };
  const BatchSummary s = run_batch(m, opt);
  EXPECT_EQ(s.done, 3u);
  auto& reg = obs::registry();
  const std::uint64_t finished = reg.counter("batch.jobs.done").value() +
                                 reg.counter("batch.jobs.failed").value() +
                                 reg.counter("batch.jobs.interrupted").value();
  EXPECT_EQ(finished, 3u);
  EXPECT_EQ(reg.counter("batch.jobs.queued").value(), 3u);
  std::uint64_t per_worker = 0;
  for (unsigned w = 0; w < 2; ++w) {
    per_worker +=
        reg.counter("batch.worker" + std::to_string(w) + ".jobs").value();
  }
  EXPECT_EQ(per_worker, finished);
  EXPECT_GE(reg.gauge("batch.workers").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("batch.jobs.running").value(), 0.0);
}

// ---------- the shared job path (batch/execute.hpp) ----------

core::SynthesisRequest full_adder_job() {
  core::SynthesisRequest job;
  job.id = "j";
  job.circuit = "full_adder";
  job.generations = 300;
  job.seed = 3;
  return job;
}

TEST(ResolveCircuit, AigFilesKeepTheirStructureAndOutputNames) {
  const std::string path = temp_dir("resolve_blif") + "/maj3.blif";
  std::ofstream(path) << ".model maj3\n.inputs a b c\n.outputs m\n"
                         ".names a b c m\n11- 1\n1-1 1\n-11 1\n.end\n";
  const Circuit c = resolve_circuit(path);
  ASSERT_TRUE(c.aig.has_value());
  ASSERT_EQ(c.spec.size(), 1u);
  EXPECT_EQ(c.po_names, std::vector<std::string>{"m"});
  EXPECT_EQ(c.flow_input().po_name(0), "m");
}

TEST(ResolveCircuit, RqfpFilesKeepTheirOutputNames) {
  const std::string path = temp_dir("resolve_rqfp") + "/tiny.rqfp";
  io::write_network(tiny_netlist(), path);
  const Circuit c = resolve_circuit(path);
  EXPECT_FALSE(c.aig.has_value());
  EXPECT_EQ(c.po_names, std::vector<std::string>{"f"});
  EXPECT_EQ(c.flow_input().po_name(0), "f");
}

TEST(ResolveCircuit, InlineSpecWinsAndBenchmarksEnterThroughTables) {
  const Circuit bench = resolve_circuit("full_adder");
  EXPECT_FALSE(bench.aig.has_value());
  EXPECT_EQ(bench.spec, benchmarks::get("full_adder").spec);
  const Circuit inline_spec = resolve_circuit("no_such_circuit", bench.spec);
  EXPECT_EQ(inline_spec.spec, bench.spec);
  EXPECT_THROW(resolve_circuit("no_such_circuit"), std::exception);
}

TEST(ExecuteRequest, BaseFlowSwitchesReachTheFlow) {
  core::FlowOptions base;
  base.run_cgp = false;
  const JobExecution exec =
      execute_request(full_adder_job(), JobContext{}, ExecuteOptions{}, base);
  EXPECT_TRUE(exec.verified);
  EXPECT_EQ(exec.flow.optimized_cost, exec.flow.initial_cost);
  EXPECT_EQ(exec.flow.phase_seconds("cgp"), 0.0);
}

TEST(ExecuteRequest, AnnealRunsTheRequestedStepsAndSeed) {
  core::SynthesisRequest job = full_adder_job();
  job.algorithm = core::Algorithm::kAnneal;
  const JobExecution a = execute_request(job, JobContext{}, ExecuteOptions{});
  EXPECT_TRUE(a.verified);
  EXPECT_EQ(a.flow.optimization.anneal.steps_run, 300u);
  const JobExecution b = execute_request(job, JobContext{}, ExecuteOptions{});
  EXPECT_EQ(io::write_rqfp_string(a.flow.optimized),
            io::write_rqfp_string(b.flow.optimized));
}

TEST(ExecuteRequest, CacheHitFillsOnlyTheOptimizedResultAndTracesIt) {
  cache::Store store; // unbound: never touches the disk
  ExecuteOptions options;
  options.cache = &store;
  const JobExecution miss =
      execute_request(full_adder_job(), JobContext{}, options);
  ASSERT_FALSE(miss.cached);
  ASSERT_TRUE(miss.verified);

  const std::string trace_path = temp_dir("hit_trace") + "/t.jsonl";
  auto trace = obs::TraceSink::open(trace_path);
  ASSERT_TRUE(trace);
  core::FlowOptions base;
  base.evolve.trace = trace.get();
  const JobExecution hit =
      execute_request(full_adder_job(), JobContext{}, options, base);
  trace.reset();
  EXPECT_TRUE(hit.cached);
  EXPECT_TRUE(hit.verified);
  EXPECT_EQ(hit.flow.optimized_cost.n_r, miss.flow.optimized_cost.n_r);
  EXPECT_EQ(hit.flow.initial.num_gates(), 0u); // no flow ran
  EXPECT_TRUE(hit.flow.phases.empty());
  EXPECT_NE(read_file(trace_path).find("\"event\":\"cache_hit\""),
            std::string::npos);
}

} // namespace
} // namespace rcgp::batch
