#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/durable.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace rcgp::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  const auto first = a.next();
  a.next();
  a.reseed(7);
  EXPECT_EQ(a.next(), first);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(99);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.below(1), 0u);
  }
}

TEST(Rng, BetweenInclusiveBounds) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.between(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u); // all values hit with overwhelming probability
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(42);
  constexpr int kBuckets = 8;
  constexpr int kSamples = 80000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.below(kBuckets)];
  }
  const double expected = static_cast<double>(kSamples) / kBuckets;
  for (const int c : counts) {
    EXPECT_NEAR(c, expected, expected * 0.1);
  }
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng rng(77);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch w;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  const double s = w.seconds();
  const double ms = w.milliseconds();
  EXPECT_GE(s, 0.0);
  EXPECT_GE(ms, s * 1e3); // milliseconds read later, monotone clock
}

TEST(Stopwatch, RestartResets) {
  Stopwatch w;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) {
    sink = sink + std::sqrt(static_cast<double>(i));
  }
  const double before = w.seconds();
  w.restart();
  EXPECT_LE(w.seconds(), before + 1.0);
}

TEST(Log, LevelRoundTrip) {
  const auto saved = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  log_debug("should be suppressed");
  log_error("error-level message (expected in test output)");
  set_log_level(LogLevel::kOff);
  log_error("suppressed entirely");
  set_log_level(saved);
}

// ---------- write_file_durable ----------

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "rcgp_durable_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::ptrdiff_t files_in(const std::string& dir) {
  return std::distance(std::filesystem::directory_iterator(dir),
                       std::filesystem::directory_iterator());
}

void expect_failure_naming(const std::string& path, std::string_view bytes) {
  try {
    write_file_durable(path, bytes);
    ADD_FAILURE() << "write to " << path << " succeeded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

TEST(DurableWrite, ReplacesTheContentAndLeavesNoTempFile) {
  const std::string dir = fresh_dir("replace");
  const std::string path = dir + "/state.txt";
  write_file_durable(path, "first version\n");
  EXPECT_EQ(read_file(path), "first version\n");
  write_file_durable(path, "second");
  EXPECT_EQ(read_file(path), "second");
  write_file_durable(path, "");
  EXPECT_EQ(read_file(path), "");
  EXPECT_EQ(files_in(dir), 1);
  std::filesystem::remove_all(dir);
}

TEST(DurableWrite, FailedWriteThrowsNamingThePathAndKeepsTheOldFile) {
  const std::string dir = fresh_dir("fail");
  // Missing directory: not even the temp file can be created.
  expect_failure_naming(dir + "/missing/state.txt", "lost");
  EXPECT_EQ(files_in(dir), 0);

  // A write cut short after the old file exists (the file-size limit
  // stands in for a full disk): the old bytes survive, the temp is gone.
  const std::string path = dir + "/state.txt";
  write_file_durable(path, "old");
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit tight = saved;
  tight.rlim_cur = 16;
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &tight), 0);
  expect_failure_naming(path, std::string(4096, 'n'));
  ::setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, old_handler);
  EXPECT_EQ(read_file(path), "old");
  EXPECT_EQ(files_in(dir), 1);
  std::filesystem::remove_all(dir);
}

TEST(DurableWrite, ConcurrentRewritesNeverExposeATornDocument) {
  const std::string dir = fresh_dir("concurrent");
  const std::string path = dir + "/doc.txt";
  // Every document is "begin <writer> <round>", padding, "end": a reader
  // that sees a mix or a truncation finds a wrong length or no "end".
  const auto document = [](unsigned writer, unsigned round) {
    const std::string head =
        "begin " + std::to_string(writer) + " " + std::to_string(round) + "\n";
    return head + std::string(8192 - head.size() - 4, 'x') + "end\n";
  };
  write_file_durable(path, document(0, 0));

  constexpr unsigned kWriters = 8;
  constexpr unsigned kRounds = 20;
  std::atomic<unsigned> running{kWriters};
  std::vector<std::thread> writers;
  for (unsigned w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (unsigned r = 1; r <= kRounds; ++r) {
        write_file_durable(path, document(w, r));
      }
      running.fetch_sub(1);
    });
  }
  std::size_t reads = 0;
  std::size_t torn = 0;
  while (running.load() != 0) {
    const std::string seen = read_file(path);
    ++reads;
    if (seen.size() != 8192 || seen.rfind("begin ", 0) != 0 ||
        seen.compare(seen.size() - 4, 4, "end\n") != 0) {
      ++torn;
    }
  }
  for (std::thread& t : writers) t.join();
  EXPECT_GT(reads, 0u);
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(read_file(path).size(), 8192u);
  EXPECT_EQ(files_in(dir), 1);
  std::filesystem::remove_all(dir);
}

} // namespace
} // namespace rcgp::util
