// Unit tests for the benchmark harness substrate: statistics, workload
// determinism, run orchestration, memory counters, tables, CLI parsing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/affinity.hpp"
#include "harness/cli.hpp"
#include "harness/mem_tracker.hpp"
#include "harness/runner.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"
#include "harness/timing.hpp"
#include "harness/workload.hpp"

namespace kpq {
namespace {

// -------------------------------------------------------------------- stats

TEST(RunningStats, MeanAndStddevMatchClosedForm) {
  running_stats rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  auto s = rs.finish();
  EXPECT_EQ(s.n, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(32.0 / 7.0), 1e-12);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(RunningStats, SingleSampleHasZeroStddev) {
  running_stats rs;
  rs.add(3.5);
  auto s = rs.finish();
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Percentile, NearestRankBehaviour) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 100.0);
  EXPECT_NEAR(percentile(xs, 0.5), 50.0, 1.0);
  EXPECT_NEAR(percentile(xs, 0.99), 99.0, 1.0);
}

TEST(Percentile, SortedPercentilesAgreeWithSingleQuery) {
  std::vector<double> xs = {5, 1, 9, 3, 7, 2, 8, 4, 6, 0};
  auto copy = xs;
  auto ps = sorted_percentiles(copy, {0.0, 0.5, 1.0});
  EXPECT_DOUBLE_EQ(ps[0], percentile(xs, 0.0));
  EXPECT_DOUBLE_EQ(ps[1], percentile(xs, 0.5));
  EXPECT_DOUBLE_EQ(ps[2], percentile(xs, 1.0));
}

// ----------------------------------------------------------------- workload

TEST(Workload, ThreadStreamsAreDeterministic) {
  fast_rng a = thread_stream(42, 3);
  fast_rng b = thread_stream(42, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Workload, ThreadStreamsDiffer) {
  fast_rng a = thread_stream(42, 0);
  fast_rng b = thread_stream(42, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Workload, BernoulliIsRoughlyFair) {
  fast_rng rng(7);
  int heads = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    if (rng.coin()) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / kN, 0.5, 0.02);
}

TEST(Workload, ValueEncodingRoundTrips) {
  for (std::uint32_t tid : {0u, 1u, 17u, 255u}) {
    for (std::uint64_t seq : {0ull, 1ull, 999999ull, (1ull << 39)}) {
      const std::uint64_t v = encode_value(tid, seq);
      EXPECT_EQ(value_tid(v), tid);
      EXPECT_EQ(value_seq(v), seq);
    }
  }
}

// ------------------------------------------------------------------- runner

TEST(Runner, ExecutesBodyOncePerThreadPerRep) {
  std::atomic<int> calls{0};
  run_config cfg;
  cfg.threads = 3;
  cfg.reps = 4;
  auto s = run_trials(cfg, [&](std::uint32_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 12);
  EXPECT_EQ(s.n, 4u);
  EXPECT_GT(s.mean, 0.0);
}

TEST(Runner, SetupRunsBeforeEachRep) {
  std::vector<int> reps_seen;
  run_config cfg;
  cfg.threads = 1;
  cfg.reps = 3;
  run_trials(
      cfg, [&](std::uint32_t rep) { reps_seen.push_back(static_cast<int>(rep)); },
      [&](std::uint32_t) {});
  EXPECT_EQ(reps_seen, (std::vector<int>{0, 1, 2}));
}

TEST(Runner, WindowBracketsEveryWorkersOwnTimestamps) {
  // Short bodies on several threads: the case where a clock started by the
  // main thread after the release could begin after a worker had already
  // finished.
  run_config cfg;
  cfg.threads = 4;
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<std::uint64_t> began(cfg.threads), ended(cfg.threads);
    auto body = [&](std::uint32_t t) {
      began[t] = now_ns();
      ended[t] = now_ns();
    };
    const trial_window w = run_once(cfg, body);
    for (std::uint32_t t = 0; t < cfg.threads; ++t) {
      ASSERT_LE(w.start_ns, began[t]) << "rep " << rep << " thread " << t;
      ASSERT_GE(w.end_ns, ended[t]) << "rep " << rep << " thread " << t;
    }
    EXPECT_GE(w.seconds(), 0.0);
  }
}

// ------------------------------------------------------------------- timing

TEST(Timing, StopwatchMeasuresForwardTime) {
  stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(sw.elapsed_ns(), 1000000u);
  EXPECT_GE(sw.elapsed_s(), 0.001);
  sw.reset();
  EXPECT_LT(sw.elapsed_s(), 1.0);
}

// -------------------------------------------------------------- mem_tracker

TEST(MemCounters, TracksAllocAndFree) {
  mem_counters mc;
  mc.on_alloc(100);
  mc.on_alloc(50);
  EXPECT_EQ(mc.live_bytes(), 150);
  EXPECT_EQ(mc.live_objects(), 2);
  EXPECT_EQ(mc.total_allocs(), 2u);
  mc.on_free(100);
  EXPECT_EQ(mc.live_bytes(), 50);
  EXPECT_EQ(mc.live_objects(), 1);
  mc.reset();
  EXPECT_EQ(mc.live_bytes(), 0);
}

// -------------------------------------------------------------------- table

TEST(Table, PrintsAlignedColumnsAndCsv) {
  table t({"threads", "LF", "WF"});
  t.add_row({"1", "0.5", "1.2"});
  t.add_row({"16", "3.25", "4.0"});

  char buf[4096];
  std::FILE* mem = fmemopen(buf, sizeof(buf), "w");
  ASSERT_NE(mem, nullptr);
  t.print(mem);
  std::fclose(mem);
  std::string out(buf);
  EXPECT_NE(out.find("threads"), std::string::npos);
  EXPECT_NE(out.find("3.25"), std::string::npos);

  std::FILE* mem2 = fmemopen(buf, sizeof(buf), "w");
  t.print_csv(mem2);
  std::fclose(mem2);
  std::string csv(buf);
  EXPECT_NE(csv.find("threads,LF,WF"), std::string::npos);
  EXPECT_NE(csv.find("16,3.25,4.0"), std::string::npos);
}

TEST(Table, FmtFormatsWithPrecision) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

// ---------------------------------------------------------------------- cli

TEST(Cli, ParsesAllForms) {
  const char* argv[] = {"prog",    "--iters=500", "--threads", "8",
                        "--pin",   "--name=foo"};
  cli c(6, const_cast<char**>(argv));
  EXPECT_EQ(c.get_u64("iters", 1), 500u);
  EXPECT_EQ(c.get_u64("threads", 1), 8u);
  EXPECT_TRUE(c.get_flag("pin"));
  EXPECT_FALSE(c.get_flag("absent"));
  EXPECT_EQ(c.get_str("name", "bar"), "foo");
  EXPECT_EQ(c.get_u64("missing", 99), 99u);
}

TEST(Cli, ReportsUnknownFlags) {
  const char* argv[] = {"prog", "--iters=1", "--typo=2"};
  cli c(3, const_cast<char**>(argv));
  auto unknown = c.unknown({"iters", "threads"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

// ----------------------------------------------------------------- affinity

TEST(Affinity, OnlineCpusIsPositive) { EXPECT_GE(online_cpus(), 1u); }

TEST(Affinity, PinningIsBestEffort) {
  // Must not crash; success depends on the host.
  (void)pin_to_cpu(0);
  SUCCEED();
}

}  // namespace
}  // namespace kpq
