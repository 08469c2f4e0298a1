// Item-residency tracking: stamped-node shape, compiled-out zero cost,
// single-thread exactness (every dequeued hit records one sample), stamp
// survival across the FPS fast/slow paths, concurrent sample conservation,
// and the calibrated report/registry export surface.
#include "obs/residency.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cmath>
#include <thread>
#include <vector>

#include "core/wf_queue.hpp"
#include "obs/calibrate.hpp"
#include "obs/registry.hpp"
#include "sync/spin_barrier.hpp"

namespace kpq {
namespace {

// ------------------------------------------------------------------ shape

TEST(ObsResidency, UnstampedNodeKeepsPaperShape) {
  // The residency field is an empty base when compiled out — the default
  // node must keep the 24-byte layout the shape-regression suite pins.
  EXPECT_EQ(sizeof(wf_node<std::uint64_t>), 24u);
  EXPECT_EQ(sizeof(wf_node<std::uint64_t, false>), 24u);
  EXPECT_EQ(sizeof(wf_node<std::uint64_t, true>), 32u);  // +8B stamp
}

TEST(ObsResidency, PolicyIsReadFromOptions) {
  static_assert(!wf_options::residency::enabled);
  static_assert(wf_options_residency::residency::enabled);
  // An Options struct that does not mention residency inherits
  // wf_options' no_residency.
  struct other_options : wf_options {};
  static_assert(!wf_queue<int, help_one, fetch_add_phase, hp_domain,
                          other_options>::track_residency);
  static_assert(!wf_queue_opt<int>::track_residency);
  static_assert(wf_queue_opt_residency<int>::track_residency);
}

// Zero patience compiles the fast path out: every op takes the slow
// (descriptor) path, so the stamp must survive the help_finish descriptor
// hand-off too. (Namespace scope: local classes cannot hold static data
// members.)
struct zero_patience : fps_options_residency {
  static constexpr std::uint32_t max_tries = 0;
  static constexpr bool collect_stats = true;
};

// ------------------------------------------------------- single-threaded

TEST(ObsResidency, EveryDequeuedHitRecordsOneSample) {
  wf_queue_opt_residency<std::uint64_t> q(2);
  constexpr std::uint64_t kOps = 500;
  for (std::uint64_t i = 0; i < kOps; ++i) q.enqueue(i, 0);
  for (std::uint64_t i = 0; i < kOps; ++i) {
    auto v = q.dequeue(0);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.dequeue(0).has_value());  // miss: no sample
  EXPECT_EQ(q.residency_samples(), kOps);
  EXPECT_EQ(q.residency_histogram().total(), kOps);

  q.reset_residency();
  EXPECT_EQ(q.residency_samples(), 0u);
}

TEST(ObsResidency, DwellTimeIsReflectedInTheHistogram) {
  wf_queue_opt_residency<int> q(1);
  const obs::tick_calibration cal = obs::calibrate_ticks(2'000'000);

  q.enqueue(1, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(q.dequeue(0).has_value());

  const obs::residency_report rep =
      obs::make_residency_report(q.residency_histogram(), cal);
  EXPECT_EQ(rep.samples, 1u);
  // The item sat for >= 20ms; allow generous slack for calibration error.
  EXPECT_GT(rep.p50_ns(), 5'000'000.0);
  EXPECT_GE(rep.max_ns(), rep.p50_ns());
}

// ----------------------------------------------------------- FPS variant

TEST(ObsResidency, FpsFastAndSlowPathsBothRecord) {
  // Default patience: single-threaded ops all take the fast path.
  wf_queue_fps<std::uint64_t, hp_domain, fps_options_residency> q(2);
  constexpr std::uint64_t kOps = 300;
  for (std::uint64_t i = 0; i < kOps; ++i) q.enqueue(i, 0);
  for (std::uint64_t i = 0; i < kOps; ++i) {
    ASSERT_TRUE(q.dequeue(0).has_value());
  }
  EXPECT_EQ(q.residency_samples(), kOps);

  wf_queue_fps<std::uint64_t, hp_domain, zero_patience> slow(2);
  static_assert(!decltype(slow)::has_fast_path);
  for (std::uint64_t i = 0; i < kOps; ++i) slow.enqueue(i, 0);
  for (std::uint64_t i = 0; i < kOps; ++i) {
    ASSERT_TRUE(slow.dequeue(0).has_value());
  }
  EXPECT_EQ(slow.residency_samples(), kOps);
  EXPECT_EQ(slow.aggregate_counters().deq_ops, kOps);
  EXPECT_EQ(slow.aggregate_counters().fast_deqs, 0u);
}

// ------------------------------------------------------------- concurrent

TEST(ObsResidency, ConcurrentSamplesAreConserved) {
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 2000;
  wf_queue_opt_residency<std::uint64_t> q(kThreads);
  spin_barrier barrier(kThreads);
  std::atomic<std::uint64_t> hits{0};

  std::vector<std::thread> workers;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        q.enqueue(i, t);
        if (q.dequeue(t).has_value()) {
          hits.fetch_add(1, std::memory_order_relaxed);
        }
      }
      while (q.dequeue(t).has_value()) {
        hits.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& w : workers) w.join();

  // Conservation: every enqueued item was dequeued exactly once, and every
  // dequeued hit recorded exactly one residency sample (even when the op
  // was completed by a helper on another thread).
  EXPECT_EQ(hits.load(), kThreads * kPerThread);
  EXPECT_EQ(q.residency_samples(), kThreads * kPerThread);
  EXPECT_EQ(q.residency_histogram().total(), kThreads * kPerThread);
}

// ------------------------------------------------------------ report/export

TEST(ObsResidency, ReportQuantilesAreFiniteAndOrdered) {
  log2_histogram h;
  for (int i = 0; i < 1000; ++i) h.add(static_cast<std::uint64_t>(i + 1));
  obs::tick_calibration cal;
  cal.tick_hz = 1e9;  // 1 tick == 1 ns
  const obs::residency_report rep = obs::make_residency_report(h, cal);
  EXPECT_EQ(rep.samples, 1000u);
  EXPECT_GT(rep.p50_ns(), 0.0);
  EXPECT_LE(rep.p50_ns(), rep.p90_ns());
  EXPECT_LE(rep.p90_ns(), rep.p99_ns());
  EXPECT_LE(rep.p99_ns(), rep.max_ns());
}

TEST(ObsResidency, RegistryExportSurface) {
  wf_queue_opt_residency<int> q(1);
  q.enqueue(7, 0);
  ASSERT_TRUE(q.dequeue(0).has_value());

  obs::tick_calibration cal;
  cal.tick_hz = 1e9;
  obs::registry reg;
  reg.add_source("q0.residency", [&](obs::metrics_snapshot& out) {
    obs::append_metrics(out, "q0.residency",
                        obs::make_residency_report(q.residency_histogram(), cal));
  });
  const obs::metrics_snapshot snap = reg.snapshot();
  bool saw_samples = false, saw_p99 = false;
  for (const obs::metric& m : snap) {
    if (m.name == "q0.residency.samples") {
      saw_samples = true;
      EXPECT_EQ(m.value, 1.0);
    }
    if (m.name == "q0.residency.p99_ns") saw_p99 = true;
    EXPECT_TRUE(std::isfinite(m.value)) << m.name;
  }
  EXPECT_TRUE(saw_samples);
  EXPECT_TRUE(saw_p99);
}

}  // namespace
}  // namespace kpq
