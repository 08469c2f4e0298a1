// Shape regressions: miniature versions of the paper's experiments whose
// *qualitative* outcomes are stable enough to assert in CI. Absolute
// timings are hardware-dependent; these invariants are not:
//
//   * Figure 10's asymptote: the per-node space ratio approaches
//     sizeof(wf_node)/sizeof(ms_node) = 1.5 as the queue grows;
//   * Figure 7/9's ordering: the lock-free queue completes the pairs
//     workload faster than the base wait-free queue at oversubscription
//     (the paper's universal observation outside the CentOS anomaly), and
//     the fully-optimized variant does not lose to the base variant by any
//     meaningful margin;
//   * fps ordering: the fast-path/slow-path queue lands between LF and the
//     announce-always variants.
//
// Timing-based checks use generous margins (the ordering itself, or 1.3x)
// so scheduler noise on loaded CI machines cannot flip them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>

#include "baseline/ms_queue.hpp"
#include "core/wf_queue.hpp"
#include "harness/mem_tracker.hpp"
#include "harness/runner.hpp"
#include "harness/workload.hpp"

namespace kpq {
namespace {

/// One pairs run, clocked on the workers (run_once): a clock started by the
/// main thread after the release barrier can miss the whole run when main
/// is descheduled at oversubscription, and a near-zero time would win the
/// best-of-3 below.
template <typename Q>
double pairs_seconds_once(std::uint32_t threads, std::uint64_t iters) {
  Q q(threads);
  auto body = [&](std::uint32_t tid) {
    for (std::uint64_t i = 0; i < iters; ++i) {
      q.enqueue(encode_value(tid, i), tid);
      (void)q.dequeue(tid);
    }
  };
  return run_once(run_config{.threads = threads}, body).seconds();
}

/// Best-of-3: the minimum is the standard noise-robust estimator for
/// timing comparisons on shared machines.
template <typename Q>
double pairs_seconds(std::uint32_t threads, std::uint64_t iters) {
  double best = pairs_seconds_once<Q>(threads, iters);
  for (int r = 0; r < 2; ++r) {
    best = std::min(best, pairs_seconds_once<Q>(threads, iters));
  }
  return best;
}

/// Best-of-5 of two queues, their runs alternated: load that arrives
/// mid-comparison (other tests under ctest -j) slows both sides' runs
/// instead of only the ones that ran under it.
template <typename A, typename B>
std::pair<double, double> pairs_seconds_alternated(std::uint32_t threads,
                                                   std::uint64_t iters) {
  double a = pairs_seconds_once<A>(threads, iters);
  double b = pairs_seconds_once<B>(threads, iters);
  for (int r = 0; r < 4; ++r) {
    a = std::min(a, pairs_seconds_once<A>(threads, iters));
    b = std::min(b, pairs_seconds_once<B>(threads, iters));
  }
  return {a, b};
}

TEST(ShapeRegression, Figure10SpaceRatioApproachesOnePointFive) {
  // Deterministic: counts bytes, not time. 50k elements is deep into the
  // node-dominated regime.
  constexpr std::uint64_t kSize = 50000;
  mem_counters lf_mc, wf_mc;
  {
    ms_queue<std::uint64_t> lf(2, &lf_mc);
    for (std::uint64_t i = 0; i < kSize; ++i) lf.enqueue(i, 0);
    wf_queue_base<std::uint64_t> wf(2, &wf_mc);
    for (std::uint64_t i = 0; i < kSize; ++i) wf.enqueue(i, 0);

    const double ratio = static_cast<double>(wf_mc.live_bytes()) /
                         static_cast<double>(lf_mc.live_bytes());
    EXPECT_GT(ratio, 1.3);
    EXPECT_LT(ratio, 1.7);
  }
  EXPECT_EQ(lf_mc.live_bytes(), 0);
  EXPECT_EQ(wf_mc.live_bytes(), 0);
}

TEST(ShapeRegression, NodeSizesExplainThePaperAsymptote) {
  // The paper attributes the 1.5x to the enqTid/deqTid fields; pin the
  // layouts so a future field addition is a conscious decision.
  EXPECT_EQ(sizeof(ms_queue<std::uint64_t>::node), 16u);
  EXPECT_EQ(sizeof(wf_node<std::uint64_t>), 24u);
}

// The fast path folds away at max_tries == 0: the announce-always queues
// carry no fast-path member (x86-64). Both sizes were 128 bytes larger
// while the queue held a descriptor pool.
static_assert(sizeof(wf_queue_opt<std::uint64_t>) == 512);
static_assert(sizeof(wf_queue_base<std::uint64_t>) == 384);
static_assert(!wf_queue_opt<std::uint64_t>::has_fast_path);
static_assert(wf_queue_fps<std::uint64_t>::has_fast_path);

TEST(ShapeRegression, LockFreeBeatsBaseWaitFreeOnPairs) {
  // Base WF / LF on a 4-core x86-64 guest, 20 runs of each loop: best-of-3
  // for LF, then best-of-3 for base WF, read 2.35-2.85 alone but 1.23-2.98
  // beside ctest -j4 (load that lands on LF's runs alone inflates its
  // best), so a 2x bound failed one run in five there. With the runs
  // alternated (below) it reads 2.59-2.72 alone and 2.08-12.2 under load;
  // 2.13-3.32 and 1.79-3.17 under ASan NDEBUG. The bound is the ordering
  // itself: 1.79x of margin at the worst of those 80 runs.
  const auto [lf, base_wf] =
      pairs_seconds_alternated<ms_queue<std::uint64_t>,
                               wf_queue_base<std::uint64_t>>(8, 3000);
  EXPECT_LT(lf, base_wf)
      << "LF should beat base WF at oversubscription (typically 2.6-2.7x)";
}

TEST(ShapeRegression, OptimizedVariantDoesNotLoseToBase) {
  // At 12 threads the scan/helping overhead separates the variants; allow
  // the optimized one up to 1.3x of base to absorb noise (it is typically
  // ~0.6-0.9x).
  const double base_wf =
      pairs_seconds<wf_queue_base<std::uint64_t>>(12, 5000);
  const double opt_wf = pairs_seconds<wf_queue_opt<std::uint64_t>>(12, 5000);
  EXPECT_LT(opt_wf, base_wf * 1.3);
}

TEST(ShapeRegression, FpsLandsBetweenLfAndAnnounceAlways) {
  const double fps = pairs_seconds<wf_queue_fps<std::uint64_t>>(8, 3000);
  const double opt_wf = pairs_seconds<wf_queue_opt<std::uint64_t>>(8, 3000);
  EXPECT_LT(fps, opt_wf)
      << "the fast path should beat announce-on-every-operation";
}

}  // namespace
}  // namespace kpq
