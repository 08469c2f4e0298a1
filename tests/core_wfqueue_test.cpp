// Sequential-semantics tests for every variant of the KP wait-free queue.
//
// Typed over the four paper variants (base, opt1, opt2, opt1+2) and the
// three reclaimers, because the single-threaded contract must be identical
// for all of them. Concurrency is exercised separately in
// core_stress_test.cpp; deterministic interleavings in core_scenario_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/wf_queue.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/leaky.hpp"
#include "support/whitebox.hpp"

namespace kpq {
namespace {

template <typename Q>
class WfQueueSequentialTest : public ::testing::Test {};

using QueueTypes = ::testing::Types<
    wf_queue_base<std::uint64_t>, wf_queue_opt1<std::uint64_t>,
    wf_queue_opt2<std::uint64_t>, wf_queue_opt<std::uint64_t>,
    wf_queue<std::uint64_t, help_all, cas_phase>,
    wf_queue_base<std::uint64_t, epoch_domain>,
    wf_queue_opt<std::uint64_t, epoch_domain>,
    wf_queue_base<std::uint64_t, leaky_domain>,
    wf_queue<std::uint64_t, help_one, fetch_add_phase, hp_domain,
             wf_options_stats>,
    wf_queue_fps<std::uint64_t, epoch_domain>,
    wf_queue<std::uint64_t, help_all, scan_max_phase, hp_domain,
             wf_options_precheck>,
    wf_queue<std::uint64_t, help_chunk<2>, fetch_add_phase>,
    wf_queue<std::uint64_t, help_chunk<3>, scan_max_phase>,
    wf_queue<std::uint64_t, help_random, fetch_add_phase>,
    wf_queue_fps<std::uint64_t>>;
TYPED_TEST_SUITE(WfQueueSequentialTest, QueueTypes);

TYPED_TEST(WfQueueSequentialTest, StartsEmpty) {
  TypeParam q(4);
  EXPECT_EQ(q.dequeue(0), std::nullopt);
  EXPECT_TRUE(q.empty_hint(0));
  EXPECT_EQ(q.unsafe_size(), 0u);
}

TYPED_TEST(WfQueueSequentialTest, SingleElementRoundTrip) {
  TypeParam q(4);
  q.enqueue(42u, 0);
  EXPECT_FALSE(q.empty_hint(0));
  EXPECT_EQ(q.unsafe_size(), 1u);
  auto v = q.dequeue(0);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42u);
  EXPECT_EQ(q.dequeue(0), std::nullopt);
}

TYPED_TEST(WfQueueSequentialTest, FifoOrderPreserved) {
  TypeParam q(2);
  for (std::uint64_t i = 0; i < 100; ++i) q.enqueue(i, 0);
  for (std::uint64_t i = 0; i < 100; ++i) {
    auto v = q.dequeue(1);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(q.dequeue(1), std::nullopt);
}

TYPED_TEST(WfQueueSequentialTest, InterleavedEnqDeq) {
  TypeParam q(1);
  std::uint64_t next_in = 0, next_out = 0;
  for (int round = 0; round < 50; ++round) {
    q.enqueue(next_in++, 0);
    q.enqueue(next_in++, 0);
    auto v = q.dequeue(0);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, next_out++);
  }
  EXPECT_EQ(q.unsafe_size(), next_in - next_out);
  while (next_out < next_in) {
    auto v = q.dequeue(0);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, next_out++);
  }
}

TYPED_TEST(WfQueueSequentialTest, EmptyAfterDrainRepeatedly) {
  TypeParam q(2);
  for (int round = 0; round < 10; ++round) {
    EXPECT_EQ(q.dequeue(0), std::nullopt);
    q.enqueue(static_cast<std::uint64_t>(round), 1);
    auto v = q.dequeue(1);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, static_cast<std::uint64_t>(round));
    EXPECT_EQ(q.dequeue(0), std::nullopt);
  }
}

TYPED_TEST(WfQueueSequentialTest, ManyElementsSurviveDestruction) {
  // Destroying a non-empty queue must release every node (checked by the
  // allocation-counting test below and by ASan in sanitizer runs).
  TypeParam q(1);
  for (std::uint64_t i = 0; i < 1000; ++i) q.enqueue(i, 0);
  EXPECT_EQ(q.unsafe_size(), 1000u);
}

TYPED_TEST(WfQueueSequentialTest, DifferentTidsSequential) {
  TypeParam q(8);
  for (std::uint32_t t = 0; t < 8; ++t) {
    q.enqueue(t, t);
  }
  for (std::uint32_t t = 0; t < 8; ++t) {
    auto v = q.dequeue(7 - t);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, t);
  }
}

// ------------------------------------------------------------------ misuse
// A thread id >= max_threads indexes past every per-thread array. The
// check is a real compare, not an assert, so these hold in the default
// (NDEBUG) build: the call throws std::out_of_range before touching the
// queue, and the queue stays usable.

template <typename Q>
class WfQueueMisuseTest : public ::testing::Test {};

using MisuseTypes =
    ::testing::Types<wf_queue_base<std::uint64_t>, wf_queue_opt<std::uint64_t>,
                     wf_queue_fps<std::uint64_t>>;
TYPED_TEST_SUITE(WfQueueMisuseTest, MisuseTypes);

TYPED_TEST(WfQueueMisuseTest, OutOfRangeTidThrowsAndLeavesQueueIntact) {
  TypeParam q(2);
  q.enqueue(1u, 0);
  for (std::uint32_t bad : {2u, 3u, 1u << 20, 0xFFFFFFFFu}) {
    EXPECT_THROW(q.enqueue(9u, bad), std::out_of_range);
    EXPECT_THROW((void)q.dequeue(bad), std::out_of_range);
    EXPECT_THROW((void)q.empty_hint(bad), std::out_of_range);
    std::vector<std::uint64_t> in{7u, 8u}, out;
    if constexpr (requires { q.dequeue_bulk(out, 1, 0u); }) {
      EXPECT_THROW(q.enqueue_bulk(in.begin(), in.end(), bad),
                   std::out_of_range);
      EXPECT_THROW((void)q.dequeue_bulk(out, 4, bad), std::out_of_range);
    }
    EXPECT_TRUE(out.empty());
  }
  EXPECT_EQ(q.unsafe_size(), 1u);
  EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>(1u));
  EXPECT_EQ(q.dequeue(1), std::nullopt);
}

TYPED_TEST(WfQueueMisuseTest, MoreThreadsThanSizedFor) {
  // The reproduction: a queue sized for 2 threads driven by 4. Threads 2
  // and 3 are refused on every call; 0 and 1 run to completion.
  TypeParam q(2);
  constexpr std::uint64_t kPairs = 2000;
  std::atomic<std::uint64_t> refused{0};
  std::vector<std::thread> workers;
  for (std::uint32_t tid = 0; tid < 4; ++tid) {
    workers.emplace_back([&, tid] {
      for (std::uint64_t i = 0; i < kPairs; ++i) {
        try {
          q.enqueue(i, tid);
          (void)q.dequeue(tid);
        } catch (const std::out_of_range&) {
          refused.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(refused.load(), 2 * kPairs);
  EXPECT_EQ(q.unsafe_size(), 0u);
}

TYPED_TEST(WfQueueMisuseTest, ConstructorRejectsUnusableThreadCounts) {
  // 0: the sentinel is allocated as tid 0. 2^20: a slow deqTid claim by
  // such a tid would read as a fast claim.
  EXPECT_THROW(TypeParam(0), std::invalid_argument);
  EXPECT_THROW(TypeParam(1u << 20), std::invalid_argument);
}

TEST(WfQueueMemory, LiveBytesBalanceExactly) {
  mem_counters mc;
  {
    wf_queue_base<std::uint64_t> q(4, &mc);
    for (std::uint64_t i = 0; i < 200; ++i) q.enqueue(i, 0);
    const auto peak = mc.live_bytes();
    EXPECT_GE(peak,
              static_cast<std::int64_t>(200 * sizeof(wf_node<std::uint64_t>)));
    for (std::uint64_t i = 0; i < 200; ++i) {
      ASSERT_TRUE(q.dequeue(1).has_value());
    }
    // All 200 nodes dequeued; live node memory is the sentinel plus nodes
    // still sitting in the reclaimer's retired lists, plus the record array.
    EXPECT_GE(mc.live_objects(), 1);
  }
  // Counters were attached at construction: the balance sheet must close.
  EXPECT_EQ(mc.live_objects(), 0);
  EXPECT_EQ(mc.live_bytes(), 0);
}

TEST(WfQueueMemory, ReclaimerActuallyFrees) {
  wf_queue_base<std::uint64_t> q(2);
  const auto threshold = q.reclaimer().scan_threshold();
  for (std::uint64_t i = 0; i < threshold * 4; ++i) {
    q.enqueue(i, 0);
    ASSERT_TRUE(q.dequeue(0).has_value());
  }
  EXPECT_GT(q.reclaimer().freed_count(), 0u)
      << "hazard-pointer domain never reclaimed anything";
}

// Request records replace descriptors: a thread's record moves in place,
// one sequence number per transition, and only nodes are ever retired.

TEST(WfQueueRecords, SteadyStateRetiresOnlyNodes) {
  // One enqueue/dequeue pair retires exactly one node (the old sentinel)
  // and nothing else: 0.5 retirements per operation.
  wf_queue_opt<std::uint64_t> q(2);
  const std::uint64_t retired0 = q.reclaimer().retired_count();
  constexpr std::uint64_t kPairs = 2000;
  for (std::uint64_t i = 0; i < kPairs; ++i) {
    q.enqueue(i, 0);
    ASSERT_EQ(q.dequeue(0), std::optional<std::uint64_t>(i));
  }
  EXPECT_EQ(q.reclaimer().retired_count() - retired0, kPairs);
}

TEST(WfQueueRecords, EveryTransitionBumpsTheSequence) {
  // Uncontended, an announced enqueue moves its record twice (publish,
  // complete) and a dequeue three times (publish, stage 0, complete); an
  // empty dequeue twice (publish, complete-empty).
  using Q = wf_queue_base<std::uint64_t>;
  using testing::whitebox;
  Q q(2);
  const auto seq = [&q] { return whitebox::state(q, 0).ctl / req::seq_step; };
  std::uint64_t before = seq();
  q.enqueue(1, 0);
  EXPECT_EQ(seq() - before, 2u);
  before = seq();
  EXPECT_EQ(q.dequeue(0), std::optional<std::uint64_t>(1));
  EXPECT_EQ(seq() - before, 3u);
  before = seq();
  EXPECT_EQ(q.dequeue(0), std::nullopt);
  EXPECT_EQ(seq() - before, 2u);
  EXPECT_EQ(whitebox::state(q, 1).ctl, 0u) << "an idle thread's record";
}

TEST(WfQueueRecords, FastPathOperationsLeaveRecordsUntouched) {
  // Uncontended operations of a queue with a fast path complete before the
  // announce: no record moves.
  using Q = wf_queue_fps<std::uint64_t>;
  using testing::whitebox;
  Q q(2);
  const std::uint64_t ctl0 = whitebox::state(q, 0).ctl;
  const std::uint64_t ctl1 = whitebox::state(q, 1).ctl;
  for (std::uint64_t i = 0; i < 2 * q.reclaimer().scan_threshold(); ++i) {
    q.enqueue(i, 0);
    ASSERT_EQ(q.dequeue(i % 2), std::optional<std::uint64_t>(i));
    ASSERT_EQ(q.dequeue(0), std::nullopt);
  }
  EXPECT_EQ(whitebox::state(q, 0).ctl, ctl0);
  EXPECT_EQ(whitebox::state(q, 1).ctl, ctl1);
}

TEST(WfQueueHelpChunk, WideChunkCompletesEveryStalledPeerInOneOperation) {
  // With K >= n the help run of a single operation reaches every announced
  // peer with an older phase: two stalled enqueues (owners that stopped
  // right after their announce) complete inside thread 1's one enqueue,
  // linked in the cursor's order before its own node.
  using Q = wf_queue<std::uint64_t, help_chunk<4>, fetch_add_phase>;
  using testing::whitebox;
  Q q(3);
  const auto stall_enqueue = [&q](std::uint32_t tid, std::uint64_t v) {
    auto* node = whitebox::make_node(q, v, static_cast<std::int32_t>(tid), tid);
    whitebox::publish(q, tid, whitebox::next_phase(q, tid), /*pending=*/true,
                      /*enq=*/true, node);
  };
  stall_enqueue(0, 7);
  stall_enqueue(2, 8);
  q.enqueue(9, 1);
  EXPECT_FALSE(whitebox::pending(q, 0, 1));
  EXPECT_FALSE(whitebox::pending(q, 2, 1));
  EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>(7));
  EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>(8));
  EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>(9));
  EXPECT_EQ(q.dequeue(1), std::nullopt);
}

TEST(WfQueueTypes, WorksWithStrings) {
  wf_queue_base<std::string> q(2);
  q.enqueue("hello", 0);
  q.enqueue("world", 1);
  EXPECT_EQ(q.dequeue(0), std::optional<std::string>("hello"));
  EXPECT_EQ(q.dequeue(1), std::optional<std::string>("world"));
  EXPECT_EQ(q.dequeue(0), std::nullopt);
}

TEST(WfQueueTypes, WorksWithRegistryTid) {
  wf_queue_base<std::uint64_t> q(max_registered_threads);
  q.enqueue(7u);
  EXPECT_EQ(q.dequeue(), std::optional<std::uint64_t>(7u));
}

}  // namespace
}  // namespace kpq
