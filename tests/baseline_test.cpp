// Tests for the baseline queues (Michael–Scott lock-free, two-lock, mutex):
// identical sequential contract, plus concurrent histories validated by the
// same FIFO checker used for the wait-free queue.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "baseline/locked_queues.hpp"
#include "baseline/ms_queue.hpp"
#include "harness/workload.hpp"
#include "reclaim/epoch.hpp"
#include "reclaim/leaky.hpp"
#include "sync/spin_barrier.hpp"
#include "verify/fifo_checker.hpp"
#include "verify/history.hpp"

namespace kpq {
namespace {

template <typename Q>
class BaselineSequentialTest : public ::testing::Test {};

using BaselineTypes =
    ::testing::Types<ms_queue<std::uint64_t>, ms_queue<std::uint64_t, epoch_domain>,
                     ms_queue<std::uint64_t, leaky_domain>,
                     two_lock_queue<std::uint64_t>, mutex_queue<std::uint64_t>>;
TYPED_TEST_SUITE(BaselineSequentialTest, BaselineTypes);

TYPED_TEST(BaselineSequentialTest, StartsEmpty) {
  TypeParam q(4);
  EXPECT_EQ(q.dequeue(0), std::nullopt);
  EXPECT_TRUE(q.empty_hint());
}

TYPED_TEST(BaselineSequentialTest, FifoOrderPreserved) {
  TypeParam q(2);
  for (std::uint64_t i = 0; i < 200; ++i) q.enqueue(i, 0);
  EXPECT_EQ(q.unsafe_size(), 200u);
  for (std::uint64_t i = 0; i < 200; ++i) {
    auto v = q.dequeue(1);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(q.dequeue(1), std::nullopt);
}

TYPED_TEST(BaselineSequentialTest, AlternatingEnqDeq) {
  TypeParam q(1);
  for (std::uint64_t i = 0; i < 100; ++i) {
    q.enqueue(i, 0);
    auto v = q.dequeue(0);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
    EXPECT_EQ(q.dequeue(0), std::nullopt);
  }
}

TYPED_TEST(BaselineSequentialTest, NonEmptyDestruction) {
  TypeParam q(1);
  for (std::uint64_t i = 0; i < 500; ++i) q.enqueue(i, 0);
  // Destructor must release everything (ASan-verified in sanitizer runs).
}

template <typename Q>
check_result baseline_stress(std::uint32_t threads, std::uint64_t iters,
                             std::uint64_t seed) {
  Q q(threads);
  history_recorder rec(threads);
  spin_barrier barrier(threads);
  std::vector<std::thread> workers;
  for (std::uint32_t tid = 0; tid < threads; ++tid) {
    workers.emplace_back([&, tid] {
      fast_rng rng = thread_stream(seed, tid);
      std::uint64_t seq = 0;
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < iters; ++i) {
        if (rng.coin()) {
          const std::uint64_t v = encode_value(tid, seq++);
          auto s = rec.begin(tid, op_kind::enq, v);
          q.enqueue(v, tid);
          s.commit();
        } else {
          auto s = rec.begin(tid, op_kind::deq);
          auto r = q.dequeue(tid);
          if (r.has_value()) {
            s.set_value(*r);
          } else {
            s.set_empty();
          }
          s.commit();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  std::vector<std::uint64_t> drained;
  while (auto v = q.dequeue(0)) drained.push_back(*v);
  return fifo_checker::check(rec.collect(), drained);
}

TYPED_TEST(BaselineSequentialTest, ConcurrentHistoryIsFifoConsistent) {
  auto r = baseline_stress<TypeParam>(4, 1000, 0xCAFE);
  EXPECT_TRUE(r.ok) << r.to_string();
}

TEST(MsQueueReclamation, NodesAreActuallyFreed) {
  ms_queue<std::uint64_t> q(2);
  const auto threshold = q.reclaimer().scan_threshold();
  for (std::uint64_t i = 0; i < threshold * 4; ++i) {
    q.enqueue(i, 0);
    ASSERT_TRUE(q.dequeue(0).has_value());
  }
  EXPECT_GT(q.reclaimer().freed_count(), 0u);
}

// ------------------------------------------------------------------ misuse
// A thread id >= max_threads indexes past the reclaimer's per-thread slot
// table. The check is a real compare, not an assert, so this holds in the
// default (NDEBUG) build: the call throws std::out_of_range before
// reclaim_.enter, and the queue stays usable.

template <typename Q>
class MsQueueMisuseTest : public ::testing::Test {};

using MsQueueTypes =
    ::testing::Types<ms_queue<std::uint64_t>, ms_queue<std::uint64_t, epoch_domain>,
                     ms_queue<std::uint64_t, leaky_domain>>;
TYPED_TEST_SUITE(MsQueueMisuseTest, MsQueueTypes);

TYPED_TEST(MsQueueMisuseTest, OutOfRangeTidThrowsAndLeavesQueueIntact) {
  TypeParam q(2);
  q.enqueue(1u, 0);
  for (std::uint32_t bad : {2u, 3u, 1u << 20, 0xFFFFFFFFu}) {
    EXPECT_THROW(q.enqueue(9u, bad), std::out_of_range);
    EXPECT_THROW((void)q.dequeue(bad), std::out_of_range);
    EXPECT_THROW((void)q.empty_hint(bad), std::out_of_range);
  }
  EXPECT_EQ(q.unsafe_size(), 1u);
  EXPECT_EQ(q.reclaimer().retired_count(), 0u);
  EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>(1u));
  EXPECT_EQ(q.dequeue(1), std::nullopt);
  q.enqueue(2u, 1);
  EXPECT_EQ(q.dequeue(0), std::optional<std::uint64_t>(2u));
  EXPECT_TRUE(q.empty_hint(1));
}

TEST(MsQueueMemory, CountersBalance) {
  mem_counters mc;
  {
    ms_queue<std::uint64_t> q(2, &mc);
    for (std::uint64_t i = 0; i < 300; ++i) q.enqueue(i, 0);
    for (std::uint64_t i = 0; i < 300; ++i) {
      ASSERT_TRUE(q.dequeue(1).has_value());
    }
  }
  EXPECT_EQ(mc.live_objects(), 0);
  EXPECT_EQ(mc.live_bytes(), 0);
}

// Built without counters, used by two threads, attached afterwards: the
// attach must replay exactly the construction footprint (the sentinel). An
// unsealed baseline would also have absorbed — racily — every allocation
// and free the two threads made.
template <typename Q>
void expect_attach_replays_construction_only() {
  Q q(2);
  std::vector<std::thread> workers;
  for (std::uint32_t tid = 0; tid < 2; ++tid) {
    workers.emplace_back([&q, tid] {
      for (std::uint64_t i = 0; i < 500; ++i) {
        q.enqueue(i, tid);
        (void)q.dequeue(tid);
      }
    });
  }
  for (auto& t : workers) t.join();
  mem_counters used, unused;
  q.set_memory_counters(&used);
  Q fresh(2);
  fresh.set_memory_counters(&unused);
  EXPECT_EQ(used.live_objects(), 1);  // the sentinel, nothing else
  EXPECT_EQ(used.live_bytes(), unused.live_bytes());
  EXPECT_GT(used.live_bytes(), 0);
  q.set_memory_counters(nullptr);  // the sinks die first
  fresh.set_memory_counters(nullptr);
}

TEST(MsQueueMemAccounting, AttachAfterConcurrentUseReplaysConstruction) {
  expect_attach_replays_construction_only<ms_queue<std::uint64_t>>();
}

TEST(TwoLockQueueMemAccounting, AttachAfterConcurrentUseReplaysConstruction) {
  expect_attach_replays_construction_only<two_lock_queue<std::uint64_t>>();
}

TEST(TwoLockQueue, ParallelEnqueuerAndDequeuerDoNotBlockEachOther) {
  two_lock_queue<std::uint64_t> q;
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < 20000; ++i) q.enqueue(i);
    stop.store(true);
  });
  std::uint64_t last = 0;
  std::uint64_t seen = 0;
  while (!stop.load() || !q.empty_hint()) {
    if (auto v = q.dequeue()) {
      if (seen > 0) {
        EXPECT_EQ(*v, last + 1);
      }
      last = *v;
      ++seen;
    }
  }
  producer.join();
  EXPECT_EQ(seen, 20000u);
}

}  // namespace
}  // namespace kpq
