// Tests for the fast-path/slow-path wait-free queue (wf_queue_fps).
//
// Beyond re-running the generic sequential/stress batteries (the typed
// suites in core_wfqueue_test / core_stress_test include fps), this file
// targets the path INTERPLAY: pure-slow configurations, fast/slow races,
// helping across paths, and the frozen-thread progress property on the
// slow path.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "core/wf_queue.hpp"
#include "harness/workload.hpp"
#include "sync/spin_barrier.hpp"
#include "verify/fifo_checker.hpp"
#include "verify/history.hpp"

namespace kpq {
namespace {

struct slow_only_options : fps_options {
  static constexpr std::uint32_t max_tries = 0;  // always announce
};
struct one_try_options : fps_options {
  static constexpr std::uint32_t max_tries = 1;
};

using fps_queue = wf_queue_fps<std::uint64_t>;
using slow_queue = wf_queue_fps<std::uint64_t, hp_domain, slow_only_options>;

template <typename Q>
class FpsVariantTest : public ::testing::Test {};
using FpsTypes =
    ::testing::Types<fps_queue, slow_queue,
                     wf_queue_fps<std::uint64_t, hp_domain, one_try_options>>;
TYPED_TEST_SUITE(FpsVariantTest, FpsTypes);

TYPED_TEST(FpsVariantTest, SequentialFifoContract) {
  TypeParam q(4);
  EXPECT_EQ(q.dequeue(0), std::nullopt);
  for (std::uint64_t i = 0; i < 200; ++i) q.enqueue(i, i % 4);
  EXPECT_EQ(q.unsafe_size(), 200u);
  for (std::uint64_t i = 0; i < 200; ++i) {
    auto v = q.dequeue((i + 1) % 4);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_EQ(q.dequeue(0), std::nullopt);
  EXPECT_TRUE(q.empty_hint(0));
}

TYPED_TEST(FpsVariantTest, ConcurrentHistoryIsFifoConsistent) {
  constexpr std::uint32_t kThreads = 4;
  TypeParam q(kThreads);
  history_recorder rec(kThreads);
  spin_barrier barrier(kThreads);
  std::vector<std::thread> workers;
  for (std::uint32_t tid = 0; tid < kThreads; ++tid) {
    workers.emplace_back([&, tid] {
      fast_rng rng = thread_stream(0xF9, tid);
      std::uint64_t seq = 0;
      barrier.arrive_and_wait();
      for (int i = 0; i < 1500; ++i) {
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
  auto r = fifo_checker::check(rec.collect(), drained);
  EXPECT_TRUE(r.ok) << r.to_string();
}

TEST(FpsInterplay, SlowOnlyAndFastOnlyQueuesInteroperateWithThemselves) {
  // A queue populated entirely by slow-path enqueues must drain correctly
  // through fast-path dequeues, and vice versa — exercised by mixing the
  // two configurations' code paths within one queue via thread phases.
  fps_queue q(2);
  // Phase 1: default fast enqueues.
  for (std::uint64_t i = 0; i < 50; ++i) q.enqueue(i, 0);
  // Phase 2: dequeues (fast path claims with the fast marker).
  for (std::uint64_t i = 0; i < 50; ++i) {
    auto v = q.dequeue(1);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(FpsInterplay, SlowEnqueuesVisibleToFastDequeues) {
  slow_queue q(2);  // every enqueue announces
  q.enqueue(7, 0);
  q.enqueue(8, 0);
  EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>(7));
  EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>(8));
}

// ------------------------------------------- frozen slow-path progress

std::atomic<std::int64_t> frozen_tid{-1};
std::atomic<bool> gate_open{true};
std::atomic<bool> is_frozen{false};

struct freezing_fps_hooks {
  static void after_publish(std::uint32_t tid, bool /*is_enq*/) {
    if (static_cast<std::int64_t>(tid) !=
        frozen_tid.load(std::memory_order_acquire)) {
      return;
    }
    is_frozen.store(true, std::memory_order_release);
    while (!gate_open.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    is_frozen.store(false, std::memory_order_release);
  }
};
struct freezing_slow_options : slow_only_options {
  using hooks = freezing_fps_hooks;
};
using frozen_fps =
    wf_queue_fps<std::uint64_t, hp_domain, freezing_slow_options>;

class FpsProgressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    frozen_tid.store(-1);
    gate_open.store(true);
    is_frozen.store(false);
  }
  void TearDown() override {
    gate_open.store(true);
    frozen_tid.store(-1);
  }
};

TEST_F(FpsProgressTest, PeersCompleteAFrozenSlowEnqueue) {
  frozen_fps q(2);
  gate_open.store(false);
  frozen_tid.store(0);
  std::thread frozen([&] { q.enqueue(42, 0); });
  while (!is_frozen.load()) std::this_thread::yield();

  // Thread 1's operation probes the announce array (help_someone) and must
  // complete the frozen enqueue within at most max_threads operations.
  std::optional<std::uint64_t> v;
  for (int i = 0; i < 4 && !v.has_value(); ++i) v = q.dequeue(1);
  ASSERT_TRUE(v.has_value()) << "peer never helped the frozen slow enqueue";
  EXPECT_EQ(*v, 42u);

  gate_open.store(true);
  frozen.join();
  EXPECT_EQ(q.unsafe_size(), 0u);
}

TEST_F(FpsProgressTest, PeersCompleteAFrozenSlowDequeue) {
  frozen_fps q(2);
  q.enqueue(5, 1);
  q.enqueue(6, 1);

  gate_open.store(false);
  frozen_tid.store(0);
  std::optional<std::uint64_t> got;
  std::thread frozen([&] { got = q.dequeue(0); });
  while (!is_frozen.load()) std::this_thread::yield();

  // Peer operations must eventually execute the frozen dequeue; its own
  // dequeues then see later elements.
  std::vector<std::uint64_t> peer_got;
  for (int i = 0; i < 4; ++i) {
    if (auto v = q.dequeue(1)) peer_got.push_back(*v);
  }
  gate_open.store(true);
  frozen.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 5u) << "frozen dequeue must receive the front element";
  ASSERT_EQ(peer_got.size(), 1u);
  EXPECT_EQ(peer_got[0], 6u);
}

TEST(FpsMemory, BalanceClosesExactly) {
  mem_counters mc;
  {
    fps_queue q(4, &mc);
    spin_barrier barrier(4);
    std::vector<std::thread> workers;
    for (std::uint32_t tid = 0; tid < 4; ++tid) {
      workers.emplace_back([&, tid] {
        barrier.arrive_and_wait();
        for (std::uint64_t i = 0; i < 2000; ++i) {
          q.enqueue(encode_value(tid, i), tid);
          (void)q.dequeue(tid);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  EXPECT_EQ(mc.live_objects(), 0);
  EXPECT_EQ(mc.live_bytes(), 0);
}

TEST(FpsReclamation, NodesAreFreedDuringTheRun) {
  fps_queue q(2);
  const auto threshold = q.reclaimer().scan_threshold();
  for (std::uint64_t i = 0; i < threshold * 4; ++i) {
    q.enqueue(i, 0);
    ASSERT_TRUE(q.dequeue(0).has_value());
  }
  EXPECT_GT(q.reclaimer().freed_count(), 0u);
}

}  // namespace
}  // namespace kpq
