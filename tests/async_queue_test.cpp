// Tests for the coroutine queue front-end: async_mpmc awaitables (fast
// path, suspend/resume, deadlines), bounded co_enqueue backpressure,
// co_select multiplexing, the sharded composition and its rotating scan
// start, and a mixed threads-and-coroutines run cross-checked by the
// linearizability checker.
//
// The AsyncSharded suite is also built with KPQ_MUTANT_SELECT_SHORT_SCAN,
// whose ready-path scan skips the shard before its start; tests/
// CMakeLists.txt registers that build as a test that passes only if
// AsyncSharded.ReadyScanReachesTheShardBeforeItsStart fails under it.
#include "async/async_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "async/select.hpp"
#include "async/task.hpp"
#include "core/wf_queue.hpp"
#include "scale/async_shards.hpp"
#include "storage/bounded_wf_queue.hpp"
#include "sync/thread_registry.hpp"
#include "verify/history.hpp"
#include "verify/lin_checker.hpp"

namespace kpq::async {
namespace {

using namespace std::chrono_literals;

using async_wf = async_mpmc<wf_queue_opt<std::uint64_t>>;
using async_bounded = async_mpmc<bounded_wf_queue<std::uint64_t>>;

TEST(AsyncQueue, CoDequeueFastPathCompletesWithoutSuspending) {
  async_wf q(4);
  q.enqueue(7);
  auto t = q.co_dequeue();
  t.start();
  ASSERT_TRUE(t.done());  // await_ready hit: never parked
  EXPECT_EQ(t.take(), std::optional<std::uint64_t>(7));
  EXPECT_EQ(q.hub().stats().parks, 0u);
}

TEST(AsyncQueue, CoDequeueSuspendsThenResumesInlineOnProducerNotify) {
  async_wf q(4);  // no executor: the notifier resumes the coroutine inline
  auto t = q.co_dequeue();
  t.start();
  ASSERT_FALSE(t.done());  // parked on the hub
  EXPECT_TRUE(q.hub().maybe_waiters());
  std::thread producer([&] { q.enqueue(99); });
  producer.join();  // enqueue's notify ran the continuation on its thread
  ASSERT_TRUE(t.done());
  EXPECT_EQ(t.take(), std::optional<std::uint64_t>(99));
  EXPECT_EQ(q.hub().stats().parks, 1u);
  EXPECT_EQ(q.hub().stats().resumes, 1u);
}

TEST(AsyncQueue, CloseDrainsThenCompletesEmpty) {
  async_wf q(4);
  q.enqueue(1);
  q.enqueue(2);
  q.close();
  auto a = q.co_dequeue();
  a.start();
  auto b = q.co_dequeue();
  b.start();
  auto c = q.co_dequeue();
  c.start();
  EXPECT_EQ(a.take(), std::optional<std::uint64_t>(1));
  EXPECT_EQ(b.take(), std::optional<std::uint64_t>(2));
  EXPECT_EQ(c.take(), std::nullopt);  // closed-and-drained
}

task<void> consume_all(async_wf& q, std::vector<std::uint64_t>& out,
                       std::atomic<std::uint64_t>& total) {
  for (;;) {
    auto v = co_await q.co_dequeue();
    if (!v) co_return;
    out.push_back(*v);
    total.fetch_add(1, std::memory_order_relaxed);
  }
}

TEST(AsyncQueue, MultiCoroutineFanInDrainsEverythingExactlyOnce) {
  constexpr int kConsumers = 8;
  constexpr std::uint64_t kItems = 2000;
  async_wf q(8);
  event_loop loop;
  q.set_executor(&loop);

  std::vector<std::vector<std::uint64_t>> got(kConsumers);
  std::atomic<std::uint64_t> total{0};
  for (int c = 0; c < kConsumers; ++c) {
    loop.spawn(consume_all(q, got[c], total));
  }
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kItems; ++i) q.enqueue(i);
    q.close();
  });
  loop.run();  // returns when every consumer saw closed-and-drained
  producer.join();

  std::multiset<std::uint64_t> all;
  for (const auto& v : got) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), kItems);
  EXPECT_EQ(total.load(), kItems);
  for (std::uint64_t i = 0; i < kItems; ++i) {
    EXPECT_EQ(all.count(i), 1u) << "value " << i;
  }
}

task<void> co_enqueue_one(async_bounded& q, std::uint64_t v, bool& admitted) {
  admitted = co_await q.co_enqueue(v);
}

task<void> drain_later(event_loop& loop, async_bounded& q, std::size_t n) {
  co_await loop.sleep_for(5ms);
  // Drain EVERYTHING that was enqueued: live bytes only fall when whole
  // segments reclaim, so partial drains may free no admission room at all.
  for (std::size_t i = 0; i < n; ++i) {
    (void)co_await q.co_dequeue();  // notifying drain frees room
    // Unwind the resume chain periodically: each fast-path co_await
    // completes by symmetric transfer, which TSan instrumentation keeps
    // from being a tail call — an unbounded inline run would grow the
    // stack per item (docs/ASYNC.md §3, cooperative chunking).
    if ((i & 0xff) == 0xff) co_await loop.yield();
  }
}

TEST(AsyncQueue, BoundedCoEnqueueParksOnBackpressureThenAdmits) {
  // Fill-to-ceiling then full drain is ~100k ops; TSan makes each one
  // ~20x slower, so shrink the ceiling there to stay inside the ctest
  // timeout (the parking/admission logic being tested is size-independent).
#if defined(__SANITIZE_THREAD__)
  bounded_config cfg{768u << 10, full_policy::block};
#else
  bounded_config cfg{3u << 20, full_policy::block};
#endif
  cfg.block_recheck = 2ms;
  async_bounded q(8, cfg);
  event_loop loop;
  q.set_executor(&loop);

  std::uint64_t n = 0;
  while (q.queue().try_enqueue_nowait(n, this_thread_id())) ++n;
  ASSERT_GT(n, 0u);

  bool admitted = false;
  loop.spawn(co_enqueue_one(q, n, admitted));
  EXPECT_FALSE(admitted);  // suspended at the ceiling
  EXPECT_TRUE(q.queue().room_hub().maybe_waiters());
  loop.spawn(drain_later(loop, q, n));
  loop.run();
  EXPECT_TRUE(admitted);
  EXPECT_GE(q.queue().room_hub().stats().parks, 1u);
  EXPECT_EQ(q.queue().stats().admitted, n + 1);
}

task<void> co_dequeue_for_into(async_wf& q, std::chrono::milliseconds d,
                               std::optional<std::uint64_t>& out) {
  out = co_await q.co_dequeue_for(d);
}

task<void> co_dequeue_for_timed(
    async_wf& q, std::chrono::milliseconds d,
    std::optional<std::uint64_t>& out,
    std::chrono::steady_clock::time_point& served_at) {
  out = co_await q.co_dequeue_for(d);
  served_at = std::chrono::steady_clock::now();
}

TEST(AsyncQueue, CoDequeueForTimesOutEmptyHanded) {
  async_wf q(4);
  event_loop loop;
  q.set_executor(&loop);
  std::optional<std::uint64_t> out = std::optional<std::uint64_t>(1234);
  // t0 BEFORE spawn: spawn runs the coroutine inline up to its first
  // suspension, which stamps the deadline — under a sanitizer that setup
  // can take several ms, and t0-after-spawn would overstate the wait.
  const auto t0 = std::chrono::steady_clock::now();
  loop.spawn(co_dequeue_for_into(q, 20ms, out));
  loop.run();
  const auto dt = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(out, std::nullopt);
  EXPECT_GE(dt, 19ms);
  EXPECT_FALSE(q.hub().maybe_waiters());  // timed-out waiter fully delisted
}

TEST(AsyncQueue, CoDequeueForReturnsEarlyWhenServed) {
  async_wf q(4);
  event_loop loop;
  q.set_executor(&loop);
  std::optional<std::uint64_t> out;
  auto served_at = std::chrono::steady_clock::time_point::max();
  // NOTE: run() itself drains the (now-useless) deadline timer before it
  // returns — the TASK completes early, the loop exits at the deadline.
  loop.spawn(co_dequeue_for_timed(q, 2s, out, served_at));
  std::thread producer([&] {
    std::this_thread::sleep_for(10ms);
    q.enqueue(55);
  });
  const auto t0 = std::chrono::steady_clock::now();
  loop.run();
  producer.join();
  EXPECT_EQ(out, std::optional<std::uint64_t>(55));
  EXPECT_LT(served_at - t0, 1s);  // served on arrival, not at the deadline
}

task<void> select_all(std::vector<async_wf*> qs,
                      std::vector<std::pair<std::uint64_t, std::size_t>>& out) {
  for (;;) {
    auto r = co_await co_select<wf_queue_opt<std::uint64_t>>(qs);
    if (!r.value) {
      EXPECT_FALSE(r.open);  // only terminates when every queue closed
      co_return;
    }
    out.emplace_back(*r.value, r.index);
  }
}

TEST(AsyncQueue, SelectMultiplexesTwoQueuesAndReportsSource) {
  async_wf q0(4), q1(4);
  event_loop loop;
  q0.set_executor(&loop);
  q1.set_executor(&loop);
  std::vector<std::pair<std::uint64_t, std::size_t>> out;
  loop.spawn(select_all({&q0, &q1}, out));
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < 50; ++i) {
      (i % 2 ? q1 : q0).enqueue(i);
    }
    q0.close();
    q1.close();
  });
  loop.run();
  producer.join();
  ASSERT_EQ(out.size(), 50u);
  std::multiset<std::uint64_t> seen;
  for (auto [v, idx] : out) {
    seen.insert(v);
    EXPECT_EQ(idx, v % 2) << "value " << v << " served by wrong shard";
  }
  EXPECT_EQ(seen.size(), 50u);
}

task<void> drain_any(async_sharded<wf_queue_opt<std::uint64_t>>& s,
                     std::multiset<std::uint64_t>& out) {
  for (;;) {
    auto r = co_await s.co_dequeue_any();
    if (!r.value) co_return;
    EXPECT_LT(r.index, s.shard_count());
    out.insert(*r.value);
  }
}

TEST(AsyncQueue, ShardedCoDequeueAnyDrainsAllShards) {
  constexpr std::uint64_t kItems = 600;
  async_sharded<wf_queue_opt<std::uint64_t>> shards(3, 8);
  event_loop loop;
  shards.set_executor(&loop);
  std::multiset<std::uint64_t> out;
  loop.spawn(drain_any(shards, out));
  std::thread producer([&] {
    // Spread across shards explicitly (round robin over shard index).
    for (std::uint64_t i = 0; i < kItems; ++i) {
      shards.shard(i % 3).enqueue(i);
    }
    shards.close_all();
  });
  loop.run();
  producer.join();
  EXPECT_EQ(out.size(), kItems);
  for (std::uint64_t i = 0; i < kItems; ++i) EXPECT_EQ(out.count(i), 1u);
}

TEST(AsyncQueue, SelectScansFromTheFirstQueueOnEveryCall) {
  // co_select's order is a priority: while queue 0 holds items, it serves.
  async_wf q0(4), q1(4);
  for (std::uint64_t i = 0; i < 3; ++i) {
    q0.enqueue(i);
    q1.enqueue(10 + i);
  }
  const std::vector<async_wf*> qs{&q0, &q1};
  std::vector<std::size_t> served;
  for (int k = 0; k < 6; ++k) {
    auto t = co_select<wf_queue_opt<std::uint64_t>>(qs);
    t.start();
    ASSERT_TRUE(t.done());
    served.push_back(t.take().index);
  }
  EXPECT_EQ(served, (std::vector<std::size_t>{0, 0, 0, 1, 1, 1}));
}

// ------------------------------------- co_dequeue_any's rotating scan start
// The ready-path scan starts at the shard after the one that served the
// previous call. No executor: a ready item completes the task at start().
// The inner queues count their empty dequeues (wf_options_stats), which is
// what a scan pays for each shard it finds dry.

using stats_wf = wf_queue<std::uint64_t, help_one, fetch_add_phase, hp_domain,
                          wf_options_stats>;
using stats_sharded = async_sharded<stats_wf>;

std::optional<select_result<std::uint64_t>> dequeue_any_inline(
    stats_sharded& s) {
  auto t = s.co_dequeue_any();
  t.start();
  if (!t.done()) return std::nullopt;  // parked: nothing was ready
  return t.take();
}

std::uint64_t empty_probes(const stats_sharded& s) {
  std::uint64_t n = 0;
  for (auto* shard : s.shard_ptrs()) {
    n += shard->queue().aggregate_counters().empty_deqs;
  }
  return n;
}

std::uint64_t hub_parks(const stats_sharded& s) {
  std::uint64_t n = 0;
  for (auto* shard : s.shard_ptrs()) n += shard->hub().stats().parks;
  return n;
}

TEST(AsyncSharded, DrainMakesNoEmptyProbeWhileItemsRemain) {
  constexpr std::uint32_t kShards = 4;
  constexpr std::uint64_t kPerShard = 64;
  constexpr std::uint64_t kItems = kShards * kPerShard;
  stats_sharded shards(kShards, 4);
  for (std::uint64_t i = 0; i < kItems; ++i) {
    shards.shard(i % kShards).enqueue(i);
  }
  std::vector<int> seen(kItems, 0);
  for (std::uint64_t i = 0; i < kItems; ++i) {
    auto r = dequeue_any_inline(shards);
    ASSERT_TRUE(r && r->value) << "item " << i << " was not ready";
    ASSERT_LT(*r->value, kItems);
    ++seen[*r->value];
  }
  for (std::uint64_t i = 0; i < kItems; ++i) EXPECT_EQ(seen[i], 1) << i;
  // A scan from shard 0 on every call would probe each drained shard again
  // before every later item: about 1.5 * kShards * kPerShard empty probes.
  EXPECT_LE(empty_probes(shards), kShards);
  EXPECT_EQ(hub_parks(shards), 0u);
}

TEST(AsyncSharded, CoDequeueAnyRotatesAcrossNonEmptyShards) {
  constexpr std::uint32_t kShards = 4;
  stats_sharded shards(kShards, 4);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    for (std::uint64_t i = 0; i < 3; ++i) shards.shard(s).enqueue(s * 10 + i);
  }
  for (int round = 0; round < 3; ++round) {
    std::set<std::size_t> servers;
    for (std::uint32_t k = 0; k < kShards; ++k) {
      auto r = dequeue_any_inline(shards);
      ASSERT_TRUE(r && r->value);
      EXPECT_EQ(*r->value / 10, r->index) << "value came from another shard";
      servers.insert(r->index);
    }
    EXPECT_EQ(servers.size(), kShards) << "round " << round;
  }
  EXPECT_EQ(empty_probes(shards), 0u);
}

TEST(AsyncSharded, ReadyScanReachesTheShardBeforeItsStart) {
  // After shard j serves, the next scan starts at j + 1 and visits j last.
  // An item left only in shard j must still be found by that scan, without
  // parking and re-checking: kShards - 1 empty probes, no park.
  constexpr std::uint32_t kShards = 4;
  stats_sharded shards(kShards, 4);
  for (std::uint32_t j = 0; j < kShards; ++j) {
    shards.shard(j).enqueue(2 * j);
    auto first = dequeue_any_inline(shards);
    ASSERT_TRUE(first && first->value);
    ASSERT_EQ(first->index, j);
    shards.shard(j).enqueue(2 * j + 1);
    const std::uint64_t probes = empty_probes(shards);
    auto second = dequeue_any_inline(shards);
    ASSERT_TRUE(second && second->value);
    EXPECT_EQ(second->index, j);
    EXPECT_EQ(*second->value, 2 * j + 1);
    EXPECT_EQ(empty_probes(shards) - probes, kShards - 1) << "shard " << j;
    EXPECT_EQ(hub_parks(shards), 0u) << "shard " << j;
  }
}

// Mixed mode: plain producer THREADS, coroutine consumers, one history.
// The front-end must preserve the inner queue's linearizability — recorded
// invocation/response windows around enqueue() and co_dequeue must admit a
// legal sequential FIFO witness.
task<void> recorded_consume(async_wf& q, history_recorder& h,
                            std::uint32_t log_tid) {
  for (;;) {
    // All consumer coroutines run on the loop thread, so one log bucket is
    // written single-threadedly even across suspensions.
    auto sc = h.begin(log_tid, op_kind::deq);
    auto v = co_await q.co_dequeue();
    if (v) {
      sc.set_value(*v);
      sc.commit();
    } else {
      sc.set_empty();
      sc.commit();
      co_return;
    }
  }
}

TEST(AsyncQueue, MixedThreadAndCoroutineHistoryIsLinearizable) {
  constexpr std::uint32_t kProducers = 2;
  constexpr std::uint64_t kPerProducer = 4;  // checker wants tiny histories
  async_wf q(8);
  event_loop loop;
  q.set_executor(&loop);
  history_recorder h(8);

  // Consumers share the loop thread; give each its own log bucket anyway.
  loop.spawn(recorded_consume(q, h, 6));
  loop.spawn(recorded_consume(q, h, 7));

  std::atomic<std::uint32_t> remaining{kProducers};
  std::vector<std::thread> producers;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const std::uint32_t tid = this_thread_id();
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t v = p * kPerProducer + i;
        auto sc = h.begin(p, op_kind::enq, v);
        q.enqueue(v, tid);
        sc.commit();
      }
      if (remaining.fetch_sub(1) == 1) q.close();
    });
  }
  loop.run();
  for (auto& t : producers) t.join();

  auto events = h.collect();
  // 8 enqueues + 8 successful dequeues + 2 empty completions.
  EXPECT_EQ(events.size(), 2 * kProducers * kPerProducer + 2);
  EXPECT_TRUE(lin_checker::is_linearizable(std::move(events)));
}

}  // namespace
}  // namespace kpq::async
