// Tests for the sharded front-end: concept conformance, routing per
// policy, the work-stealing dequeue scan, per-shard counters, memory
// accounting flow-through, and a real-thread stress run validated with the
// per-shard FIFO partition of the whole-run checker.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baseline/ms_queue.hpp"
#include "core/wf_queue.hpp"
#include "harness/workload.hpp"
#include "scale/sharded_queue.hpp"
#include "sync/spin_barrier.hpp"
#include "verify/fifo_checker.hpp"
#include "verify/history.hpp"

namespace kpq {
namespace {

using inner_q = wf_queue_opt<std::uint64_t>;
using sharded_wf = sharded_queue<inner_q>;

static_assert(mpmc_queue<sharded_wf>);
static_assert(mpmc_queue_autotid<sharded_wf>);
static_assert(bulk_mpmc_queue<sharded_wf>);
static_assert(mpmc_queue<sharded_queue<ms_queue<std::uint64_t>>>);

TEST(ShardedQueue, AffinityRoutesProducerToHomeShard) {
  sharded_wf q(/*shards=*/4, /*max_threads=*/8);
  q.enqueue(1, /*tid=*/0);  // 0 % 4 == 0
  q.enqueue(2, /*tid=*/5);  // 5 % 4 == 1
  q.enqueue(3, /*tid=*/6);  // 6 % 4 == 2
  EXPECT_EQ(q.shard(0).unsafe_size(), 1u);
  EXPECT_EQ(q.shard(1).unsafe_size(), 1u);
  EXPECT_EQ(q.shard(2).unsafe_size(), 1u);
  EXPECT_EQ(q.shard(3).unsafe_size(), 0u);
  EXPECT_EQ(q.unsafe_size(), 3u);
}

TEST(ShardedQueue, PerShardFifoForOneProducer) {
  sharded_wf q(4, 4);
  for (std::uint64_t i = 0; i < 100; ++i) q.enqueue(i, 1);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>(i));
  }
  EXPECT_EQ(q.dequeue(1), std::nullopt);
}

TEST(ShardedQueue, DequeueScanStealsFromPeerShards) {
  sharded_wf q(2, 4);
  q.enqueue(42, 0);  // lands on shard 0
  // tid 1's home is shard 1 (empty) — the scan must wrap and steal.
  EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>(42));
  const shard_stats s0 = q.shard_counters_snapshot(0);
  EXPECT_EQ(s0.dequeued, 1u);
  EXPECT_EQ(s0.stolen, 1u);
  EXPECT_DOUBLE_EQ(s0.steal_rate(), 1.0);
  // Home-shard hits are not steals.
  q.enqueue(7, 0);
  EXPECT_EQ(q.dequeue(0), std::optional<std::uint64_t>(7));
  EXPECT_EQ(q.shard_counters_snapshot(0).stolen, 1u);
}

TEST(ShardedQueue, EmptyScanVisitsEveryShardOnce) {
  sharded_wf q(8, 8);
  EXPECT_EQ(q.dequeue(3), std::nullopt);
  EXPECT_TRUE(q.empty_hint(3));
  EXPECT_EQ(q.shard_counters_snapshot(3).empty_scans, 1u);  // home of tid 3
  const shard_stats total = q.aggregate_counters();
  EXPECT_EQ(total.empty_scans, 1u);
  EXPECT_EQ(total.dequeued, 0u);
}

TEST(ShardedQueue, DepthCountersTrackLiveItems) {
  sharded_wf q(2, 2);
  for (std::uint64_t i = 0; i < 5; ++i) q.enqueue(i, 0);
  for (std::uint64_t i = 0; i < 3; ++i) q.enqueue(i, 1);
  (void)q.dequeue(0);
  (void)q.dequeue(0);
  EXPECT_EQ(q.shard_counters_snapshot(0).depth(), 3);
  EXPECT_EQ(q.shard_counters_snapshot(1).depth(), 3);
  EXPECT_EQ(q.aggregate_counters().depth(), 6);
  EXPECT_EQ(q.unsafe_size(), 6u);
}

TEST(ShardedQueue, RoundRobinSpreadsEnqueuesEvenly) {
  sharded_queue<inner_q, round_robin_shards> q(4, 2);
  for (std::uint64_t i = 0; i < 8; ++i) q.enqueue(i, 0);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(q.shard(s).unsafe_size(), 2u) << "shard " << s;
  }
}

TEST(ShardedQueue, KeyHashKeepsEqualKeysTogether) {
  // Values sharing value_tid (the default key) must land on one shard even
  // when enqueued by different threads.
  sharded_queue<inner_q, key_hash_shards<>> q(4, 4);
  q.enqueue(encode_value(/*key tid=*/7, 0), /*tid=*/0);
  q.enqueue(encode_value(7, 1), 1);
  q.enqueue(encode_value(7, 2), 2);
  std::uint32_t nonempty = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    if (q.shard(s).unsafe_size() > 0) {
      ++nonempty;
      EXPECT_EQ(q.shard(s).unsafe_size(), 3u);
    }
  }
  EXPECT_EQ(nonempty, 1u);
  // ... and per-key FIFO holds through the front-end.
  EXPECT_EQ(value_seq(*q.dequeue(3)), 0u);
  EXPECT_EQ(value_seq(*q.dequeue(3)), 1u);
  EXPECT_EQ(value_seq(*q.dequeue(3)), 2u);
}

// ------------------------------------------------------------------ misuse
// An out-of-range thread id is refused before routing: the call throws
// std::out_of_range (in the NDEBUG build too), no policy state or shard
// counter moves, and the queue keeps working for valid ids.

TEST(ShardedQueueMisuseTest, OutOfRangeTidThrowsAndLeavesQueueIntact) {
  sharded_wf q(2, 2);
  q.enqueue(1u, 0);
  std::vector<std::uint64_t> in{7u, 8u}, out;
  for (std::uint32_t bad : {2u, 3u, 1u << 20, 0xFFFFFFFFu}) {
    EXPECT_THROW(q.enqueue(9u, bad), std::out_of_range);
    EXPECT_THROW((void)q.dequeue(bad), std::out_of_range);
    EXPECT_THROW((void)q.empty_hint(bad), std::out_of_range);
    EXPECT_THROW(q.enqueue_bulk(in.begin(), in.end(), bad), std::out_of_range);
    EXPECT_THROW(q.enqueue_bulk(in.begin(), in.begin(), bad),
                 std::out_of_range);
    EXPECT_THROW((void)q.dequeue_bulk(out, 4, bad), std::out_of_range);
  }
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(q.unsafe_size(), 1u);
  const shard_stats total = q.aggregate_counters();
  EXPECT_EQ(total.enqueued, 1u);
  EXPECT_EQ(total.dequeued, 0u);
  EXPECT_EQ(total.empty_scans, 0u);
  EXPECT_EQ(total.batch_ops, 0u);
  EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>(1u));
  EXPECT_EQ(q.dequeue(1), std::nullopt);
}

TEST(ShardedQueueMisuseTest, RefusedEnqueueDoesNotAdvanceRoundRobin) {
  // round_robin's cursor advances on every routed enqueue; a refused call
  // must not consume a turn, so valid enqueues still spread evenly.
  sharded_queue<inner_q, round_robin_shards> q(4, 2);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_THROW(q.enqueue(i, 5), std::out_of_range);
    q.enqueue(i, 0);
  }
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(q.shard(s).unsafe_size(), 2u) << "shard " << s;
  }
}

TEST(ShardedQueue, BulkRoutesAsOneUnitAndCounts) {
  sharded_wf q(4, 4);
  std::vector<std::uint64_t> in{10, 11, 12, 13, 14, 15, 16, 17, 18, 19};
  q.enqueue_bulk(in.begin(), in.end(), /*tid=*/1);
  EXPECT_EQ(q.shard(1).unsafe_size(), 10u);  // whole batch on tid's shard
  shard_stats s1 = q.shard_counters_snapshot(1);
  EXPECT_EQ(s1.batch_ops, 1u);
  EXPECT_EQ(s1.batch_items, 10u);
  EXPECT_DOUBLE_EQ(s1.batch_fill(), 10.0);

  std::vector<std::uint64_t> out;
  EXPECT_EQ(q.dequeue_bulk(out, 6, 1), 6u);
  EXPECT_EQ(q.dequeue_bulk(out, 100, 1), 4u);
  EXPECT_EQ(out, in);  // batch FIFO preserved inside the shard
  EXPECT_EQ(q.dequeue_bulk(out, 1, 1), 0u);
}

TEST(ShardedQueue, BulkDequeueStealsAcrossShards) {
  sharded_wf q(2, 4);
  std::vector<std::uint64_t> a{1, 2}, b{3, 4};
  q.enqueue_bulk(a.begin(), a.end(), 0);  // shard 0
  q.enqueue_bulk(b.begin(), b.end(), 1);  // shard 1
  std::vector<std::uint64_t> out;
  EXPECT_EQ(q.dequeue_bulk(out, 10, 0), 4u);  // drains home, then steals
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(q.shard_counters_snapshot(1).stolen, 2u);
}

TEST(ShardedQueue, MemoryCountersFlowThroughToInnerQueues) {
  mem_counters mc;
  {
    sharded_wf q(4, 4, &mc);
    EXPECT_GT(mc.live_bytes(), 0);  // sentinels + initial descriptors
    const std::int64_t baseline = mc.live_bytes();
    for (std::uint64_t i = 0; i < 64; ++i) q.enqueue(i, i % 4);
    EXPECT_GT(mc.live_bytes(), baseline);
  }
  EXPECT_EQ(mc.live_bytes(), 0);  // destruction returns every byte
  EXPECT_EQ(mc.live_objects(), 0);
}

// Real-thread stress: per-shard FIFO and conservation. The affinity policy
// maps value_tid(v) % S to the shard a value lives on, so the recorded
// history can be partitioned per shard and each partition checked against
// full FIFO semantics; empty dequeues are checked against EVERY shard
// (an empty scan is only honest if each shard was empty when visited).
void sharded_stress(std::uint32_t shards, std::uint32_t threads,
                    std::uint64_t pairs) {
  sharded_wf q(shards, threads);
  history_recorder rec(threads);
  spin_barrier barrier(threads);
  std::vector<std::thread> workers;
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      fast_rng rng = thread_stream(0xC0FFEE, t);
      barrier.arrive_and_wait();
      std::uint64_t seq = 0;
      for (std::uint64_t i = 0; i < pairs; ++i) {
        {
          auto s = rec.begin(t, op_kind::enq, encode_value(t, seq));
          q.enqueue(encode_value(t, seq), t);
          s.commit();
          ++seq;
        }
        if (rng.bernoulli(3, 4)) {  // deq 75%: leave a drain remainder
          auto s = rec.begin(t, op_kind::deq);
          auto v = q.dequeue(t);
          if (v) {
            s.set_value(*v);
          } else {
            s.set_empty();
          }
          s.commit();
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  // Partition history and drain per shard; empty deqs go to all shards.
  std::vector<std::vector<op_event>> by_shard(shards);
  for (const op_event& e : rec.collect()) {
    if (e.kind == op_kind::deq && !e.ok) {
      for (auto& h : by_shard) h.push_back(e);
    } else {
      by_shard[value_tid(e.value) % shards].push_back(e);
    }
  }
  std::uint64_t drained_total = 0;
  for (std::uint32_t s = 0; s < shards; ++s) {
    std::vector<std::uint64_t> drained;
    while (auto v = q.shard(s).dequeue(0)) drained.push_back(*v);
    drained_total += drained.size();
    auto r = fifo_checker::check(by_shard[s], drained);
    ASSERT_TRUE(r.ok) << "shard " << s << "/" << shards << ":\n"
                      << r.to_string();
  }
  const shard_stats total = q.aggregate_counters();
  EXPECT_EQ(total.enqueued, static_cast<std::uint64_t>(threads) * pairs);
  EXPECT_EQ(total.enqueued, total.dequeued + drained_total);
}

TEST(ShardedQueueStress, TwoShardsFourThreads) { sharded_stress(2, 4, 2000); }
TEST(ShardedQueueStress, FourShardsEightThreads) {
  sharded_stress(4, 8, 1200);
}
TEST(ShardedQueueStress, EightShardsSixThreads) {
  sharded_stress(8, 6, 1200);
}

}  // namespace
}  // namespace kpq
