// bounded_wf_queue: the hard memory ceiling and the three full-queue
// policies, exercised deterministically single-threaded and under real MPMC
// contention (the ceiling assertion sampled from every producer iteration),
// plus the block-policy shutdown drain mirroring blocking_adapter_test and
// the sharded-over-bounded composition.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "scale/sharded_queue.hpp"
#include "storage/bounded_wf_queue.hpp"

namespace kpq {
namespace {

using bq = bounded_wf_queue<std::uint64_t>;
using inner_q = bq::inner_type;

constexpr std::size_t kSeg = inner_q::storage_type::max_alloc_bytes;

// Tests size ceilings as "steady-state floor + admission headroom + k
// segments", with floor and headroom as the queue itself reports them
// (bq::floor_bytes, bq::headroom_bytes).

// --------------------------------------------------------------- reject

TEST(BoundedReject, CapsThenRecoversAfterDrain) {
  constexpr std::uint32_t n = 2;
  bounded_config cfg{.max_bytes = 0, .policy = full_policy::reject};
  cfg.max_bytes = bq::floor_bytes(n) + bq::headroom_bytes(n) + 4 * kSeg;
  bq q(n, cfg);

  // Fill to rejection; the ceiling must hold at every step.
  std::uint64_t admitted = 0;
  while (q.try_enqueue(admitted, 0)) {
    ++admitted;
    ASSERT_LE(q.live_bytes(), static_cast<std::int64_t>(cfg.max_bytes));
    ASSERT_LT(admitted, 100000u) << "ceiling never reached";
  }
  EXPECT_GT(admitted, 0u);
  EXPECT_EQ(q.stats().admitted, admitted);
  EXPECT_EQ(q.stats().rejected, 1u);
  EXPECT_LE(q.live_bytes(), static_cast<std::int64_t>(cfg.max_bytes));

  // Drain in FIFO order; segment reclamation returns budget, so the queue
  // must accept again.
  for (std::uint64_t i = 0; i < admitted; ++i) {
    auto v = q.dequeue(1);
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, i);
  }
  EXPECT_FALSE(q.dequeue(1).has_value());
  EXPECT_TRUE(q.try_enqueue(999, 0));
  EXPECT_LE(q.live_bytes(), static_cast<std::int64_t>(cfg.max_bytes));
}

TEST(BoundedReject, CeilingHoldsUnderMpmcContention) {
  constexpr std::uint32_t kProducers = 2;
  constexpr std::uint32_t n = kProducers + 1;
  bounded_config cfg{.max_bytes = 0, .policy = full_policy::reject};
  cfg.max_bytes = bq::floor_bytes(n) + bq::headroom_bytes(n) + 8 * kSeg;
  bq q(n, cfg);

  constexpr std::uint64_t kAttempts = 20000;
  std::atomic<std::uint64_t> enq_ok{0}, violations{0};
  std::atomic<bool> producing{true};

  std::vector<std::thread> prod;
  for (std::uint32_t p = 0; p < kProducers; ++p) {
    prod.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kAttempts; ++i) {
        if (q.try_enqueue(i, p)) enq_ok.fetch_add(1);
        if (q.live_bytes() > static_cast<std::int64_t>(cfg.max_bytes)) {
          violations.fetch_add(1);
        }
      }
    });
  }
  std::thread cons([&] {
    while (producing.load(std::memory_order_relaxed)) {
      (void)q.dequeue(kProducers);
    }
  });
  for (auto& t : prod) t.join();
  producing.store(false);
  cons.join();
  while (q.dequeue(0).has_value()) {
  }

  EXPECT_EQ(violations.load(), 0u) << "live bytes exceeded the ceiling";
  EXPECT_GT(enq_ok.load(), 0u);
  const auto st = q.stats();
  EXPECT_EQ(st.admitted, enq_ok.load());
  EXPECT_EQ(st.admitted + st.rejected, kProducers * kAttempts);
}

// ---------------------------------------------------------------- block

TEST(BoundedBlock, ProducerBlocksUntilConsumerMakesRoom) {
  constexpr std::uint32_t n = 2;
  bounded_config cfg{.max_bytes = 0, .policy = full_policy::block};
  const std::size_t h = bq::headroom_bytes(n);
  cfg.max_bytes = bq::floor_bytes(n) + h + 2 * kSeg;
  bq q(n, cfg);

  // Far more values than the ceiling can hold at once: the producer MUST
  // block at least once; the consumer's drain must release it.
  constexpr std::uint64_t kValues = 2000;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kValues; ++i) {
      ASSERT_TRUE(q.try_enqueue(i, 0));
      ASSERT_LE(q.live_bytes(), static_cast<std::int64_t>(cfg.max_bytes));
    }
  });

  // Wait until the producer is actually wedged against the ceiling before
  // draining, so the blocking path is exercised for real.
  while (q.live_bytes() + static_cast<std::int64_t>(h) <=
         static_cast<std::int64_t>(cfg.max_bytes)) {
    std::this_thread::yield();
  }
  std::uint64_t expect = 0;
  while (expect < kValues) {
    if (auto v = q.dequeue(1)) {
      ASSERT_EQ(*v, expect);  // single producer: strict FIFO
      ++expect;
    }
  }
  producer.join();
  EXPECT_GE(q.stats().block_waits, 1u);
  EXPECT_EQ(q.stats().admitted, kValues);
  EXPECT_EQ(q.stats().rejected, 0u);
}

TEST(BoundedBlock, CloseUnblocksProducersAndDrains) {
  constexpr std::uint32_t n = 2;
  bounded_config cfg{.max_bytes = 0, .policy = full_policy::block};
  const std::size_t h = bq::headroom_bytes(n);
  cfg.max_bytes = bq::floor_bytes(n) + h + 2 * kSeg;
  bq q(n, cfg);

  std::atomic<std::uint64_t> admitted{0};
  std::atomic<bool> got_false{false};
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < 100000; ++i) {
      if (!q.try_enqueue(i, 0)) {
        got_false.store(true);  // woken by close(), not by room
        break;
      }
      admitted.fetch_add(1);
    }
  });

  // Let it wedge against the ceiling, then shut down — the shutdown path
  // blocking_adapter_test checks for empty-waits, here for full-waits.
  while (q.live_bytes() + static_cast<std::int64_t>(h) <=
         static_cast<std::int64_t>(cfg.max_bytes)) {
    std::this_thread::yield();
  }
  q.close();
  producer.join();
  EXPECT_TRUE(got_false.load());
  EXPECT_TRUE(q.closed());

  // Every admitted element is still there, in FIFO order: close() affects
  // producers only.
  for (std::uint64_t i = 0; i < admitted.load(); ++i) {
    auto v = q.dequeue(1);
    ASSERT_TRUE(v.has_value());
    ASSERT_EQ(*v, i);
  }
  EXPECT_FALSE(q.dequeue(1).has_value());
}

// ----------------------------------------------------- overwrite_oldest

TEST(BoundedOverwrite, DropsOldestKeepsNewestSuffix) {
  constexpr std::uint32_t n = 1;
  bounded_config cfg{.max_bytes = 0,
                     .policy = full_policy::overwrite_oldest};
  cfg.max_bytes = bq::floor_bytes(n) + bq::headroom_bytes(n) + 3 * kSeg;
  bq q(n, cfg);

  constexpr std::uint64_t kValues = 3000;
  for (std::uint64_t i = 0; i < kValues; ++i) {
    ASSERT_TRUE(q.try_enqueue(i, 0));
    ASSERT_LE(q.live_bytes(), static_cast<std::int64_t>(cfg.max_bytes));
  }
  const auto st = q.stats();
  EXPECT_EQ(st.admitted, kValues);
  EXPECT_GT(st.overwritten, 0u);
  EXPECT_EQ(st.rejected, 0u);

  // What remains must be the newest contiguous suffix: drops always come
  // from the head.
  std::vector<std::uint64_t> rest;
  while (auto v = q.dequeue(0)) rest.push_back(*v);
  ASSERT_FALSE(rest.empty());
  EXPECT_EQ(rest.size() + st.overwritten, kValues);
  for (std::size_t i = 0; i < rest.size(); ++i) {
    ASSERT_EQ(rest[i], kValues - rest.size() + i);
  }
}

TEST(BoundedOverwrite, DegradesToRejectWhenEmptyButOverCeiling) {
  // Minimum legal ceiling: steady-state floor + headroom exactly. Once
  // a second segment exists, live stays above the admission line even with
  // the queue EMPTY (spare/pending segments hold the bytes) — the policy
  // must drain, find nothing left to drop, and reject rather than exceed.
  constexpr std::uint32_t n = 1;
  bounded_config cfg{.max_bytes = 0,
                     .policy = full_policy::overwrite_oldest};
  cfg.max_bytes = bq::floor_bytes(n) + bq::headroom_bytes(n);
  bq q(n, cfg);

  bool saw_reject = false;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    const bool ok = q.try_enqueue(i, 0);
    ASSERT_LE(q.live_bytes(), static_cast<std::int64_t>(cfg.max_bytes));
    if (!ok) {
      saw_reject = true;
      break;
    }
  }
  ASSERT_TRUE(saw_reject) << "never hit the degradation path";
  const auto st = q.stats();
  EXPECT_GE(st.rejected, 1u);
  EXPECT_GT(st.overwritten, 0u);  // it drained before giving up
  EXPECT_FALSE(q.dequeue(0).has_value());  // and really is empty
}

// ------------------------------------------------ sharded-over-bounded

TEST(BoundedSharded, ComposesThroughTheFactoryConstructor) {
  constexpr std::uint32_t kShards = 2, n = 2;
  bounded_config cfg{.max_bytes = std::size_t{1} << 22,
                     .policy = full_policy::reject};
  sharded_queue<bq> q(kShards, n, [&](std::uint32_t) {
    return std::make_unique<bq>(n, cfg);
  });

  constexpr std::uint64_t kPerTid = 500;
  for (std::uint64_t i = 0; i < kPerTid; ++i) {
    q.enqueue(i, 0);
    q.enqueue(kPerTid + i, 1);
  }
  // Per-shard ceilings bound the TOTAL at kShards * max_bytes.
  std::int64_t total_live = 0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    EXPECT_LE(q.shard(s).live_bytes(),
              static_cast<std::int64_t>(cfg.max_bytes));
    total_live += q.shard(s).live_bytes();
  }
  EXPECT_LE(total_live, static_cast<std::int64_t>(kShards * cfg.max_bytes));

  std::uint64_t got = 0, sum = 0;
  while (auto v = q.dequeue(0)) {
    ++got;
    sum += *v;
  }
  EXPECT_EQ(got, 2 * kPerTid);
  EXPECT_EQ(sum, (2 * kPerTid) * (2 * kPerTid - 1) / 2);
  EXPECT_EQ(q.shard(0).stats().admitted + q.shard(1).stats().admitted,
            2 * kPerTid);
}

}  // namespace
}  // namespace kpq
