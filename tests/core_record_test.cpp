// Tests of the request records that replace the paper's descriptors
// (core/request.hpp): the 16-byte CAS, the sequence number that makes a
// record's states distinct, payloads that ride in the record's word (inline
// or boxed), the record array's memory and who records residency.
//
// The RecordReplay suite is also built with KPQ_MUTANT_RECORD_NO_SEQ, which
// drops the sequence from ctl; tests/CMakeLists.txt registers that build as
// a test that passes only if RecordReplay fails under the mutant.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/request.hpp"
#include "core/wf_queue.hpp"
#include "harness/mem_tracker.hpp"
#include "harness/workload.hpp"
#include "support/whitebox.hpp"
#include "sync/spin_barrier.hpp"

namespace kpq {
namespace {

using testing::whitebox;

// ------------------------------------------------------------ the record

TEST(RequestRecord, NextBumpsTheSequenceAndReplacesTheFlags) {
  const std::uint64_t a = req::next(0, req::pending | req::enqueue);
  EXPECT_EQ(a & req::flags, req::pending | req::enqueue);
  const std::uint64_t b = req::next(a, req::has_value);
  EXPECT_EQ(b & req::flags, req::has_value);
  EXPECT_EQ(b - (b & req::flags), 2 * req::seq_step);
  EXPECT_NE(a, req::next(b, req::pending | req::enqueue))
      << "the same flags one transition later are a different state";
}

TEST(RequestRecord, CasMovesBothHalvesTogetherOrNeither) {
  request r;
  EXPECT_TRUE(cas_request(r, 0, 0, 9, 42));
  EXPECT_FALSE(cas_request(r, 9, 41, 17, 0)) << "word differs";
  EXPECT_FALSE(cas_request(r, 8, 42, 17, 0)) << "ctl differs";
  EXPECT_EQ(r.ctl.load(), 9u);
  EXPECT_EQ(r.word.load(), 42u);
  EXPECT_TRUE(cas_request(r, 9, 42, ~std::uint64_t{0}, ~std::uint64_t{1}));
  EXPECT_EQ(r.ctl.load(), ~std::uint64_t{0});
  EXPECT_EQ(r.word.load(), ~std::uint64_t{1});
}

// ---------------------------------------------------------------- replays
// Deterministic replays of a helper that read a record and acted on it only
// after the record's owner had moved on. The sequence number is what makes
// the late action fail; both tests fail under KPQ_MUTANT_RECORD_NO_SEQ.

struct bulk_replay_hooks : no_hooks {
  static void after_publish(std::uint32_t tid, bool is_enqueue);
};
struct bulk_replay_options : wf_options {
  using hooks = bulk_replay_hooks;
};
using bulk_queue =
    wf_queue<std::uint64_t, help_one, fetch_add_phase, hp_domain,
             bulk_replay_options>;

bulk_queue* g_bulk = nullptr;
int g_bulk_published = 0;
std::optional<whitebox::snapshot<bulk_queue>> g_item0;
bool g_relinked = false;

void bulk_replay_hooks::after_publish(std::uint32_t tid, bool is_enqueue) {
  if (g_bulk == nullptr || tid != 0 || !is_enqueue) return;
  if (g_bulk_published++ == 0) {
    // A helper (thread 1) reads item 0's pending record, then stalls.
    g_item0 = whitebox::read(*g_bulk, 0);
    return;
  }
  if (g_bulk_published == 2) {
    // Item 0 completed (its node is the tail); item 1 was just published
    // with the same phase. The stalled helper resumes: it must find that
    // the record moved, or it links item 0's node a second time.
    g_relinked = whitebox::link(*g_bulk, 0, *g_item0, /*my=*/1);
    if (g_relinked) {
      // Undo the self-link, so the failure shows as this test's assertion
      // rather than as a queue that loops forever.
      whitebox::tail(*g_bulk)->next.store(nullptr);
    }
  }
}

TEST(RecordReplay, BulkHelperCannotRelinkAnEarlierItem) {
  bulk_queue q(2);
  g_bulk = &q;
  g_bulk_published = 0;
  g_relinked = false;
  const std::array<std::uint64_t, 2> items{10, 11};
  q.enqueue_bulk(items.begin(), items.end(), 0);
  g_bulk = nullptr;
  EXPECT_EQ(g_bulk_published, 2);
  EXPECT_FALSE(g_relinked)
      << "a stale snapshot of item 0 passed the ctl re-check against item 1";
  EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>(10));
  EXPECT_EQ(q.dequeue(1), std::optional<std::uint64_t>(11));
  EXPECT_EQ(q.dequeue(1), std::nullopt);
  EXPECT_TRUE(audit_quiescent(whitebox::view(q)).ok);
}

TEST(RecordReplay, StaleSnapshotCannotMoveTheNextOperation) {
  // Thread 0's dequeue is published and a helper reads its record. The
  // dequeue completes and thread 0 publishes its next dequeue, whose record
  // has the same flags and no node yet. The helper's stage-0 CAS from its
  // snapshot must fail: it was read from a different operation.
  using Q = wf_queue_base<std::uint64_t>;
  Q q(2);
  q.enqueue(5, 1);
  whitebox::publish(q, 0, whitebox::next_phase(q, 0), /*pending=*/true,
                    /*enq=*/false, nullptr);
  const auto stale = whitebox::read(q, 0);
  whitebox::help_deq(q, 0, INT64_MAX, /*my=*/1);
  ASSERT_EQ(whitebox::result(q, 0), std::optional<std::uint64_t>(5));
  q.enqueue(6, 1);
  whitebox::publish(q, 0, whitebox::next_phase(q, 0), true, false, nullptr);
  const auto fresh = whitebox::read(q, 0);
  EXPECT_EQ(fresh.word, stale.word);
  EXPECT_FALSE(whitebox::move(q, 0, stale, req::pending, whitebox::head(q), 1))
      << "a CAS read from one operation moved the next one";
  EXPECT_EQ(whitebox::read(q, 0).ctl, fresh.ctl);
  whitebox::help_deq(q, 0, INT64_MAX, 1);
  EXPECT_EQ(whitebox::result(q, 0), std::optional<std::uint64_t>(6));
}

// ---------------------------------------------------------------- payloads

struct pair32 {
  std::int32_t a;
  std::int32_t b;
  bool operator==(const pair32&) const = default;
};
struct wide {
  std::uint64_t x;
  std::uint64_t y;
  bool operator==(const wide&) const = default;
};
static_assert(inline_value<std::uint64_t> && inline_value<pair32> &&
              inline_value<std::uint8_t> && inline_value<const char*>);
static_assert(!inline_value<std::string> && !inline_value<wide>);
// A boxed payload keeps the paper's 24-byte node: the box is a pointer.
static_assert(sizeof(wf_node<std::string>) == 24);
static_assert(wf_queue_opt<std::string>::box_bytes == sizeof(std::string));
static_assert(wf_queue_opt<pair32>::box_bytes == 0);

TEST(RecordPayload, InlineAndBoxedValuesRoundTrip) {
  wf_queue_opt<pair32> small(2);
  small.enqueue({1, -2}, 0);
  small.enqueue({-3, 4}, 1);
  EXPECT_EQ(small.dequeue(1), std::optional<pair32>(pair32{1, -2}));
  EXPECT_EQ(small.dequeue(0), std::optional<pair32>(pair32{-3, 4}));
  EXPECT_EQ(small.dequeue(0), std::nullopt);

  wf_queue_base<std::uint8_t> bytes(2);
  bytes.enqueue(std::uint8_t{255}, 0);
  EXPECT_EQ(bytes.dequeue(1), std::optional<std::uint8_t>(255));

  wf_queue_fps<wide> boxed(2);
  for (std::uint64_t i = 0; i < 50; ++i) boxed.enqueue({i, ~i}, i % 2);
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(boxed.dequeue(i % 2), std::optional<wide>(wide{i, ~i}));
  }
  EXPECT_EQ(boxed.dequeue(0), std::nullopt);
}

TEST(RecordPayload, BoxesAreAccountedAndFreedExactlyOnce) {
  // Every box is one accounted allocation: freed by the dequeue that takes
  // it, or by the destructor for items still queued.
  mem_counters mc;
  {
    wf_queue_opt<std::string> q(2, &mc);
    const std::int64_t floor = mc.live_bytes();
    q.enqueue(std::string(64, 'x'), 0);
    EXPECT_EQ(mc.live_bytes() - floor,
              static_cast<std::int64_t>(sizeof(wf_node<std::string>) +
                                        sizeof(std::string)));
    for (int i = 0; i < 200; ++i) q.enqueue(std::to_string(i), i % 2);
    EXPECT_EQ(q.dequeue(1), std::optional<std::string>(std::string(64, 'x')));
    for (int i = 0; i < 120; ++i) {
      EXPECT_EQ(q.dequeue(i % 2),
                std::optional<std::string>(std::to_string(i)));
    }
  }
  EXPECT_EQ(mc.live_objects(), 0);
  EXPECT_EQ(mc.live_bytes(), 0);
}

template <typename Q>
void boxed_strings_arrive_exactly_once() {
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint64_t kItems = 3000;
  Q q(kThreads);
  spin_barrier barrier(kThreads);
  std::array<std::vector<std::string>, kThreads> got;
  std::vector<std::thread> workers;
  for (std::uint32_t tid = 0; tid < kThreads; ++tid) {
    workers.emplace_back([&, tid] {
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < kItems; ++i) {
        q.enqueue(std::to_string(encode_value(tid, i)) + " payload", tid);
        if (auto v = q.dequeue(tid)) got[tid].push_back(std::move(*v));
      }
    });
  }
  for (auto& w : workers) w.join();
  while (auto v = q.dequeue(0)) got[0].push_back(std::move(*v));
  std::vector<std::vector<std::uint8_t>> seen(
      kThreads, std::vector<std::uint8_t>(kItems));
  std::uint64_t total = 0;
  for (const auto& g : got) {
    for (const std::string& s : g) {
      const std::uint64_t v = std::stoull(s);
      ASSERT_EQ(s, std::to_string(v) + " payload");
      ASSERT_LT(value_tid(v), kThreads);
      ASSERT_EQ(seen[value_tid(v)][value_seq(v)]++, 0) << "dequeued twice";
      ++total;
    }
  }
  EXPECT_EQ(total, kThreads * kItems) << "a value was lost";
}

TEST(RecordPayload, BoxedValuesUnderRealThreadsArriveExactlyOnce) {
  boxed_strings_arrive_exactly_once<wf_queue_opt<std::string>>();
  boxed_strings_arrive_exactly_once<wf_queue_fps<std::string>>();
}

// ----------------------------------------------------------------- memory

TEST(RecordMemory, FloorIsTheSentinelPlusTheRecordArray) {
  using Q = wf_queue_opt<std::uint64_t>;
  mem_counters mc;
  {
    Q q(4, &mc);
    EXPECT_EQ(mc.live_bytes(), static_cast<std::int64_t>(
                                   sizeof(Q::node_type) + Q::records_bytes(4)));
    EXPECT_EQ(mc.live_objects(), 2);
    // Operations allocate and retire nodes only: drained, reclaimed and
    // scanned, the queue is back at its floor.
    for (std::uint64_t i = 0; i < 1000; ++i) {
      q.enqueue(i, i % 4);
      ASSERT_TRUE(q.dequeue((i + 1) % 4).has_value());
    }
    for (std::uint32_t t = 0; t < 4; ++t) q.reclaimer().scan(t);
    EXPECT_EQ(mc.live_bytes(), static_cast<std::int64_t>(
                                   sizeof(Q::node_type) + Q::records_bytes(4)));
  }
  EXPECT_EQ(mc.live_bytes(), 0);
}

// -------------------------------------------------------------- residency

TEST(RecordResidency, TheCompletingHelperRecordsTheOneSample) {
  // Thread 0's dequeue stalls after its publish; thread 1's own dequeue
  // helps it first. Thread 1's CAS completes thread 0's dequeue, so thread
  // 1 records that item's sample; its own dequeue finds the queue empty.
  wf_queue_opt_residency<std::uint64_t> q(2);
  q.enqueue(7, 0);  // leaves thread 1's help cursor on thread 0
  whitebox::publish(q, 0, whitebox::next_phase(q, 0), /*pending=*/true,
                    /*enq=*/false, nullptr);
  EXPECT_EQ(q.dequeue(1), std::nullopt);
  EXPECT_FALSE(whitebox::pending(q, 0, 1));
  EXPECT_EQ(whitebox::result(q, 0), std::optional<std::uint64_t>(7));
  EXPECT_EQ(q.residency_samples(), 1u);
}

}  // namespace
}  // namespace kpq
