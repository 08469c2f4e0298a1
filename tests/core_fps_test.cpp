// Tests for the fast-path/slow-path wait-free queue (wf_queue_fps).
//
// Beyond re-running the generic sequential/stress batteries (the typed
// suites in core_wfqueue_test / core_stress_test include fps), this file
// targets the path INTERPLAY: fast/slow races, helping across paths, the
// progress of a stalled slow-path announce, and the fast path's step bound.
// A stalled owner is simulated with the white-box driver: it publishes a
// pending request for a thread id no thread runs, exactly the state a
// thread leaves behind when it stops right after its announce.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "core/wf_queue.hpp"
#include "harness/workload.hpp"
#include "support/whitebox.hpp"
#include "sync/spin_barrier.hpp"
#include "verify/fifo_checker.hpp"
#include "verify/history.hpp"

namespace kpq {
namespace {

using testing::whitebox;

struct one_try_options : fps_options {
  static constexpr std::uint32_t max_tries = 1;
};
struct stats_fps_options : fps_options {
  static constexpr bool collect_stats = true;
};

using fps_queue = wf_queue_fps<std::uint64_t>;

template <typename Q>
class FpsVariantTest : public ::testing::Test {};
using FpsTypes =
    ::testing::Types<fps_queue,
                     wf_queue_fps<std::uint64_t, hp_domain, stats_fps_options>,
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

/// Leaves `tid` as a stalled owner with a pending slow-path enqueue of `v`.
template <typename Q>
void publish_stalled_enqueue(Q& q, std::uint32_t tid, std::uint64_t v) {
  auto* node = whitebox::make_node(q, v, static_cast<std::int32_t>(tid), tid);
  whitebox::publish(q, tid, whitebox::next_phase(q, tid), /*pending=*/true,
                    /*enq=*/true, node);
}

TEST(FpsInterplay, SlowEnqueuesVisibleToFastDequeues) {
  // Two announced (never linked) enqueues; each fast dequeue's probe
  // completes the next one in cursor order before its own MS attempt.
  fps_queue q(3);
  publish_stalled_enqueue(q, 0, 7);
  publish_stalled_enqueue(q, 1, 8);
  EXPECT_EQ(q.dequeue(2), std::optional<std::uint64_t>(7));
  EXPECT_EQ(q.dequeue(2), std::optional<std::uint64_t>(8));
  EXPECT_EQ(q.dequeue(2), std::nullopt);
}

// ------------------------------------------- stalled slow-path progress

TEST(FpsProgress, PeersCompleteAStalledSlowEnqueue) {
  fps_queue q(2);
  publish_stalled_enqueue(q, 0, 42);

  // Thread 1's operations probe the announce array (help_someone) and must
  // complete the stalled enqueue within max_threads operations.
  std::optional<std::uint64_t> v;
  for (int i = 0; i < 2 && !v.has_value(); ++i) v = q.dequeue(1);
  ASSERT_TRUE(v.has_value()) << "peer never helped the stalled enqueue";
  EXPECT_EQ(*v, 42u);
  EXPECT_FALSE(whitebox::pending(q, 0, 1));
  EXPECT_EQ(q.unsafe_size(), 0u);
}

TEST(FpsProgress, PeersCompleteAStalledSlowDequeue) {
  fps_queue q(2);
  q.enqueue(5, 1);
  q.enqueue(6, 1);
  whitebox::publish(q, 0, whitebox::next_phase(q, 0), /*pending=*/true,
                    /*enq=*/false, nullptr);

  // Peer operations must execute the stalled dequeue; its result lands in
  // the owner's record, and the peer's own dequeues see later elements.
  std::vector<std::uint64_t> peer_got;
  for (int i = 0; i < 4; ++i) {
    if (auto v = q.dequeue(1)) peer_got.push_back(*v);
  }
  ASSERT_FALSE(whitebox::pending(q, 0, 1)) << "stalled dequeue never helped";
  const auto d = whitebox::state(q, 0);
  ASSERT_TRUE(d.has_value) << "stalled dequeue linearized as empty";
  EXPECT_EQ(d.value, 5u) << "stalled dequeue must receive the front element";
  ASSERT_EQ(peer_got.size(), 1u);
  EXPECT_EQ(peer_got[0], 6u);
}

// ------------------------------------------------------ fast-path step bound

std::array<std::atomic<std::uint64_t>, 3> g_fast_attempts;
/// Interference a test installs to run before each fast attempt.
void (*g_before_attempt)(std::uint32_t tid) = nullptr;

struct counting_hooks : no_hooks {
  static void on_fast_attempt(std::uint32_t tid, bool /*is_enq*/) {
    g_fast_attempts[tid].fetch_add(1, std::memory_order_relaxed);
    if (g_before_attempt != nullptr) g_before_attempt(tid);
  }
};
struct counted_options : fps_options {
  using hooks = counting_hooks;
  static constexpr bool collect_stats = true;
  static constexpr std::uint32_t max_tries = 3;
};
using counted_queue = wf_queue_fps<std::uint64_t, hp_domain, counted_options>;

/// Installs a g_before_attempt hook for one scope, removed also when an
/// assertion ends the test early.
struct scoped_attempt_hook {
  explicit scoped_attempt_hook(void (*hook)(std::uint32_t tid)) {
    g_before_attempt = hook;
  }
  ~scoped_attempt_hook() { g_before_attempt = nullptr; }
  scoped_attempt_hook(const scoped_attempt_hook&) = delete;
  scoped_attempt_hook& operator=(const scoped_attempt_hook&) = delete;
};

std::uint64_t attempts(std::uint32_t tid) {
  return g_fast_attempts[tid].load(std::memory_order_relaxed);
}

/// Checks that the values in `got` are exactly {encode_value(t, s) : s <
/// produced[t]}, each once.
void expect_each_value_once(const std::vector<std::uint64_t>& got,
                            const std::vector<std::uint64_t>& produced) {
  std::vector<std::vector<std::uint8_t>> seen(produced.size());
  std::uint64_t expected = 0;
  for (std::size_t t = 0; t < produced.size(); ++t) {
    seen[t].assign(produced[t], 0);
    expected += produced[t];
  }
  for (const std::uint64_t v : got) {
    const std::uint32_t t = value_tid(v);
    ASSERT_LT(t, produced.size());
    ASSERT_LT(value_seq(v), produced[t]);
    ASSERT_EQ(seen[t][value_seq(v)]++, 0) << "value dequeued twice";
  }
  EXPECT_EQ(got.size(), expected) << "a value was lost";
}

struct one_try_counted_options : counted_options {
  static constexpr std::uint32_t max_tries = 1;
};

template <typename Q>
Q*& stall_queue() {
  static Q* q = nullptr;
  return q;
}
std::uint64_t g_stalled_enqueues = 0;

/// Before each fast attempt of tid 1, tid 0 (which no thread runs) gets a
/// pending enqueue whose node is linked but whose tail swing never happened:
/// an owner stalled right after its linearizing CAS. The attempt must first
/// finish that enqueue, so every fast enqueue attempt fails and each enqueue
/// exhausts its budget before it announces. No operation may make more than
/// max_tries attempts.
template <typename Options>
void expect_enqueues_exhaust_budget_with_stalled_peer() {
  using Q = wf_queue_fps<std::uint64_t, hp_domain, Options>;
  static_assert(Q::has_fast_path);
  constexpr std::uint32_t kMax = Options::max_tries;
  constexpr std::uint64_t kOps = 200;
  for (auto& a : g_fast_attempts) a.store(0, std::memory_order_relaxed);
  Q q(2);
  stall_queue<Q>() = &q;
  g_stalled_enqueues = 0;
  std::vector<std::uint64_t> got;
  {
    const scoped_attempt_hook hook([](std::uint32_t tid) {
      // tid 0's own guard: tid 1's is live in the operation being attempted.
      if (tid != 1 || whitebox::pending(*stall_queue<Q>(), 0, 0)) return;
      publish_stalled_enqueue(*stall_queue<Q>(), 0,
                              encode_value(0, g_stalled_enqueues++));
      whitebox::link_pending_node(*stall_queue<Q>(), 0);
    });
    for (std::uint64_t i = 0; i < kOps; ++i) {
      std::uint64_t before = attempts(1);
      q.enqueue(encode_value(1, i), 1);
      ASSERT_EQ(attempts(1) - before, kMax) << "enqueue " << i;
      before = attempts(1);
      if (auto v = q.dequeue(1)) got.push_back(*v);
      ASSERT_LE(attempts(1) - before, kMax) << "dequeue " << i;
    }
  }
  EXPECT_EQ(q.counters(1).enq_ops, kOps);
  EXPECT_EQ(q.counters(1).fast_enqs, 0u) << "a fast enqueue attempt won";

  whitebox::help_enq(q, 0, INT64_MAX, 1);  // the last stalled enqueue
  while (auto v = q.dequeue(1)) got.push_back(*v);
  expect_each_value_once(got, {g_stalled_enqueues, kOps});
}

TEST(FpsStepBound, FastAttemptsPerOpNeverExceedMaxTriesWithStalledPeer) {
  expect_enqueues_exhaust_budget_with_stalled_peer<counted_options>();
}

TEST(FpsStepBound, SingleTryBudgetIsExact) {
  // max_tries == 1, the smallest fast path: one failed attempt, then the
  // announce.
  expect_enqueues_exhaust_budget_with_stalled_peer<one_try_counted_options>();
}

/// tid 0's stalled dequeues: published, and values taken from completed ones.
bool g_stalled_deq_outstanding = false;
std::vector<std::uint64_t> g_stalled_deq_got;

void collect_stalled_dequeue(counted_queue& q) {
  if (!g_stalled_deq_outstanding || whitebox::pending(q, 0, 0)) return;
  const auto d = whitebox::state(q, 0);
  ASSERT_TRUE(d.has_value) << "stalled dequeue linearized as empty";
  g_stalled_deq_got.push_back(d.value);
  g_stalled_deq_outstanding = false;
}

TEST(FpsStepBound, FastDequeueAttemptsExhaustMaxTriesWithStalledPeer) {
  // The dequeue side: before each fast dequeue attempt of tid 1, tid 0 gets
  // a pending dequeue that has claimed the current sentinel (its deqTid)
  // but neither recorded the value nor swung the head — a dequeuer stalled
  // right after its linearizing CAS. The attempt's own claim CAS on that
  // sentinel fails and it finishes tid 0's dequeue instead, so every fast
  // attempt fails: each dequeue makes exactly max_tries attempts and then
  // completes on the slow path. Every element goes to exactly one of the
  // two dequeuers, each in FIFO order.
  constexpr std::uint32_t kMax = counted_options::max_tries;
  constexpr std::uint64_t kOps = 100;
  constexpr std::uint64_t kItems = kOps * (kMax + 1);
  for (auto& a : g_fast_attempts) a.store(0, std::memory_order_relaxed);
  counted_queue q(2);
  for (std::uint64_t i = 0; i < kItems; ++i) q.enqueue(i, 1);
  stall_queue<counted_queue>() = &q;
  g_stalled_deq_outstanding = false;
  g_stalled_deq_got.clear();
  std::vector<std::uint64_t> got;
  {
    const scoped_attempt_hook hook([](std::uint32_t tid) {
      counted_queue& sq = *stall_queue<counted_queue>();
      if (tid != 1) return;
      collect_stalled_dequeue(sq);
      if (g_stalled_deq_outstanding) return;
      whitebox::publish(sq, 0, whitebox::next_phase(sq, 0), /*pending=*/true,
                        /*enq=*/false, whitebox::head(sq));
      whitebox::claim_head(sq, 0);
      g_stalled_deq_outstanding = true;
    });
    for (std::uint64_t i = 0; i < kOps; ++i) {
      const std::uint64_t before = attempts(1);
      const auto v = q.dequeue(1);
      ASSERT_TRUE(v.has_value()) << "dequeue " << i;
      got.push_back(*v);
      ASSERT_EQ(attempts(1) - before, kMax) << "dequeue " << i;
      collect_stalled_dequeue(q);
    }
  }
  EXPECT_FALSE(g_stalled_deq_outstanding);
  EXPECT_EQ(q.counters(1).deq_ops, kOps);
  EXPECT_EQ(q.counters(1).fast_deqs, 0u) << "a fast dequeue attempt won";
  EXPECT_EQ(q.dequeue(1), std::nullopt);

  ASSERT_EQ(got.size(), kOps);
  ASSERT_EQ(g_stalled_deq_got.size(), kOps * kMax);
  EXPECT_TRUE(std::is_sorted(got.begin(), got.end()));
  EXPECT_TRUE(std::is_sorted(g_stalled_deq_got.begin(),
                             g_stalled_deq_got.end()));
  std::vector<std::uint64_t> all = got;
  all.insert(all.end(), g_stalled_deq_got.begin(), g_stalled_deq_got.end());
  std::sort(all.begin(), all.end());
  for (std::uint64_t i = 0; i < kItems; ++i) ASSERT_EQ(all[i], i);
}

TEST(FpsStepBound, UncontendedOperationsTakeOneAttemptEach) {
  // Alone on the queue, the first fast attempt of every operation wins —
  // enqueue, dequeue and dequeue-on-empty — and nothing is announced.
  constexpr std::uint64_t kOps = 300;
  for (auto& a : g_fast_attempts) a.store(0, std::memory_order_relaxed);
  counted_queue q(2);
  for (std::uint64_t i = 0; i < kOps; ++i) {
    std::uint64_t before = attempts(1);
    q.enqueue(i, 1);
    ASSERT_EQ(attempts(1) - before, 1u) << "enqueue " << i;
    before = attempts(1);
    ASSERT_EQ(q.dequeue(1), std::optional<std::uint64_t>(i));
    ASSERT_EQ(attempts(1) - before, 1u) << "dequeue " << i;
    before = attempts(1);
    ASSERT_EQ(q.dequeue(1), std::nullopt);
    ASSERT_EQ(attempts(1) - before, 1u) << "empty dequeue " << i;
  }
  const wf_counters& c = q.counters(1);
  EXPECT_EQ(c.enq_ops, kOps);
  EXPECT_EQ(c.deq_ops, 2 * kOps);
  EXPECT_EQ(c.fast_enqs, c.enq_ops);
  EXPECT_EQ(c.fast_deqs, c.deq_ops);
  EXPECT_EQ(c.empty_deqs, kOps);
  EXPECT_FALSE(whitebox::state(q, 1).pending);
}

TEST(FpsProgress, ConcurrentPeersKeepCompletingAStalledOwner) {
  // tid 0 is a stalled owner: whenever peers have completed its pending
  // enqueue, thread 1 publishes the next one on its behalf, so most
  // operations of threads 1 and 2 run while a peer's announce is pending.
  // The operations stay within their fast-path budget, the stalled owner's
  // enqueues keep completing, and every value comes out exactly once.
  constexpr std::uint64_t kPairs = 2000;
  constexpr std::uint32_t kMax = counted_options::max_tries;
  counted_queue q(3);
  spin_barrier barrier(2);
  std::uint64_t stalled_published = 0;
  std::array<std::uint64_t, 3> over_budget{};
  std::array<std::vector<std::uint64_t>, 3> got;

  const auto worker = [&](std::uint32_t tid) {
    const auto bounded = [&](auto&& op) {
      const std::uint64_t before = attempts(tid);
      op();
      if (attempts(tid) - before > kMax) ++over_budget[tid];
    };
    barrier.arrive_and_wait();
    for (std::uint64_t i = 0; i < kPairs; ++i) {
      if (tid == 1 && !whitebox::pending(q, 0, 1)) {
        publish_stalled_enqueue(q, 0, encode_value(0, stalled_published++));
      }
      bounded([&] { q.enqueue(encode_value(tid, i), tid); });
      bounded([&] {
        if (auto v = q.dequeue(tid)) got[tid].push_back(*v);
      });
    }
  };
  std::thread t2(worker, 2);
  worker(1);
  t2.join();
  EXPECT_EQ(over_budget[1] + over_budget[2], 0u)
      << "an operation exceeded max_tries";
  // Each republish needs the previous stalled enqueue completed by a peer.
  EXPECT_GE(stalled_published, kPairs / 4);

  whitebox::help_enq(q, 0, INT64_MAX, 1);  // the last stalled enqueue
  while (auto v = q.dequeue(1)) got[0].push_back(*v);
  std::vector<std::uint64_t> all;
  for (const auto& g : got) all.insert(all.end(), g.begin(), g.end());
  expect_each_value_once(all, {stalled_published, kPairs, kPairs});
}

// ------------------------------------------------------ real-thread fallback

thread_local std::uint32_t t_op_attempts = 0;
struct fallback_hooks : no_hooks {
  static void on_fast_attempt(std::uint32_t /*tid*/, bool /*is_enq*/) {
    ++t_op_attempts;
  }
};
struct fallback_options : fps_options {
  using hooks = fallback_hooks;
  static constexpr bool collect_stats = true;
  static constexpr std::uint32_t max_tries = 1;
};

/// hp_domain whose guard yields right after it protects head or tail: an
/// injected delay inside every fast attempt, between the read of tail (or
/// head) and the CAS that depends on it. Another thread's operation can
/// land there even on one CPU, where threads interleave only at yields.
struct yielding_hp : hp_domain {
  using hp_domain::hp_domain;
  struct guard {
    hp_domain::guard g;
    template <typename T>
    T* protect(std::uint32_t slot, const std::atomic<T*>& src) noexcept {
      T* p = g.protect(slot, src);
      if (slot == 0 || slot == 1) std::this_thread::yield();  // s_first/last
      return p;
    }
    template <typename T>
    void protect_raw(std::uint32_t slot, T* p) noexcept {
      g.protect_raw(slot, p);
    }
    void clear(std::uint32_t slot) noexcept { g.clear(slot); }
  };
  guard enter(std::uint32_t tid) noexcept {
    return guard{hp_domain::enter(tid)};
  }
};

TEST(FpsFallback, ContendedRealThreadsFallBackToTheSlowPath) {
  // Two real threads run enqueue/dequeue pairs on one queue with a
  // one-attempt fast path while every head/tail protection yields (above):
  // a fast attempt that another thread's operation overtakes falls back to
  // announcing. No white-box help. Rounds repeat (at most 20) until both
  // fallbacks were seen; every round checks the per-operation step bound
  // and that each value comes out exactly once.
  using Q = wf_queue_fps<std::uint64_t, yielding_hp, fallback_options>;
  static_assert(Q::s_first == 0 && Q::s_last == 1);
  constexpr std::uint32_t kThreads = 2;
  constexpr std::uint64_t kPairs = 2000;
  constexpr std::uint32_t kMax = fallback_options::max_tries;
  wf_counters total;
  std::array<std::uint64_t, kThreads> over_budget{};
  int rounds = 0;
  while (rounds < 20 && !(total.fast_enqs < total.enq_ops &&
                          total.fast_deqs < total.deq_ops)) {
    ++rounds;
    Q q(kThreads);
    std::array<std::vector<std::uint64_t>, kThreads> got;
    const auto worker = [&](std::uint32_t tid) {
      const auto bounded = [&](auto&& op) {
        t_op_attempts = 0;
        op();
        if (t_op_attempts > kMax) ++over_budget[tid];
      };
      for (std::uint64_t i = 0; i < kPairs; ++i) {
        bounded([&] { q.enqueue(encode_value(tid, i), tid); });
        bounded([&] {
          if (auto v = q.dequeue(tid)) got[tid].push_back(*v);
        });
      }
    };
    std::thread other(worker, 1);
    worker(0);
    other.join();
    while (auto v = q.dequeue(0)) got[0].push_back(*v);
    std::vector<std::uint64_t> all;
    for (const auto& g : got) all.insert(all.end(), g.begin(), g.end());
    expect_each_value_once(all, std::vector<std::uint64_t>(kThreads, kPairs));
    total += q.aggregate_counters();
  }
  for (std::uint32_t tid = 0; tid < kThreads; ++tid) {
    EXPECT_EQ(over_budget[tid], 0u) << "an operation exceeded max_tries";
  }
  EXPECT_LT(total.fast_enqs, total.enq_ops)
      << "no enqueue fell back in " << rounds << " rounds";
  EXPECT_LT(total.fast_deqs, total.deq_ops)
      << "no dequeue fell back in " << rounds << " rounds";
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
