// Exhaustive schedule exploration of the KP queue's step decomposition.
//
// The paper's §3.1 scheme splits each operation into small atomic steps so
// helpers can share work. OS-thread stress tests only sample interleavings
// of those steps; this test *enumerates* them using the step machines from
// tests/support/step_machines.hpp. A DFS walks every interleaving of the
// machines' steps; after each complete schedule the returned values plus
// final queue content are checked with the exact brute-force
// linearizability checker (op intervals = [first step index, last step
// index]).
//
// Any schedule that loses a value, duplicates one, returns a wrong value,
// or produces an unlinearizable outcome fails loudly with the schedule
// string, which makes failures replayable.
//
// The same explorer covers the fast-path/slow-path queue's cross-path races
// (FpsInterleave), which OS-thread stress cannot pin down deterministically:
// fast deqTid claim vs slow claim on one sentinel, fast (anonymous) link vs
// slow (announced) link, and helpers finishing the other path's steps — on
// heap and on segment storage.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "reclaim/leaky.hpp"
#include "storage/bounded_wf_queue.hpp"
#include "support/step_machines.hpp"
#include "verify/history.hpp"
#include "verify/lin_checker.hpp"

namespace kpq {
namespace {

using testing::basic_machine;
using testing::build_machine_for;
using testing::op_spec;
using testing::sm_queue;

/// Runs one schedule (sequence of machine indexes, greedily extended until
/// all machines finish) and returns false + diagnostics on any violation.
template <typename Q>
::testing::AssertionResult run_schedule(const std::vector<op_spec>& specs,
                                        const std::vector<std::size_t>& sched,
                                        std::uint64_t prefill) {
  Q q(4);
  for (std::uint64_t i = 0; i < prefill; ++i) q.enqueue(1000 + i, 3);

  std::vector<std::unique_ptr<basic_machine<Q>>> ms;
  for (const auto& s : specs) ms.push_back(build_machine_for<Q>(s));

  std::uint64_t clock = 1;
  auto step_machine = [&](std::size_t i) {
    basic_machine<Q>& m = *ms[i];
    if (m.done) return;
    if (m.inv == 0) m.inv = clock++;
    if (m.step(q)) {
      m.done = true;
      m.res = clock++;
    } else {
      ++clock;
    }
  };

  for (std::size_t i : sched) step_machine(i);
  // Greedy tail: round-robin until everything completes (bounded).
  for (int guard = 0; guard < 1000; ++guard) {
    bool all_done = true;
    for (std::size_t i = 0; i < ms.size(); ++i) {
      if (!ms[i]->done) {
        all_done = false;
        step_machine(i);
      }
    }
    if (all_done) break;
  }
  for (auto& m : ms) {
    if (!m->done) {
      return ::testing::AssertionFailure() << "machine failed to terminate";
    }
  }

  // Assemble the history: prefill enqueues (sequential, before everything),
  // the explored operations, then a sequential drain.
  std::vector<op_event> h;
  std::uint64_t pre_ts = 0;
  for (std::uint64_t i = 0; i < prefill; ++i) {
    h.push_back({op_kind::enq, true, 3, 1000 + i, pre_ts, pre_ts + 1});
    pre_ts += 2;
  }
  const std::uint64_t base = pre_ts;  // all machine stamps shifted above
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const auto& s = specs[i];
    if (s.is_enq) {
      h.push_back({op_kind::enq, true, s.tid, s.value, base + ms[i]->inv,
                   base + ms[i]->res});
    } else {
      const std::optional<std::uint64_t>& r = ms[i]->result;
      h.push_back({op_kind::deq, r.has_value(), s.tid, r.value_or(0),
                   base + ms[i]->inv, base + ms[i]->res});
    }
  }
  std::uint64_t drain_ts = base + 10000;
  while (auto v = q.dequeue(3)) {
    h.push_back({op_kind::deq, true, 3, *v, drain_ts, drain_ts + 1});
    drain_ts += 2;
  }

  if (!lin_checker::is_linearizable(h)) {
    std::string sstr;
    for (std::size_t i : sched) sstr += std::to_string(i);
    return ::testing::AssertionFailure()
           << "schedule " << sstr << " produced a non-linearizable history";
  }
  return ::testing::AssertionSuccess();
}

/// Enumerates every interleaving of `budget` scheduler choices over the
/// machines (the greedy tail completes whatever is unfinished).
template <typename Q = sm_queue>
void explore_all(const std::vector<op_spec>& specs, std::uint64_t prefill,
                 int budget) {
  std::vector<std::size_t> sched;
  std::uint64_t count = 0;
  std::function<void()> dfs = [&] {
    if (static_cast<int>(sched.size()) == budget) {
      ++count;
      ASSERT_TRUE(run_schedule<Q>(specs, sched, prefill));
      return;
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      sched.push_back(i);
      dfs();
      sched.pop_back();
      if (::testing::Test::HasFatalFailure()) return;
    }
  };
  dfs();
  EXPECT_GT(count, 0u);
}

// ------------------------------------------------------------------ tests

TEST(InterleaveExplorer, TwoConcurrentEnqueues) {
  explore_all({{true, 0, 100}, {true, 1, 200}}, /*prefill=*/0, /*budget=*/12);
}

TEST(InterleaveExplorer, TwoConcurrentDequeues) {
  explore_all({{false, 0, 0}, {false, 1, 0}}, /*prefill=*/2, /*budget=*/12);
}

TEST(InterleaveExplorer, TwoDequeuesOnOneElement) {
  // Exactly one must get the element, the other must observe empty —
  // in every interleaving.
  explore_all({{false, 0, 0}, {false, 1, 0}}, /*prefill=*/1, /*budget=*/12);
}

TEST(InterleaveExplorer, EnqueueRacesDequeueOnEmptyQueue) {
  explore_all({{true, 0, 100}, {false, 1, 0}}, /*prefill=*/0, /*budget=*/12);
}

TEST(InterleaveExplorer, EnqueueRacesDequeueOnNonEmptyQueue) {
  explore_all({{true, 0, 100}, {false, 1, 0}}, /*prefill=*/1, /*budget=*/12);
}

TEST(InterleaveExplorer, ThreeWayMixedRace) {
  // 3 machines, 3^8 = 6561 schedule prefixes.
  explore_all({{true, 0, 100}, {false, 1, 0}, {true, 2, 200}}, /*prefill=*/1,
              /*budget=*/8);
}

TEST(InterleaveExplorer, ThreeDequeuesTwoElements) {
  // Two must succeed with FIFO values, one must observe empty — in every
  // interleaving of the claim/finish steps.
  explore_all({{false, 0, 0}, {false, 1, 0}, {false, 2, 0}}, /*prefill=*/2,
              /*budget=*/8);
}

TEST(InterleaveExplorer, DuelingEnqueuesThenDuelingDequeues) {
  explore_all({{true, 0, 100}, {true, 1, 200}, {false, 2, 0}}, /*prefill=*/0,
              /*budget=*/8);
}

// ------------------------------------------------- fast/slow cross-path

op_spec fast_enq(std::uint32_t tid, std::uint64_t v) {
  return {true, tid, v, /*fast=*/true};
}
op_spec fast_deq(std::uint32_t tid) { return {false, tid, 0, /*fast=*/true}; }
op_spec slow_enq(std::uint32_t tid, std::uint64_t v) { return {true, tid, v}; }
op_spec slow_deq(std::uint32_t tid) { return {false, tid, 0}; }

/// Segment variant on leaky_domain: machines hold raw node pointers across
/// steps (step_machines.hpp explains).
template <typename Q>
class FpsInterleave : public ::testing::Test {};
using FpsQueues =
    ::testing::Types<wf_queue_fps<std::uint64_t>,
                     wf_queue_fps_seg<std::uint64_t, leaky_domain>>;
TYPED_TEST_SUITE(FpsInterleave, FpsQueues);

TYPED_TEST(FpsInterleave, FastClaimRacesSlowClaimOnOneElement) {
  // The central interop hazard: both claim styles target the same
  // write-once deqTid. Exactly one gets the element in every schedule.
  explore_all<TypeParam>({fast_deq(0), slow_deq(1)}, /*prefill=*/1,
                         /*budget=*/12);
}

TYPED_TEST(FpsInterleave, FastClaimRacesSlowClaimTwoElements) {
  explore_all<TypeParam>({fast_deq(0), slow_deq(1)}, /*prefill=*/2,
                         /*budget=*/12);
}

TYPED_TEST(FpsInterleave, TwoFastClaimsRace) {
  explore_all<TypeParam>({fast_deq(0), fast_deq(1)}, /*prefill=*/1,
                         /*budget=*/12);
}

TYPED_TEST(FpsInterleave, FastLinkRacesSlowLink) {
  explore_all<TypeParam>({fast_enq(0, 100), slow_enq(1, 200)}, /*prefill=*/0,
                         /*budget=*/12);
}

TYPED_TEST(FpsInterleave, FastEnqueueRacesSlowDequeueOnEmpty) {
  explore_all<TypeParam>({fast_enq(0, 100), slow_deq(1)}, /*prefill=*/0,
                         /*budget=*/12);
}

TYPED_TEST(FpsInterleave, SlowEnqueueRacesFastDequeueOnEmpty) {
  explore_all<TypeParam>({slow_enq(0, 100), fast_deq(1)}, /*prefill=*/0,
                         /*budget=*/12);
}

TYPED_TEST(FpsInterleave, ThreeWayCrossPathRace) {
  // fast enq + slow deq + fast deq over one prefilled element: 3^8
  // schedules covering claim ordering, dangling-link helping and the empty
  // path in one scenario family.
  explore_all<TypeParam>({fast_enq(0, 100), slow_deq(1), fast_deq(2)},
                         /*prefill=*/1, /*budget=*/8);
}

TYPED_TEST(FpsInterleave, SlowPairRacesFastPair) {
  explore_all<TypeParam>({slow_enq(0, 100), fast_enq(1, 200), slow_deq(2)},
                         /*prefill=*/0, /*budget=*/8);
}

}  // namespace
}  // namespace kpq
