// Isolated unit tests for the core policy objects: phase assignment
// (doorway property) and helping candidate selection.
// The help policies are exercised against a mock queue that records which
// entries they inspect, so candidate-selection logic is pinned independently
// of queue behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/help_policy.hpp"
#include "core/phase_policy.hpp"
#include "core/wf_queue.hpp"
#include "harness/mem_tracker.hpp"
#include "reclaim/hazard_pointers.hpp"
#include "sync/spin_barrier.hpp"

namespace kpq {
namespace {

// ---------------------------------------------------------------- mock queue

struct mock_guard {};

struct mock_queue {
  std::uint32_t n;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> helped;  // (helped, by)

  std::uint32_t max_threads() const { return n; }
  void help_if_needed(std::uint32_t i, std::int64_t /*phase*/, mock_guard&,
                      std::uint32_t my) {
    helped.emplace_back(i, my);
  }
};

TEST(HelpAll, VisitsEveryEntryInOrder) {
  mock_queue q{4, {}};
  mock_guard g;
  help_all policy(4);
  policy.run(q, 2, 10, g);
  ASSERT_EQ(q.helped.size(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(q.helped[i].first, i);
    EXPECT_EQ(q.helped[i].second, 2u);
  }
}

static_assert(std::is_same_v<help_one, help_chunk<1>>);

TEST(HelpOne, CyclesThroughCandidatesAndAlwaysHelpsSelf) {
  mock_queue q{3, {}};
  mock_guard g;
  help_one policy(3);
  // Thread 0's cursor starts at 0; each run helps (candidate if != self)
  // then self. Expected candidate sequence: 0(skip, ==self), 1, 2, 0(skip)...
  policy.run(q, 0, 1, g);  // cursor 0 == self: only self helped
  policy.run(q, 0, 2, g);  // candidate 1, then self
  policy.run(q, 0, 3, g);  // candidate 2, then self
  policy.run(q, 0, 4, g);  // cursor wrapped to 0 == self again
  std::vector<std::pair<std::uint32_t, std::uint32_t>> expected = {
      {0, 0}, {1, 0}, {0, 0}, {2, 0}, {0, 0}, {0, 0}};
  EXPECT_EQ(q.helped, expected);
}

TEST(HelpOne, EveryPeerIsReachedWithinNRounds) {
  constexpr std::uint32_t n = 5;
  mock_queue q{n, {}};
  mock_guard g;
  help_one policy(n);
  for (std::uint32_t round = 0; round < n; ++round) policy.run(q, 1, 1, g);
  std::set<std::uint32_t> candidates;
  for (auto [helped, by] : q.helped) candidates.insert(helped);
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_TRUE(candidates.count(i)) << "peer " << i << " never considered";
  }
}

TEST(HelpChunk, VisitsKCandidatesPerRunAndWraps) {
  constexpr std::uint32_t n = 4;
  mock_queue q{n, {}};
  mock_guard g;
  help_chunk<2> policy(n);
  policy.run(q, 3, 1, g);  // candidates 0,1 + self
  ASSERT_EQ(q.helped.size(), 3u);
  EXPECT_EQ(q.helped[0].first, 0u);
  EXPECT_EQ(q.helped[1].first, 1u);
  EXPECT_EQ(q.helped[2].first, 3u);
  q.helped.clear();
  policy.run(q, 3, 1, g);  // candidates 2,3(skip) + self
  ASSERT_EQ(q.helped.size(), 2u);
  EXPECT_EQ(q.helped[0].first, 2u);
  EXPECT_EQ(q.helped[1].first, 3u);
}

TEST(HelpChunk, ChunkWiderThanTheQueueWrapsWithinOneRun) {
  // K > n is legal: the cursor wraps inside a run, so one run considers
  // every peer (some twice) and the next run resumes where it stopped.
  constexpr std::uint32_t n = 3;
  mock_queue q{n, {}};
  mock_guard g;
  help_chunk<5> policy(n);
  policy.run(q, 1, 1, g);  // cursor 0,1(skip),2,0,1(skip) + self
  ASSERT_EQ(q.helped.size(), 4u);
  EXPECT_EQ(q.helped[0].first, 0u);
  EXPECT_EQ(q.helped[1].first, 2u);
  EXPECT_EQ(q.helped[2].first, 0u);
  EXPECT_EQ(q.helped[3].first, 1u);
  q.helped.clear();
  policy.run(q, 1, 1, g);  // cursor 2,0,1(skip),2,0 + self
  ASSERT_EQ(q.helped.size(), 5u);
  EXPECT_EQ(q.helped[0].first, 2u);
  EXPECT_EQ(q.helped[1].first, 0u);
  EXPECT_EQ(q.helped[2].first, 2u);
  EXPECT_EQ(q.helped[3].first, 0u);
  EXPECT_EQ(q.helped[4].first, 1u);
  for (auto [helped, by] : q.helped) EXPECT_EQ(by, 1u);
}

TEST(HelpRandom, AlwaysHelpsSelfAndEventuallyEveryPeer) {
  constexpr std::uint32_t n = 4;
  mock_queue q{n, {}};
  mock_guard g;
  help_random policy(n);
  std::set<std::uint32_t> candidates;
  for (int round = 0; round < 200; ++round) {
    q.helped.clear();
    policy.run(q, 0, 1, g);
    ASSERT_FALSE(q.helped.empty());
    EXPECT_EQ(q.helped.back().first, 0u) << "self must always be helped";
    for (auto [h, by] : q.helped) candidates.insert(h);
  }
  EXPECT_EQ(candidates.size(), n) << "probabilistic coverage failed badly";
}

// ------------------------------------------------------------ phase policies

template <typename P>
class PhasePolicyTest : public ::testing::Test {};

using PhaseTypes = ::testing::Types<fetch_add_phase, cas_phase>;
TYPED_TEST_SUITE(PhasePolicyTest, PhaseTypes);

TYPED_TEST(PhasePolicyTest, SequentialPhasesAreNonDecreasingAndFresh) {
  // The doorway property needs: a phase chosen after another operation
  // *completed* its choice is >= that phase (ties allowed for cas_phase).
  wf_queue_base<std::uint64_t> dummy(1);  // unused by counter policies
  TypeParam p(4);
  mock_guard g;
  std::int64_t prev = -1;
  for (int i = 0; i < 100; ++i) {
    std::int64_t ph = p.next_phase(dummy, g, 0);
    EXPECT_GE(ph, prev);
    prev = ph;
  }
}

TYPED_TEST(PhasePolicyTest, ConcurrentPhasesRespectTheDoorway) {
  TypeParam p(8);
  wf_queue_base<std::uint64_t> dummy(1);
  constexpr int kThreads = 4, kOps = 500;
  std::vector<std::vector<std::int64_t>> seen(kThreads);
  spin_barrier barrier(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      mock_guard g;
      barrier.arrive_and_wait();
      for (int i = 0; i < kOps; ++i) {
        seen[t].push_back(p.next_phase(dummy, g, static_cast<std::uint32_t>(t)));
      }
    });
  }
  for (auto& th : ts) th.join();
  // Per-thread monotone non-decreasing (each next call starts after the
  // previous completed).
  for (auto& v : seen) {
    for (std::size_t i = 1; i < v.size(); ++i) EXPECT_GE(v[i], v[i - 1]);
  }
  // fetch_add must additionally be globally unique.
  if constexpr (std::is_same_v<TypeParam, fetch_add_phase>) {
    std::set<std::int64_t> all;
    for (auto& v : seen) all.insert(v.begin(), v.end());
    EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kOps));
  }
}

TEST(ScanMaxPhase, ReturnsOneAboveTheMaximumInState) {
  wf_queue_base<std::uint64_t> q(4);
  scan_max_phase p(4);
  hp_domain dom(1, 5);
  auto g = dom.enter(0);
  // Fresh queue: all records carry phase -1, so the first phase is 0.
  EXPECT_EQ(p.next_phase(q, g, 0), 0);
  q.enqueue(1, 2);  // thread 2's record now carries phase 0
  EXPECT_EQ(p.next_phase(q, g, 0), 1);
  q.enqueue(2, 1);
  EXPECT_EQ(p.next_phase(q, g, 0), 2);
  (void)q.dequeue(3);
  EXPECT_EQ(p.next_phase(q, g, 0), 3);
}

}  // namespace
}  // namespace kpq
