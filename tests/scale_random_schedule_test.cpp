// Randomized-schedule verification of the SHARDED front-end's contract:
// per-shard FIFO, no-loss/no-dup, and per-shard empty honesty, with 2–8
// shards.
//
// Reuses the step-machine harness (tests/support/step_machines.hpp): every
// shard is an independent sm_queue, a sharded enqueue is one enq_machine on
// the routed shard, and a sharded dequeue replays sharded_queue::dequeue's
// cyclic scan — a deq_machine per visited shard, starting at the caller's
// home shard, stopping at the first hit or after every shard reported
// empty. The scheduler interleaves all primitive steps at random, so shard
// scans from different logical threads overlap arbitrarily — exactly the
// executions the relaxed cross-shard contract must survive.
//
// Checking: the history is recorded PER SHARD (each sub-operation with its
// own window). Each shard's history plus its drain must pass the full FIFO
// checker — including C5 empty honesty, which here proves the scan's
// emptiness claim shard by shard: a sub-dequeue may return empty only if
// that shard really was empty at some instant of its window. Small runs are
// additionally cross-checked per shard by the exact linearizability
// checker. Global no-loss/no-dup is the sum of per-shard C3 plus the
// cross-shard count identity asserted at the end.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "harness/workload.hpp"
#include "support/step_machines.hpp"
#include "verify/fifo_checker.hpp"
#include "verify/history.hpp"
#include "verify/lin_checker.hpp"

namespace kpq {
namespace {

using testing::deq_machine;
using testing::enq_machine;
using testing::machine;
using testing::sm_queue;

struct shard_set {
  std::vector<std::unique_ptr<sm_queue>> shards;
  std::vector<std::vector<op_event>> history;  // one log per shard

  shard_set(std::uint32_t s, std::uint32_t threads) : history(s) {
    for (std::uint32_t i = 0; i < s; ++i) {
      shards.push_back(std::make_unique<sm_queue>(threads));
    }
  }
  std::uint32_t count() const {
    return static_cast<std::uint32_t>(shards.size());
  }
};

/// One sharded operation advanced one primitive step at a time. Mirrors
/// sharded_queue::enqueue / ::dequeue with the affinity policy.
class sharded_op {
 public:
  sharded_op(std::uint32_t tid, bool is_enq, std::uint64_t value,
             shard_set& set)
      : tid_(tid), is_enq_(is_enq), value_(value) {
    cur_ = tid % set.count();  // enqueue_shard == home_shard == tid mod S
    start_inner(set);
  }

  /// True once the sharded operation completed.
  bool step(shard_set& set, std::uint64_t& clock) {
    if (inner_->step(*set.shards[cur_])) {
      inner_->res = clock++;
      if (is_enq_) {
        set.history[cur_].push_back(
            {op_kind::enq, true, tid_, value_, inner_->inv, inner_->res});
        return true;
      }
      const std::optional<std::uint64_t>& r = inner_->result;
      set.history[cur_].push_back({op_kind::deq, r.has_value(), tid_,
                                   r.value_or(0), inner_->inv, inner_->res});
      if (r.has_value()) {
        result = r;
        return true;
      }
      if (++visited_ == set.count()) return true;  // scanned all: empty
      cur_ = (cur_ + 1 == set.count()) ? 0 : cur_ + 1;
      start_inner(set);
      inner_->inv = clock++;
      return false;
    }
    ++clock;
    return false;
  }

  std::uint64_t& inv() { return inner_->inv; }
  std::optional<std::uint64_t> result;

 private:
  void start_inner(shard_set&) {
    if (is_enq_) {
      inner_ = std::make_unique<enq_machine>(tid_, value_);
    } else {
      inner_ = std::make_unique<deq_machine>(tid_);
    }
  }

  std::uint32_t tid_;
  bool is_enq_;
  std::uint64_t value_;
  std::uint32_t cur_ = 0;
  std::uint32_t visited_ = 0;
  std::unique_ptr<machine> inner_;
};

struct outcome {
  check_result per_shard;
  std::vector<std::vector<op_event>> history;  // with drains appended
  std::uint64_t enqueued = 0, dequeued = 0, drained = 0;
};

outcome run_sharded_random(std::uint64_t seed, std::uint32_t shards,
                           std::uint32_t logical_threads,
                           std::uint32_t ops_per_thread,
                           std::uint32_t enq_bias) {
  fast_rng rng(seed);
  shard_set set(shards, logical_threads);

  struct prog {
    std::vector<std::pair<bool, std::uint64_t>> ops;  // (is_enq, value)
    std::size_t next = 0;
  };
  std::vector<prog> progs(logical_threads);
  for (std::uint32_t t = 0; t < logical_threads; ++t) {
    for (std::uint32_t i = 0; i < ops_per_thread; ++i) {
      progs[t].ops.emplace_back(rng.bernoulli(enq_bias, 100),
                                encode_value(t, i));
    }
  }

  std::vector<std::unique_ptr<sharded_op>> current(logical_threads);
  std::uint64_t clock = 1;
  outcome o;

  auto all_done = [&] {
    for (std::uint32_t t = 0; t < logical_threads; ++t) {
      if (current[t] != nullptr || progs[t].next < progs[t].ops.size()) {
        return false;
      }
    }
    return true;
  };

  std::uint64_t safety = 0;
  const std::uint64_t cap = static_cast<std::uint64_t>(logical_threads) *
                            ops_per_thread * shards * 500;
  while (!all_done()) {
    if (++safety > cap) {
      o.per_shard.fail("schedule did not terminate (seed " +
                       std::to_string(seed) + ")");
      return o;
    }
    const auto t = static_cast<std::uint32_t>(rng.next() % logical_threads);
    if (current[t] == nullptr) {
      if (progs[t].next >= progs[t].ops.size()) continue;
      const auto& [is_enq, value] = progs[t].ops[progs[t].next];
      current[t] = std::make_unique<sharded_op>(t, is_enq, value, set);
      current[t]->inv() = clock++;
    }
    if (current[t]->step(set, clock)) {
      const auto& [is_enq, value] = progs[t].ops[progs[t].next];
      if (is_enq) {
        ++o.enqueued;
      } else if (current[t]->result.has_value()) {
        ++o.dequeued;
      }
      current[t].reset();
      ++progs[t].next;
    }
  }

  // Per-shard verdicts; drains append to the returned histories so the
  // exact checker can consume them too.
  o.history = set.history;
  for (std::uint32_t s = 0; s < shards; ++s) {
    std::vector<std::uint64_t> drained;
    while (auto v = set.shards[s]->dequeue(0)) drained.push_back(*v);
    o.drained += drained.size();
    auto r = fifo_checker::check(set.history[s], drained);
    if (!r.ok) {
      o.per_shard.fail("shard " + std::to_string(s) + ": " + r.to_string());
    }
    std::uint64_t ts = clock + 1000;
    for (std::uint64_t v : drained) {
      o.history[s].push_back({op_kind::deq, true, 0, v, ts, ts + 1});
      ts += 2;
    }
  }
  return o;
}

TEST(ShardedRandomSchedule, TwoShards) {
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    auto o = run_sharded_random(seed, 2, /*threads=*/4, /*ops=*/6, 60);
    ASSERT_TRUE(o.per_shard.ok) << "seed " << seed << ":\n"
                                << o.per_shard.to_string();
    ASSERT_EQ(o.enqueued, o.dequeued + o.drained) << "seed " << seed;
  }
}

TEST(ShardedRandomSchedule, FourShardsWideFan) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    auto o = run_sharded_random(seed, 4, 8, 4, 55);
    ASSERT_TRUE(o.per_shard.ok) << "seed " << seed << ":\n"
                                << o.per_shard.to_string();
    ASSERT_EQ(o.enqueued, o.dequeued + o.drained) << "seed " << seed;
  }
}

TEST(ShardedRandomSchedule, EightShardsDequeueHeavy) {
  // More shards than busy producers: scans regularly sweep several empty
  // shards, hammering the empty-honesty and steal paths.
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    auto o = run_sharded_random(seed, 8, 6, 5, 35);
    ASSERT_TRUE(o.per_shard.ok) << "seed " << seed << ":\n"
                                << o.per_shard.to_string();
    ASSERT_EQ(o.enqueued, o.dequeued + o.drained) << "seed " << seed;
  }
}

TEST(ShardedRandomSchedule, SmallRunsCrossCheckedExactlyPerShard) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    auto o = run_sharded_random(seed, 2, 3, 2, 50);
    ASSERT_TRUE(o.per_shard.ok) << "seed " << seed << ":\n"
                                << o.per_shard.to_string();
    for (std::size_t s = 0; s < o.history.size(); ++s) {
      ASSERT_LE(o.history[s].size(), 20u);
      ASSERT_TRUE(lin_checker::is_linearizable(o.history[s]))
          << "exact checker rejected shard " << s << " of seed " << seed;
    }
  }
}

}  // namespace
}  // namespace kpq
