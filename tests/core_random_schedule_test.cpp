// Randomized long-schedule fuzzing of the KP queue's step decomposition.
//
// Complements the exhaustive explorer (core_interleave_test): where that
// test enumerates ALL interleavings of 2-3 operations, this one samples
// thousands of random schedules over much longer programs — several logical
// threads each executing a sequence of operations, every step interleaved
// at the scheduler's whim. Each run's full history (with step-index
// timestamps) is validated by the FIFO checker; small runs are additionally
// cross-checked by the exact linearizability checker.
//
// Deterministic: every schedule derives from a seed printed on failure.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "harness/workload.hpp"
#include "reclaim/leaky.hpp"
#include "storage/segment_storage.hpp"
#include "support/step_machines.hpp"
#include "verify/fifo_checker.hpp"
#include "verify/history.hpp"
#include "verify/lin_checker.hpp"

namespace kpq {
namespace {

using testing::basic_machine;
using testing::build_machine_for;
using testing::op_spec;
using testing::sm_queue;

/// Segment-storage variant driven through the same machines: exercises the
/// bump allocation, seal/consume state machine, and exactly-once segment
/// retirement under every sampled interleaving. leaky_domain, because the
/// machines hold node pointers across steps without a guard and segment
/// retirement reclaims eagerly (step_machines.hpp explains; the real-thread
/// TSan stress tests cover eager reclamation).
using seg_queue = wf_queue<std::uint64_t, help_all, scan_max_phase,
                           leaky_domain, wf_options,
                           segment_storage<std::uint64_t>>;
/// Small segments so every run crosses many seal/retire boundaries.
using seg_queue_small =
    wf_queue<std::uint64_t, help_all, scan_max_phase, leaky_domain, wf_options,
             segment_storage<std::uint64_t, 256>>;

struct program {
  std::uint32_t tid;
  std::vector<op_spec> ops;  // executed in order
};

/// Runs one random schedule on queue type Q; returns the check result.
template <typename Q = sm_queue>
check_result run_random(std::uint64_t seed, std::uint32_t logical_threads,
                        std::uint32_t ops_per_thread, std::uint32_t enq_bias,
                        std::vector<op_event>* history_out = nullptr) {
  fast_rng rng(seed);

  // Build per-thread programs.
  std::vector<program> progs;
  for (std::uint32_t t = 0; t < logical_threads; ++t) {
    program p;
    p.tid = t;
    for (std::uint32_t i = 0; i < ops_per_thread; ++i) {
      const bool enq = rng.bernoulli(enq_bias, 100);
      p.ops.push_back({enq, t, encode_value(t, i)});
    }
    progs.push_back(std::move(p));
  }

  Q q(logical_threads);
  std::vector<std::unique_ptr<basic_machine<Q>>> current(logical_threads);
  std::vector<std::size_t> next_op(logical_threads, 0);
  std::vector<op_event> h;
  std::uint64_t clock = 1;

  auto all_done = [&] {
    for (std::uint32_t t = 0; t < logical_threads; ++t) {
      if (current[t] != nullptr || next_op[t] < progs[t].ops.size()) {
        return false;
      }
    }
    return true;
  };

  std::uint64_t safety = 0;
  const std::uint64_t safety_cap =
      static_cast<std::uint64_t>(logical_threads) * ops_per_thread * 500;
  while (!all_done()) {
    if (++safety > safety_cap) {
      check_result r;
      r.fail("schedule did not terminate (seed " + std::to_string(seed) + ")");
      return r;
    }
    const auto t = static_cast<std::uint32_t>(rng.next() % logical_threads);
    if (current[t] == nullptr) {
      if (next_op[t] >= progs[t].ops.size()) continue;  // thread finished
      current[t] = build_machine_for<Q>(progs[t].ops[next_op[t]]);
      current[t]->inv = clock++;
    }
    if (current[t]->step(q)) {
      current[t]->res = clock++;
      const op_spec& s = progs[t].ops[next_op[t]];
      if (s.is_enq) {
        h.push_back(
            {op_kind::enq, true, t, s.value, current[t]->inv, current[t]->res});
      } else {
        const std::optional<std::uint64_t>& r = current[t]->result;
        h.push_back({op_kind::deq, r.has_value(), t, r.value_or(0),
                     current[t]->inv, current[t]->res});
      }
      current[t].reset();
      ++next_op[t];
    } else {
      ++clock;
    }
  }

  std::vector<std::uint64_t> drained;
  while (auto v = q.dequeue(0)) drained.push_back(*v);
  if (history_out != nullptr) {
    *history_out = h;
    std::uint64_t ts = clock + 1000;
    for (std::uint64_t v : drained) {
      history_out->push_back({op_kind::deq, true, 0, v, ts, ts + 1});
      ts += 2;
    }
  }
  return fifo_checker::check(h, drained);
}

TEST(RandomScheduleFuzz, ManySeedsMediumPrograms) {
  for (std::uint64_t seed = 1; seed <= 1500; ++seed) {
    auto r = run_random(seed, /*threads=*/4, /*ops=*/6, /*enq_bias=*/60);
    ASSERT_TRUE(r.ok) << "seed " << seed << ":\n" << r.to_string();
  }
}

TEST(RandomScheduleFuzz, DequeueHeavyHitsEmptyPaths) {
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    auto r = run_random(seed, 3, 8, /*enq_bias=*/30);
    ASSERT_TRUE(r.ok) << "seed " << seed << ":\n" << r.to_string();
  }
}

TEST(RandomScheduleFuzz, WideThreadFan) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    auto r = run_random(seed, 8, 4, /*enq_bias=*/50);
    ASSERT_TRUE(r.ok) << "seed " << seed << ":\n" << r.to_string();
  }
}

TEST(RandomScheduleFuzz, SmallRunsCrossCheckedExactly) {
  // Tiny programs: the exact checker is feasible and strictly stronger than
  // the FIFO checker; agreement on 400 seeds ties the two together.
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    std::vector<op_event> h;
    auto r = run_random(seed, 3, 2, /*enq_bias=*/50, &h);
    ASSERT_TRUE(r.ok) << "seed " << seed << ":\n" << r.to_string();
    ASSERT_LE(h.size(), 20u);
    ASSERT_TRUE(lin_checker::is_linearizable(h))
        << "exact checker rejected seed " << seed;
  }
}

// ------------------------------- segment-storage variants (same machines)

TEST(RandomScheduleFuzzSegment, ManySeedsMediumPrograms) {
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    auto r = run_random<seg_queue>(seed, 4, 6, /*enq_bias=*/60);
    ASSERT_TRUE(r.ok) << "seed " << seed << ":\n" << r.to_string();
  }
}

TEST(RandomScheduleFuzzSegment, SmallSegmentsCrossManySeals) {
  // 256-byte segments hold only a handful of cells, so six ops per thread
  // already seal and retire several segments per schedule.
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    auto r = run_random<seg_queue_small>(seed, 4, 6, /*enq_bias=*/60);
    ASSERT_TRUE(r.ok) << "seed " << seed << ":\n" << r.to_string();
  }
}

TEST(RandomScheduleFuzzSegment, DequeueHeavyHitsEmptyPaths) {
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    auto r = run_random<seg_queue_small>(seed, 3, 8, /*enq_bias=*/30);
    ASSERT_TRUE(r.ok) << "seed " << seed << ":\n" << r.to_string();
  }
}

TEST(RandomScheduleFuzzSegment, SmallRunsCrossCheckedExactly) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    std::vector<op_event> h;
    auto r = run_random<seg_queue_small>(seed, 3, 2, /*enq_bias=*/50, &h);
    ASSERT_TRUE(r.ok) << "seed " << seed << ":\n" << r.to_string();
    ASSERT_TRUE(lin_checker::is_linearizable(h))
        << "exact checker rejected seed " << seed;
  }
}

}  // namespace
}  // namespace kpq
