// Value-parameterized property sweep (TEST_P / INSTANTIATE_TEST_SUITE_P):
// one property — "every recorded history passes the FIFO checker and the
// queue conserves elements" — swept over a grid of workload shapes
// (thread count × operation mix × prefill × seed) for the flagship
// variants. Complements the TYPED_TEST suites, which sweep the *queue type*
// axis with fixed workloads; here the queue is fixed per suite and the
// *workload* axis is swept.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <thread>
#include <tuple>
#include <vector>

#include "core/wf_queue.hpp"
#include "harness/workload.hpp"
#include "sync/spin_barrier.hpp"
#include "verify/fifo_checker.hpp"
#include "verify/history.hpp"

namespace kpq {
namespace {

struct sweep_config {
  std::uint32_t threads;
  std::uint64_t iters;
  std::uint32_t enq_percent;  // probability of enqueue per op
  std::uint64_t prefill;
  std::uint64_t seed;

  friend std::ostream& operator<<(std::ostream& os, const sweep_config& c) {
    return os << "t" << c.threads << "_i" << c.iters << "_e" << c.enq_percent
              << "_p" << c.prefill << "_s" << c.seed;
  }
};

template <typename Q>
check_result run_property(const sweep_config& c) {
  Q q(c.threads);
  history_recorder rec(c.threads);

  for (std::uint64_t i = 0; i < c.prefill; ++i) {
    const std::uint64_t v = encode_value(c.threads - 1, (1ULL << 39) + i);
    auto s = rec.begin(c.threads - 1, op_kind::enq, v);
    q.enqueue(v, c.threads - 1);
    s.commit();
  }

  spin_barrier barrier(c.threads);
  std::vector<std::thread> workers;
  for (std::uint32_t tid = 0; tid < c.threads; ++tid) {
    workers.emplace_back([&, tid] {
      fast_rng rng = thread_stream(c.seed, tid);
      std::uint64_t seq = 0;
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < c.iters; ++i) {
        if (rng.bernoulli(c.enq_percent, 100)) {
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
  EXPECT_EQ(q.unsafe_size(), 0u);
  return fifo_checker::check(rec.collect(), drained);
}

// ----------------------------------------------- opt WF (1+2) sweep

class OptWfSweep : public ::testing::TestWithParam<sweep_config> {};

TEST_P(OptWfSweep, HistoryIsFifoConsistent) {
  auto r = run_property<wf_queue_opt<std::uint64_t>>(GetParam());
  EXPECT_TRUE(r.ok) << r.to_string();
}

// ----------------------------------------------- fps sweep

class FpsSweep : public ::testing::TestWithParam<sweep_config> {};

TEST_P(FpsSweep, HistoryIsFifoConsistent) {
  auto r = run_property<wf_queue_fps<std::uint64_t>>(GetParam());
  EXPECT_TRUE(r.ok) << r.to_string();
}

// ----------------------------------------------- base WF sweep

class BaseWfSweep : public ::testing::TestWithParam<sweep_config> {};

TEST_P(BaseWfSweep, HistoryIsFifoConsistent) {
  auto r = run_property<wf_queue_base<std::uint64_t>>(GetParam());
  EXPECT_TRUE(r.ok) << r.to_string();
}

const sweep_config kGrid[] = {
    // thread scaling, balanced mix
    {2, 1200, 50, 0, 11},
    {3, 900, 50, 0, 12},
    {4, 700, 50, 0, 13},
    {6, 500, 50, 0, 14},
    {8, 350, 50, 0, 15},
    // enqueue-heavy / dequeue-heavy mixes (empty path and growth path)
    {4, 700, 80, 0, 21},
    {4, 700, 20, 0, 22},
    {4, 700, 10, 50, 23},
    // prefilled queues (steady-state FIFO order across the prefill boundary)
    {4, 700, 50, 200, 31},
    {6, 400, 35, 500, 32},
    // different seeds at the contention sweet spot
    {4, 700, 50, 0, 41},
    {4, 700, 50, 0, 42},
};

INSTANTIATE_TEST_SUITE_P(WorkloadGrid, OptWfSweep, ::testing::ValuesIn(kGrid));
INSTANTIATE_TEST_SUITE_P(WorkloadGrid, FpsSweep, ::testing::ValuesIn(kGrid));
INSTANTIATE_TEST_SUITE_P(WorkloadGrid, BaseWfSweep,
                         ::testing::ValuesIn(kGrid));

}  // namespace
}  // namespace kpq
