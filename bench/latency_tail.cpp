// Beyond-paper bench: per-operation latency distribution.
//
// The paper motivates wait-freedom with bounded completion time (real-time
// systems, SLAs) but plots only total completion time. This bench measures
// what that guarantee buys: per-operation latency percentiles (p50 / p99 /
// p99.9 / max) for the lock-free queue vs the wait-free variants under an
// oversubscribed enqueue-dequeue pairs workload — the regime where lock-free
// dequeuers can starve behind winners and wait-free helping flattens the
// tail relative to the median.
//
// Flags: --threads N (default 8), --iters N, --pin, --csv.
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline/locked_queues.hpp"
#include "baseline/ms_queue.hpp"
#include "core/wf_queue.hpp"
#include "harness/cli.hpp"
#include "harness/stats.hpp"
#include "harness/table.hpp"
#include "harness/timing.hpp"
#include "harness/workload.hpp"
#include "sync/cacheline.hpp"
#include "sync/spin_barrier.hpp"

namespace {

using namespace kpq;

struct tail_result {
  double p50, p99, p999, max;
};

template <typename Q>
tail_result measure_tail(std::uint32_t threads, std::uint64_t iters) {
  Q q(threads);
  std::vector<padded<std::vector<double>>> lat(threads);
  spin_barrier barrier(threads);
  std::vector<std::thread> workers;
  for (std::uint32_t tid = 0; tid < threads; ++tid) {
    workers.emplace_back([&, tid] {
      auto& samples = lat[tid].get();
      samples.reserve(2 * iters);
      barrier.arrive_and_wait();
      for (std::uint64_t i = 0; i < iters; ++i) {
        std::uint64_t t0 = now_ns();
        q.enqueue(encode_value(tid, i), tid);
        std::uint64_t t1 = now_ns();
        (void)q.dequeue(tid);
        std::uint64_t t2 = now_ns();
        samples.push_back(static_cast<double>(t1 - t0));
        samples.push_back(static_cast<double>(t2 - t1));
      }
    });
  }
  for (auto& w : workers) w.join();

  std::vector<double> all;
  for (auto& v : lat) all.insert(all.end(), v->begin(), v->end());
  auto ps = sorted_percentiles(all, {0.50, 0.99, 0.999, 1.0});
  return {ps[0], ps[1], ps[2], ps[3]};
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kpq;

  cli args(argc, argv);
  if (args.get_flag("help")) {
    std::printf("%s", "flags: --threads N (default 8)  --iters N (default 5000)  --csv\n");
    return 0;
  }
  const auto threads = static_cast<std::uint32_t>(args.get_u64("threads", 8));
  const std::uint64_t iters = args.get_u64("iters", 5000);
  const bool csv = args.get_flag("csv");

  std::printf("== Per-operation latency tail (enqueue-dequeue pairs, %u threads, %llu iters/thread) ==\n",
              threads, static_cast<unsigned long long>(iters));
  std::printf("(nanoseconds per operation; the wait-free guarantee targets the tail, not the median)\n\n");

  table t({"algorithm", "p50 [ns]", "p99 [ns]", "p99.9 [ns]", "max [ns]",
           "max/p50"});
  auto row = [&](const std::string& name, tail_result r) {
    t.add_row({name, fmt(r.p50, 0), fmt(r.p99, 0), fmt(r.p999, 0),
               fmt(r.max, 0), fmt(r.max / (r.p50 > 0 ? r.p50 : 1), 1)});
  };

  row("mutex", measure_tail<mutex_queue<std::uint64_t>>(threads, iters));
  row("two-lock MS", measure_tail<two_lock_queue<std::uint64_t>>(threads, iters));
  row("LF (MS)", measure_tail<ms_queue<std::uint64_t>>(threads, iters));
  row("base WF", measure_tail<wf_queue_base<std::uint64_t>>(threads, iters));
  row("opt WF (1+2)", measure_tail<wf_queue_opt<std::uint64_t>>(threads, iters));
  row("WF fps", measure_tail<wf_queue_fps<std::uint64_t>>(threads, iters));

  t.print();
  if (csv) {
    std::printf("\n-- csv --\n");
    t.print_csv(stdout);
  }
  return 0;
}
