// The benchmark's own tests: the worker-clocked window brackets every
// worker's stamps, the quantiles are exact, and the correctness check
// catches lost, duplicated and reordered values. Exits non-zero on failure.
//   kpqbench_selftest
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/wf_queue.hpp"
#include "harness/workload.hpp"
#include "measure.hpp"
#include "queue_bench.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void busy_for(std::uint64_t ns) {
  const std::uint64_t end = kpqbench::now_ns() + ns;
  while (kpqbench::now_ns() < end) {
  }
}

// Workers reach the gate at staggered times and finish at staggered times;
// the window must still contain every worker's own [start, end].
void window_brackets_workers() {
  using namespace kpqbench;
  const std::uint32_t n = 4;
  worker_pool pool(n, allowed_cpus());
  const window_timing t = run_window(
      pool,
      [](std::uint32_t w) {
        std::this_thread::sleep_for(std::chrono::milliseconds(3 * w));
      },
      [](std::uint32_t w, std::uint64_t) { busy_for(2'000'000ULL * (n - w)); });
  expect(t.brackets(), "window brackets every worker's start and end");
  std::uint64_t longest = 0;
  for (const auto& w : t.workers) longest = std::max(longest, w.end_ns - w.start_ns);
  expect(t.end_ns - t.start_ns >= longest, "window is at least the longest worker");
  expect(t.end_ns - t.start_ns >= 8'000'000ULL, "window covers the 8 ms worker");

  // The bracket check itself: a window opened after a worker started (the
  // coordinator-side stopwatch) or closed before one finished is refused.
  window_timing late = t;
  late.start_ns = t.workers[0].start_ns + 1;
  expect(!late.brackets(), "a window starting after a worker is refused");
  window_timing early = t;
  early.end_ns = t.workers[0].end_ns - 1;
  expect(!early.brackets(), "a window ending before a worker is refused");
}

void quantiles_are_exact() {
  using namespace kpqbench;
  std::vector<std::uint32_t> v;
  for (std::uint32_t i = 1000; i >= 1; --i) v.push_back(i);
  expect(exact_quantile(v, 0.50) == 500.0, "p50 of 1..1000 is 500");
  expect(exact_quantile(v, 0.99) == 990.0, "p99 of 1..1000 is 990");
  std::vector<std::uint32_t> few(500, 7);
  bool threw = false;
  try {
    (void)exact_quantile(few, 0.99);
  } catch (const std::exception&) {
    threw = true;
  }
  expect(threw, "p99 of 500 samples (5 beyond it) is not reported");

  loglin_hist h;
  for (std::uint64_t x = 1; x <= 100000; ++x) h.add(x);
  const double p50 = h.quantile(0.5), p99 = h.quantile(0.99);
  expect(p50 > 50000 * (1 - 1.0 / 64) && p50 < 50000 * (1 + 1.0 / 64),
         "log-linear p50 within 1/64");
  expect(p99 > 99000 * (1 - 1.0 / 64) && p99 < 99000 * (1 + 1.0 / 64),
         "log-linear p99 within 1/64");
}

void check_catches_bad_histories() {
  using kpq::encode_value;
  using kpqbench::detail::observe;
  std::vector<std::uint64_t> last(2, 0);
  std::uint64_t hash = 0, count = 0, bad = 0;
  for (std::uint64_t s : {0, 1, 2}) observe(encode_value(1, s), 2, last, hash, count, bad);
  expect(bad == 0, "in-order values pass");
  observe(encode_value(1, 2), 2, last, hash, count, bad);
  expect(bad == 1, "a duplicated value is caught");
  observe(encode_value(1, 1), 2, last, hash, count, bad);
  expect(bad == 2, "a reordered value is caught");
  observe(encode_value(5, 0), 2, last, hash, count, bad);
  expect(bad == 3, "a value from no producer is caught");
}

// A short real round of the pairs workload passes its own check.
void queue_round_passes() {
  using namespace kpqbench;
  queue_inputs in;
  in.workers = 2;
  in.warmup_ops = 1000;
  in.pairs = true;
  in.pattern.assign(2, {1, 0});
  in.offset.assign(2, 0);
  worker_pool pool(in.workers, allowed_cpus());
  auto r = run_round<kpq::wf_queue_opt<std::uint64_t>, mode::plain>(pool, in, 0.05);
  expect(r.failed == 0 && r.attempted > 0, "pairs round: every value exactly once, in order");
  expect(r.window.brackets(), "pairs round: window brackets its workers");
  expect(!r.op_ns.empty() && !r.rtt_ns.empty(), "pairs round: latency samples kept");
}

}  // namespace

int main() {
  window_brackets_workers();
  quantiles_are_exact();
  check_catches_bad_histories();
  queue_round_passes();
  std::printf("%s\n", failures == 0 ? "all passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}
