// Multi-threaded benchmark runner.
//
// Reproduces the paper's measurement methodology (§4): spawn k threads, each
// running its workload loop; total completion time is measured from the
// moment all threads are released (spin barrier) to the last worker's
// finish. Each data point is repeated `reps` times and summarized.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "harness/affinity.hpp"
#include "harness/stats.hpp"
#include "harness/timing.hpp"
#include "sync/spin_barrier.hpp"

namespace kpq {

struct run_config {
  std::uint32_t threads = 1;
  std::uint32_t reps = 1;
  bool pin = false;  // pin thread i to cpu (i % hw_concurrency)
};

/// One repetition's timed window, in now_ns() units. Both ends are taken on
/// the workers: the start by the last worker to reach the start barrier,
/// before it releases the others; the end is the latest worker's finish.
/// So the window brackets every worker's run however the main thread is
/// scheduled (a clock started by main after the release could miss work).
struct trial_window {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  double seconds() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// Body signature: (tid) -> void, executed once per thread.
template <typename Body>
trial_window run_once(const run_config& cfg, Body& body) {
  trial_window w;
  w.start_ns = now_ns();  // replaced by the last arrival's timestamp
  spin_barrier barrier(cfg.threads);
  std::vector<std::uint64_t> finish(cfg.threads, 0);
  std::vector<std::thread> workers;
  workers.reserve(cfg.threads);
  for (std::uint32_t t = 0; t < cfg.threads; ++t) {
    workers.emplace_back([&, t] {
      if (cfg.pin) pin_to_cpu(t);
      barrier.arrive_and_wait([&] { w.start_ns = now_ns(); });
      body(t);
      finish[t] = now_ns();
    });
  }
  for (auto& th : workers) th.join();
  w.end_ns = w.start_ns;
  for (const std::uint64_t f : finish) w.end_ns = std::max(w.end_ns, f);
  return w;
}

/// Runs `body` on every thread once per repetition. Returns the wall-clock
/// summary over `reps` repetitions, in seconds.
template <typename Setup, typename Body>
summary run_trials(const run_config& cfg, Setup&& setup, Body&& body) {
  running_stats rs;
  for (std::uint32_t rep = 0; rep < cfg.reps; ++rep) {
    setup(rep);
    rs.add(run_once(cfg, body).seconds());
  }
  return rs.finish();
}

/// Convenience overload with no per-repetition setup.
template <typename Body>
summary run_trials(const run_config& cfg, Body&& body) {
  return run_trials(
      cfg, [](std::uint32_t) {}, std::forward<Body>(body));
}

}  // namespace kpq
