// Measurement primitives of the benchmark: worker-side clocks, pinned
// worker windows, exact quantiles, a log-linear histogram for per-call
// layer timings, and the in-memory span recorder of the traced run.
//
// Nothing here depends on src/harness: the window is bracketed by the
// workers' own stamps (the last arrival at the start gate opens it, the
// latest worker finish closes it), so the clock cannot miss work that ran
// before the coordinating thread woke up.
#pragma once

#include <pthread.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace kpqbench {

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time consumed by the calling thread (for the overlap check).
inline std::uint64_t thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// CPUs this process may run on, in ascending order.
inline std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

inline bool pin_self(int cpu) noexcept {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

/// splitmix64 finaliser: the value hash of the exactly-once check.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ------------------------------------------------------------------ window

/// One worker's own view of the window.
struct worker_stamp {
  std::uint64_t start_ns = 0;  // after leaving the start gate
  std::uint64_t end_ns = 0;    // after its last operation
  std::uint64_t cpu_ns = 0;    // thread CPU time spent between the two
};

struct window_timing {
  std::uint64_t start_ns = 0;  // last arrival at the start gate
  std::uint64_t end_ns = 0;    // latest worker finish
  std::vector<worker_stamp> workers;

  double seconds() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
  /// Sum of worker CPU time over (window x workers): ~1 when every worker
  /// had a CPU of its own for the whole window, <= 1/k when k workers
  /// shared one CPU.
  double overlap() const noexcept {
    if (workers.empty() || end_ns <= start_ns) return 0.0;
    double cpu = 0.0;
    for (const auto& w : workers) cpu += static_cast<double>(w.cpu_ns);
    return cpu / (static_cast<double>(end_ns - start_ns) *
                  static_cast<double>(workers.size()));
  }
  /// The window contains every worker's own [start, end].
  bool brackets() const noexcept {
    for (const auto& w : workers) {
      if (w.start_ns < start_ns || w.end_ns > end_ns || w.end_ns < w.start_ns)
        return false;
    }
    return !workers.empty();
  }
};

/// Spin gate whose LAST arrival stamps the window start. Every worker's
/// own start stamp is taken after it observes the release, so it is >= the
/// window start by construction of the happens-before edge.
class start_gate {
 public:
  explicit start_gate(std::uint32_t n) : n_(n) {}
  std::uint64_t arrive_and_wait() noexcept {
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
      start_.store(now_ns(), std::memory_order_release);
    }
    std::uint64_t s;
    while ((s = start_.load(std::memory_order_acquire)) == 0) {
      std::this_thread::yield();
    }
    return s;
  }
  std::uint64_t start_ns() const noexcept {
    return start_.load(std::memory_order_acquire);
  }

 private:
  const std::uint32_t n_;
  std::atomic<std::uint32_t> arrived_{0};
  std::atomic<std::uint64_t> start_{0};
};

/// Pinned worker threads that live for a whole run: worker i is pinned to
/// cpus[i % cpus.size()] once, and every round runs on the same threads.
/// (With threads created per round, single-thread throughput varied by up
/// to 30% from round to round; it steadied when glibc was held to one
/// malloc arena.)
class worker_pool {
 public:
  worker_pool(std::uint32_t n, const std::vector<int>& cpus)
      : errors_(n) {
    threads_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const int cpu = cpus.empty() ? -1 : cpus[i % cpus.size()];
      threads_.emplace_back([this, i, cpu] { loop(i, cpu); });
    }
  }
  worker_pool(const worker_pool&) = delete;
  worker_pool& operator=(const worker_pool&) = delete;
  ~worker_pool() {
    {
      std::lock_guard<std::mutex> lk(m_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(threads_.size());
  }

  /// Runs fn(i) on every worker i and waits for all; rethrows the first
  /// exception a worker raised (a worker that could not be pinned raises).
  void each(const std::function<void(std::uint32_t)>& fn) {
    std::unique_lock<std::mutex> lk(m_);
    job_ = &fn;
    pending_ = size();
    ++gen_;
    cv_.notify_all();
    done_.wait(lk, [this] { return pending_ == 0; });
    job_ = nullptr;
    for (auto& e : errors_) {
      if (e) {
        std::exception_ptr first = e;
        for (auto& x : errors_) x = nullptr;
        std::rethrow_exception(first);
      }
    }
  }

 private:
  void loop(std::uint32_t i, int cpu) {
    const bool pinned = cpu < 0 || pin_self(cpu);
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(m_);
    for (;;) {
      cv_.wait(lk, [&] { return stop_ || gen_ != seen; });
      if (stop_) return;
      seen = gen_;
      const auto* job = job_;
      lk.unlock();
      try {
        if (!pinned) throw std::runtime_error("cannot pin worker to its CPU");
        (*job)(i);
      } catch (...) {
        errors_[i] = std::current_exception();
      }
      lk.lock();
      if (--pending_ == 0) done_.notify_all();
    }
  }

  std::mutex m_;  // guards job_, gen_, pending_, stop_
  std::condition_variable cv_, done_;
  const std::function<void(std::uint32_t)>* job_ = nullptr;
  std::uint64_t gen_ = 0;
  std::uint32_t pending_ = 0;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;  // slot i written by worker i
  std::vector<std::thread> threads_;  // last: started after the rest exists
};

/// One round on the pool: each worker calls prepare(i) (set-up work, e.g.
/// warm-up), arrives at the gate, then runs body(i, window_start) between
/// its own stamps. Returns the window.
template <typename Prepare, typename Body>
window_timing run_window(worker_pool& pool, Prepare&& prepare, Body&& body) {
  const std::uint32_t n = pool.size();
  window_timing t;
  t.workers.resize(n);
  start_gate gate(n);
  std::vector<std::exception_ptr> errors(n);
  pool.each([&](std::uint32_t i) {
    bool ready = true;
    try {
      prepare(i);
    } catch (...) {
      errors[i] = std::current_exception();
      ready = false;
    }
    // Arrive even after a failed set-up so that no peer waits forever.
    const std::uint64_t start = gate.arrive_and_wait();
    if (!ready) return;
    worker_stamp& me = t.workers[i];
    me.start_ns = now_ns();
    const std::uint64_t cpu0 = thread_cpu_ns();
    body(i, start);
    me.cpu_ns = thread_cpu_ns() - cpu0;
    me.end_ns = now_ns();
  });
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  t.start_ns = gate.start_ns();
  for (const auto& w : t.workers) t.end_ns = std::max(t.end_ns, w.end_ns);
  return t;
}

// ---------------------------------------------------------------- quantiles

/// Exact nearest-rank quantile of kept samples (reorders `v`). Throws when
/// fewer than ten samples lie beyond the requested rank: such a percentile
/// is not reported.
template <typename T>
double exact_quantile(std::vector<T>& v, double q) {
  const std::size_t n = v.size();
  if (n == 0) throw std::runtime_error("quantile of no samples");
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  rank = rank == 0 ? 0 : rank - 1;
  if (n - 1 - rank < 10) {
    throw std::runtime_error("fewer than ten samples beyond p" +
                             std::to_string(q * 100.0));
  }
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return static_cast<double>(v[rank]);
}

template <typename T>
double median_of(std::vector<T> v) {
  if (v.empty()) throw std::runtime_error("median of nothing");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? static_cast<double>(v[n / 2])
                    : (static_cast<double>(v[n / 2 - 1]) +
                       static_cast<double>(v[n / 2])) /
                          2.0;
}

/// Interquartile mean: the mean of the middle half of `v` (all of it when
/// fewer than four values). Over rounds it is robust to a round a host
/// hiccup hit, like a median, yet moves smoothly when the rounds fall into
/// two speed modes in varying proportion, where a median flips between them.
inline double interquartile_mean(std::vector<double> v) {
  if (v.empty()) throw std::runtime_error("mean of nothing");
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// Log-linear histogram (64 sub-buckets per power of two, <= 1/64 relative
/// error): fixed memory for layer timings taken on EVERY call.
class loglin_hist {
 public:
  static constexpr int sub_bits = 6;
  static constexpr std::uint64_t sub = 1ULL << sub_bits;

  void add(std::uint64_t v) noexcept {
    ++counts_[index(v)];
    ++n_;
    sum_ += v;
    max_ = std::max(max_, v);
  }
  void merge(const loglin_hist& o) noexcept {
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
    sum_ += o.sum_;
    max_ = std::max(max_, o.max_);
  }
  std::uint64_t count() const noexcept { return n_; }
  double mean() const noexcept {
    return n_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(n_);
  }
  std::uint64_t max() const noexcept { return max_; }
  /// Nearest-rank quantile, reported as the bucket midpoint; 0 when empty.
  double quantile(double q) const noexcept {
    if (n_ == 0) return 0.0;
    auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_)));
    if (rank == 0) rank = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen >= rank) return midpoint(i);
    }
    return static_cast<double>(max_);
  }

  static std::size_t index(std::uint64_t v) noexcept {
    if (v < sub) return static_cast<std::size_t>(v);
    const int e = 63 - __builtin_clzll(v);  // >= sub_bits
    const std::uint64_t s = (v >> (e - sub_bits)) & (sub - 1);
    return static_cast<std::size_t>(sub + static_cast<std::uint64_t>(e - sub_bits) * sub + s);
  }
  static double midpoint(std::size_t i) noexcept {
    if (i < sub) return static_cast<double>(i);
    const std::uint64_t k = (i - sub) / sub;
    const std::uint64_t s = (i - sub) % sub;
    const double lo = std::ldexp(static_cast<double>(sub + s), static_cast<int>(k));
    const double width = std::ldexp(1.0, static_cast<int>(k));
    return lo + width / 2.0;
  }

 private:
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(sub * 59, 0);
  std::uint64_t n_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t max_ = 0;
};

// -------------------------------------------------------------------- spans

/// A traced call: recorded by the benchmark around a call into a layer's
/// public function. id is 1-based and unique per recorder; parent 0 = root.
struct span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t rid = 0;  // request id shared by the spans of one request
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  const char* name = "";  // "<layer>.<call>", a string literal
};

/// Single-writer span buffer with a fixed capacity (one per worker thread).
/// Spans past the capacity are counted, not kept.
class span_recorder {
 public:
  span_recorder(std::uint32_t thread, std::size_t capacity)
      : thread_(thread), cap_(capacity) {
    spans_.reserve(capacity);
  }

  /// Opens a span at time `t`, returning its id (0 when dropped).
  std::uint64_t begin(const char* name, std::uint64_t parent,
                      std::uint64_t rid, std::uint64_t t) {
    if (spans_.size() >= cap_) {
      ++dropped_;
      return 0;
    }
    span s;
    s.id = (static_cast<std::uint64_t>(thread_) << 40) | (spans_.size() + 1);
    s.parent = parent;
    s.rid = rid;
    s.name = name;
    s.start_ns = t;
    s.end_ns = t;
    spans_.push_back(s);
    return s.id;
  }
  /// Closes span `id` at time `t`; a non-zero `rid` replaces the request id
  /// (a dequeue learns its request only when it returns).
  void end(std::uint64_t id, std::uint64_t t, std::uint64_t rid = 0) {
    if (id == 0) return;
    span& s = spans_[(id & ((1ULL << 40) - 1)) - 1];
    s.end_ns = t;
    if (rid != 0) s.rid = rid;
  }
  const std::vector<span>& spans() const noexcept { return spans_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  std::uint32_t thread_;
  std::size_t cap_;
  std::vector<span> spans_;
  std::uint64_t dropped_ = 0;
};

}  // namespace kpqbench
