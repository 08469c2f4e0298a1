// Live-heap accounting for the Figure 10 reproduction.
//
// The paper measured the space overhead of the wait-free queue relative to
// the lock-free one by sampling JVM GC statistics (`--verbosegc`) for the
// size of live objects. We do not have a GC; instead every queue in this
// library routes its node and per-thread allocations through an optional
// `mem_counters` sink, so "live bytes attributable to the queue" is an exact
// counter rather than a sampled estimate.
//
// The counters are atomics: allocation happens on every thread. Relaxed
// ordering suffices — benches only read them at sampling points that are
// already synchronized by thread join or by barrier.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace kpq {

class mem_counters {
 public:
  void on_alloc(std::size_t bytes) noexcept {
    live_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    live_objects_.fetch_add(1, std::memory_order_relaxed);
    total_allocs_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Credit several allocations at once (the construction-baseline replay
  /// below; also keeps total_allocs an allocation count, not a byte count).
  void on_alloc_bulk(std::int64_t bytes, std::int64_t objects) noexcept {
    live_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    live_objects_.fetch_add(objects, std::memory_order_relaxed);
    if (objects > 0) {
      total_allocs_.fetch_add(static_cast<std::uint64_t>(objects),
                              std::memory_order_relaxed);
    }
  }
  void on_free(std::size_t bytes) noexcept {
    live_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    live_objects_.fetch_sub(1, std::memory_order_relaxed);
  }

  std::int64_t live_bytes() const noexcept {
    return live_bytes_.load(std::memory_order_relaxed);
  }
  std::int64_t live_objects() const noexcept {
    return live_objects_.load(std::memory_order_relaxed);
  }
  std::uint64_t total_allocs() const noexcept {
    return total_allocs_.load(std::memory_order_relaxed);
  }

  void reset() noexcept {
    live_bytes_.store(0, std::memory_order_relaxed);
    live_objects_.store(0, std::memory_order_relaxed);
    total_allocs_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> live_bytes_{0};
  std::atomic<std::int64_t> live_objects_{0};
  std::atomic<std::uint64_t> total_allocs_{0};
};

/// Mixin the queues use. A null sink compiles to two predictable branches;
/// the benchmarks that do not measure space leave it null.
///
/// Construction baseline: a container allocates during construction (the KP
/// queue: one sentinel node plus its request records). If the sink is
/// attached only later via set_memory_counters(), those allocations used to
/// be invisible — their eventual frees were counted but their allocs were
/// not, so live_bytes could go NEGATIVE and the Figure 10 "including
/// per-thread state" claim had a hole. Now: while no sink is attached and the
/// baseline is unsealed (i.e. during construction), account_alloc/free
/// accumulate into plain counters; the container calls seal_baseline() at
/// the end of its constructor; a later attach replays the sealed baseline
/// into the new sink (on_alloc_bulk). Zero cost on the hot path — the
/// baseline branch is behind the existing `mem_ == nullptr` check and is
/// compiled against a bool that is false for the queue's whole operating
/// life. Attach a given mem_counters to a container at most once (or
/// reset() it first): each attach replays the baseline.
class mem_tracked {
 public:
  void set_memory_counters(mem_counters* c) noexcept {
    const bool attaching = (mem_ == nullptr && c != nullptr);
    mem_ = c;
    if (attaching && baseline_sealed_ && baseline_objects_ != 0) {
      c->on_alloc_bulk(baseline_bytes_, baseline_objects_);
    }
  }
  mem_counters* memory_counters() const noexcept { return mem_; }

  /// Freeze the construction baseline: call at the END of the constructor of
  /// the most-derived container. Before the seal, unsinked allocations
  /// accumulate; after it, they are intentionally ignored (a null sink means
  /// "not measuring").
  void seal_baseline() noexcept { baseline_sealed_ = true; }

  void account_alloc(std::size_t bytes) const noexcept {
    if (mem_) {
      mem_->on_alloc(bytes);
    } else if (!baseline_sealed_) {
      baseline_bytes_ += static_cast<std::int64_t>(bytes);
      ++baseline_objects_;
    }
  }
  void account_free(std::size_t bytes) const noexcept {
    if (mem_) {
      mem_->on_free(bytes);
    } else if (!baseline_sealed_) {
      baseline_bytes_ -= static_cast<std::int64_t>(bytes);
      --baseline_objects_;
    }
  }

 private:
  mem_counters* mem_ = nullptr;
  // Construction is single-threaded; after seal_baseline() these are
  // read-only. Mutable because the account_* interface is const.
  mutable std::int64_t baseline_bytes_ = 0;
  mutable std::int64_t baseline_objects_ = 0;
  bool baseline_sealed_ = false;
};

}  // namespace kpq
