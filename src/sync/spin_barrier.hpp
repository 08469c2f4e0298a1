// Sense-reversing spin barrier.
//
// The benchmark harness releases all worker threads simultaneously so that
// per-run wall time measures steady-state contention, not thread start skew.
// std::barrier exists, but a sense-reversing barrier lets us couple the last
// arrival with starting the timer and keeps the hot path to one atomic.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

#include "sync/backoff.hpp"
#include "sync/cacheline.hpp"

namespace kpq {

class spin_barrier {
 public:
  explicit spin_barrier(std::uint32_t parties) noexcept : parties_(parties) {}

  spin_barrier(const spin_barrier&) = delete;
  spin_barrier& operator=(const spin_barrier&) = delete;

  /// Blocks until `parties` threads have arrived. Returns true for exactly
  /// one caller per generation (the last arrival).
  bool arrive_and_wait() noexcept {
    return arrive_and_wait([] {});
  }

  /// As above, but the last arrival runs `on_release()` before it releases
  /// the others, so whatever it records (the harness's start timestamp)
  /// happens-before every party's return.
  template <typename F>
  bool arrive_and_wait(F&& on_release) noexcept {
    // kpq-order: relaxed pairs-with none (sense_ only flips in the release
    // store below, which cannot run concurrently with arrivals of the same
    // generation — the value is stable until the last arrival)
    const bool my_sense = !sense_.load(std::memory_order_relaxed);
    // kpq-order: acq_rel pairs-with the other arrivals' fetch_adds — the
    // last arrival's acquire sees all work preceding every arrival
    if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      // kpq-order: relaxed pairs-with none (ordered before the next
      // generation by the sense_ release/acquire edge below)
      count_.store(0, std::memory_order_relaxed);
      on_release();
      // kpq-order: release pairs-with the acquire spin below — publishes
      // the count_ reset and everything before the barrier to all waiters
      sense_.store(my_sense, std::memory_order_release);
      return true;
    }
    backoff bo(64);
    // kpq-order: acquire pairs-with the release sense_ store above
    while (sense_.load(std::memory_order_acquire) != my_sense) bo();
    return false;
  }

  std::uint32_t parties() const noexcept { return parties_; }

 private:
  const std::uint32_t parties_;
  alignas(destructive_interference) std::atomic<std::uint32_t> count_{0};
  alignas(destructive_interference) std::atomic<bool> sense_{false};
};

}  // namespace kpq
