// Epoch-based reclamation (EBR).
//
// Alternative reclaimer policy: readers pin the global epoch on guard entry
// and unpin on exit; an object retired in epoch e is freed once every pinned
// thread has observed an epoch >= e+1 (two advances of a three-bucket
// scheme). protect() is then a plain acquire load — much cheaper than a
// hazard-pointer announce — at the cost of unbounded memory if a reader
// stalls inside a guard. That trade-off is exactly what
// bench/micro_reclaimers quantifies, and why EBR is NOT the default for a
// wait-free queue: a stalled thread blocks reclamation (memory bounds become
// blocking even though operations stay wait-free).
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "reclaim/reclaimer_concepts.hpp"
#include "sync/cacheline.hpp"

namespace kpq {

class epoch_domain {
 public:
  epoch_domain(std::uint32_t max_threads, std::uint32_t /*slots_per_thread*/,
               std::uint32_t flush_threshold = 64)
      : max_threads_(max_threads),
        flush_threshold_(flush_threshold),
        threads_(max_threads) {}

  epoch_domain(const epoch_domain&) = delete;
  epoch_domain& operator=(const epoch_domain&) = delete;

  ~epoch_domain() {
    for (auto& t : threads_) {
      for (auto& bucket : t->buckets) {
        for (auto& item : bucket) item.fn(item.ctx, item.p);
      }
    }
  }

  class guard {
   public:
    guard(epoch_domain& d, std::uint32_t tid) noexcept : d_(&d), tid_(tid) {
      auto& t = d_->threads_[tid_].get();
      if (t.nesting++ == 0) {
        // Pin: publish the epoch we are reading under. seq_cst store so
        // try_advance's scan cannot miss us.
        t.local_epoch.store(d_->global_epoch_.load(std::memory_order_seq_cst),
                            std::memory_order_seq_cst);
        t.active.store(true, std::memory_order_seq_cst);
      }
    }
    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;
    guard(guard&& o) noexcept : d_(o.d_), tid_(o.tid_) { o.d_ = nullptr; }

    ~guard() {
      if (!d_) return;
      auto& t = d_->threads_[tid_].get();
      if (--t.nesting == 0) {
        // kpq-order: release pairs-with try_advance's seq_cst active scan —
        // every read made under the guard happens-before an advance that no
        // longer counts us as pinned
        t.active.store(false, std::memory_order_release);
      }
    }

    template <typename T>
    T* protect(std::uint32_t /*slot*/, const std::atomic<T*>& src) noexcept {
      // kpq-order: acquire pairs-with the seq_cst CAS that published *p —
      // the pinned epoch (not this load) is what keeps p alive under EBR
      return src.load(std::memory_order_acquire);
    }
    template <typename T>
    void protect_raw(std::uint32_t /*slot*/, T* /*p*/) noexcept {}
    void clear(std::uint32_t /*slot*/) noexcept {}

   private:
    epoch_domain* d_;
    std::uint32_t tid_;
  };

  guard enter(std::uint32_t tid) noexcept {
    assert(tid < max_threads_);
    return guard(*this, tid);
  }

  void retire(std::uint32_t tid, void* p, retire_fn fn, void* ctx) {
    auto& t = threads_[tid].get();
    // kpq-order: acquire pairs-with try_advance's seq_cst epoch CAS — the
    // bucket index must be from the current or an older epoch (an older one
    // only delays the free by one advance, never frees early)
    const std::uint64_t e = global_epoch_.load(std::memory_order_acquire);
    t.buckets[e % 3].push_back({p, fn, ctx});
    t.retired.add(1);
    if (++t.since_flush >= flush_threshold_) {
      t.since_flush = 0;
      try_advance(tid);
    }
  }

  /// Range retirement: under EBR the guard protects EVERYTHING read inside
  /// it, so a range needs no special handling — it is freed two epoch
  /// advances after retirement like any object. Advance eagerly for the same
  /// segment-turnaround reason hp_domain scans eagerly (amortized: one call
  /// per segment of nodes).
  void retire_range(std::uint32_t tid, void* base, std::size_t /*bytes*/,
                    retire_fn fn, void* ctx) {
    retire(tid, base, fn, ctx);
    try_advance(tid);
  }

  /// Advance the global epoch if every pinned thread has caught up, then
  /// free `tid`'s bucket that is two epochs old.
  void try_advance(std::uint32_t tid) {
    const std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);
    bool all_caught_up = true;
    for (auto& t : threads_) {
      if (t->active.load(std::memory_order_seq_cst) &&
          t->local_epoch.load(std::memory_order_seq_cst) != e) {
        all_caught_up = false;
        break;
      }
    }
    std::uint64_t cur = e;
    if (all_caught_up) {
      global_epoch_.compare_exchange_strong(cur, e + 1,
                                            std::memory_order_seq_cst);
      cur = global_epoch_.load(std::memory_order_seq_cst);
    }
    // Bucket (cur - 2) holds objects retired two epochs back: every guard
    // now active pinned an epoch >= cur - 1 > their retirement epoch, and
    // guards that predate the retirement have exited (else we could not have
    // advanced). Only the owner frees its own buckets.
    if (cur >= 2) {
      auto& t = threads_[tid].get();
      auto& bucket = t.buckets[(cur - 2) % 3];
      // Only safe if this bucket's contents were retired at epoch cur-2 (not
      // refilled at cur+1, which maps to the same index). Buckets are
      // emptied here each time the epoch reaches +2, so entries are always
      // from the oldest epoch mapping to the slot.
      for (auto& item : bucket) item.fn(item.ctx, item.p);
      t.freed.add(bucket.size());
      bucket.clear();
    }
  }

  // Sums of the per-thread cells: exact at quiescence, an estimate during a
  // run.
  std::uint64_t retired_count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& t : threads_) n += t->retired.get();
    return n;
  }
  std::uint64_t freed_count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& t : threads_) n += t->freed.get();
    return n;
  }
  std::uint64_t epoch() const noexcept {
    // kpq-order: acquire pairs-with try_advance's seq_cst epoch CAS
    // (observability read; tests compare epochs across threads)
    return global_epoch_.load(std::memory_order_acquire);
  }

 private:
  struct retired_item {
    void* p;
    retire_fn fn;
    void* ctx;
  };
  struct thread_state {
    std::atomic<bool> active{false};
    std::atomic<std::uint64_t> local_epoch{0};
    std::uint32_t nesting = 0;      // owner-only
    std::uint32_t since_flush = 0;  // owner-only
    std::vector<retired_item> buckets[3];
    owner_counter retired;
    owner_counter freed;
  };

  std::uint32_t max_threads_;
  std::uint32_t flush_threshold_;
  alignas(destructive_interference) std::atomic<std::uint64_t> global_epoch_{0};
  std::vector<padded<thread_state>> threads_;
};

static_assert(reclaimer_domain<epoch_domain>);

}  // namespace kpq
