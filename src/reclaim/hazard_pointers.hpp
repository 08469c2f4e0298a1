// Hazard pointers (Michael, IEEE TPDS 2004) — the wait-free reclamation
// scheme §3.4 of the paper prescribes for the C++ port of the KP queue.
//
// Layout: `max_threads * slots_per_thread` announcement slots, each on its
// own cache line, plus a per-thread retired list. retire() appends to the
// owner's list; when the list crosses the scan threshold the owner scans all
// announcement slots once and frees every retired object not announced.
//
// Progress: protect() is a validation loop, but each iteration corresponds
// to the *source* pointer changing, which in the queues only happens when
// some operation completes a step — so under the same argument the paper
// uses for its retry loops, the loop is bounded once the thread's own phase
// becomes the oldest. scan() is a bounded O(H + R) pass. retire() is O(1)
// amortised, O(H + R) worst case. No step blocks on another thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/trace_ring.hpp"
#include "reclaim/reclaimer_concepts.hpp"
#include "sync/cacheline.hpp"

namespace kpq {

class hp_domain {
 public:
  hp_domain(std::uint32_t max_threads, std::uint32_t slots_per_thread,
            std::uint32_t scan_threshold = 0)
      : max_threads_(max_threads),
        slots_per_thread_(slots_per_thread),
        slots_(static_cast<std::size_t>(max_threads) * slots_per_thread),
        retired_(max_threads) {
    scan_threshold_ =
        scan_threshold ? scan_threshold
                       : default_scan_threshold(max_threads * slots_per_thread);
  }

  /// The default scan batch R for `total_slots` = H announcement slots:
  /// Michael's recommendation R >= H * (1 + small constant); the +64
  /// amortises the scan for tiny configurations. One scan hands back at
  /// most one batch, which is what wf_queue sizes each thread's descriptor
  /// cache to (core/desc_pool.hpp).
  static constexpr std::uint32_t default_scan_threshold(
      std::uint32_t total_slots) noexcept {
    return 2 * total_slots + 64;
  }

  hp_domain(const hp_domain&) = delete;
  hp_domain& operator=(const hp_domain&) = delete;

  /// Frees everything still retired. Caller must guarantee quiescence (no
  /// live guards), which container destructors do by construction.
  ~hp_domain() {
    for (auto& r : retired_) {
      for (auto& item : r->items) item.fn(item.ctx, item.p);
    }
  }

  class guard {
   public:
    guard(hp_domain& d, std::uint32_t tid) noexcept : d_(&d), tid_(tid) {}
    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;
    guard(guard&& o) noexcept : d_(o.d_), tid_(o.tid_) { o.d_ = nullptr; }

    ~guard() {
      if (d_) {
        for (std::uint32_t i = 0; i < d_->slots_per_thread_; ++i) clear(i);
      }
    }

    /// Protect the pointer currently stored in `src`: announce it, then
    /// validate that `src` still holds it (otherwise the owner might already
    /// have retired it before seeing our announcement). The seq_cst
    /// store/load pair provides the StoreLoad ordering the protocol needs.
    template <typename T>
    T* protect(std::uint32_t slot, const std::atomic<T*>& src) noexcept {
      std::atomic<void*>& h = d_->slot_ref(tid_, slot);
      // kpq-order: acquire pairs-with the seq_cst CAS that published *p —
      // only a first guess; the seq_cst announce/validate loop below is
      // what makes the protection sound
      T* p = src.load(std::memory_order_acquire);
      for (;;) {
        h.store(const_cast<std::remove_const_t<T>*>(p),
                std::memory_order_seq_cst);
        T* q = src.load(std::memory_order_seq_cst);
        if (q == p) return p;
        p = q;
      }
    }

    /// Announce a pointer the caller obtained (and will validate) itself.
    template <typename T>
    void protect_raw(std::uint32_t slot, T* p) noexcept {
      d_->slot_ref(tid_, slot)
          .store(const_cast<std::remove_const_t<T>*>(p),
                 std::memory_order_seq_cst);
    }

    void clear(std::uint32_t slot) noexcept {
      // kpq-order: release pairs-with scan()'s seq_cst slot read — our
      // preceding reads of *p happen-before a reclaimer frees p; clearing
      // needs no StoreLoad (a late-seen announcement only delays a free)
      d_->slot_ref(tid_, slot).store(nullptr, std::memory_order_release);
    }

   private:
    hp_domain* d_;
    std::uint32_t tid_;
  };

  guard enter(std::uint32_t tid) noexcept {
    assert(tid < max_threads_);
    return guard(*this, tid);
  }

  /// Hand `p` to the domain; `fn(ctx, p)` runs once no announcement can
  /// still name it.
  void retire(std::uint32_t tid, void* p, retire_fn fn, void* ctx) {
    assert(tid < max_threads_);
    auto& r = retired_[tid].get();
    r.items.push_back({p, fn, ctx, 0});
    // kpq-order: relaxed pairs-with none (statistics counter for tests)
    retired_count_.fetch_add(1, std::memory_order_relaxed);
    if (r.items.size() >= scan_threshold_) scan(tid);
  }

  /// Range retirement (storage/segment_storage): `fn(ctx, base)` runs once
  /// no announcement names any address in [base, base+bytes). Scans
  /// eagerly — a range retirement happens once per SEGMENT of node
  /// retirements, so the O(H + R) pass here is amortized over the segment's
  /// cells and keeps segment turnaround (and therefore the bounded queue's
  /// live-byte floor) low instead of waiting for the count threshold.
  void retire_range(std::uint32_t tid, void* base, std::size_t bytes,
                    retire_fn fn, void* ctx) {
    assert(tid < max_threads_);
    assert(bytes > 0);
    auto& r = retired_[tid].get();
    r.items.push_back({base, fn, ctx, bytes});
    // kpq-order: relaxed pairs-with none (statistics counter for tests)
    retired_count_.fetch_add(1, std::memory_order_relaxed);
    scan(tid);
  }

  /// One reclamation pass for `tid`'s retired list: free everything not
  /// currently announced by any thread.
  void scan(std::uint32_t tid) {
    auto& r = retired_[tid].get();
    std::vector<void*>& announced = r.scratch;
    announced.clear();
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (void* p = slots_[i]->load(std::memory_order_seq_cst)) {
        announced.push_back(p);
      }
    }
    std::sort(announced.begin(), announced.end());
    std::size_t kept = 0;
    std::uint64_t freed_this_pass = 0;
    for (auto& item : r.items) {
      // Exact retirements (bytes == 0) hit only their own address; range
      // retirements hit if any announced pointer falls inside
      // [p, p + bytes) — one lower_bound either way.
      const auto it =
          std::lower_bound(announced.begin(), announced.end(), item.p);
      const bool announced_hit =
          item.bytes == 0
              ? (it != announced.end() && *it == item.p)
              : (it != announced.end() &&
                 reinterpret_cast<std::uintptr_t>(*it) <
                     reinterpret_cast<std::uintptr_t>(item.p) + item.bytes);
      if (announced_hit) {
        r.items[kept++] = item;
      } else {
        item.fn(item.ctx, item.p);
        ++freed_this_pass;
      }
    }
    r.items.resize(kept);
    // kpq-order: relaxed pairs-with none (statistics counter for tests)
    freed_count_.fetch_add(freed_this_pass, std::memory_order_relaxed);
    // The scan is the reclaimer's only super-constant step (O(H + R)); the
    // trace makes its frequency and yield visible next to the queue events
    // it interleaves with. Compiled out unless KPQ_TRACE.
    if constexpr (obs::default_trace::enabled) {
      obs::default_trace::record(
          tid, obs::trace_kind::reclaim_scan, 0,
          static_cast<std::uint32_t>(freed_this_pass));
    }
  }

  // --- observability (tests assert reclamation actually happens) ---
  std::uint64_t retired_count() const noexcept {
    // kpq-order: relaxed pairs-with none (statistics read; may lag)
    return retired_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t freed_count() const noexcept {
    // kpq-order: relaxed pairs-with none (statistics read; may lag)
    return freed_count_.load(std::memory_order_relaxed);
  }
  std::size_t pending_count() const noexcept {
    std::size_t n = 0;
    for (const auto& r : retired_) n += r->items.size();
    return n;
  }
  std::uint32_t slots_per_thread() const noexcept { return slots_per_thread_; }
  std::uint32_t max_threads() const noexcept { return max_threads_; }
  std::uint32_t scan_threshold() const noexcept { return scan_threshold_; }

  /// Testing hook: what thread `tid` currently announces in `slot`.
  void* announced(std::uint32_t tid, std::uint32_t slot) const noexcept {
    return slots_[static_cast<std::size_t>(tid) * slots_per_thread_ + slot]
        ->load(std::memory_order_seq_cst);
  }

 private:
  struct retired_item {
    void* p;
    retire_fn fn;
    void* ctx;
    std::size_t bytes;  // 0 = exact-address item; else [p, p+bytes) range
  };
  struct retired_list {
    std::vector<retired_item> items;
    std::vector<void*> scratch;  // reused across scans
  };

  std::atomic<void*>& slot_ref(std::uint32_t tid, std::uint32_t slot) noexcept {
    assert(slot < slots_per_thread_);
    return slots_[static_cast<std::size_t>(tid) * slots_per_thread_ + slot]
        .get();
  }

  std::uint32_t max_threads_;
  std::uint32_t slots_per_thread_;
  std::uint32_t scan_threshold_;
  std::vector<padded<std::atomic<void*>>> slots_;
  std::vector<padded<retired_list>> retired_;
  std::atomic<std::uint64_t> retired_count_{0};
  std::atomic<std::uint64_t> freed_count_{0};
};

static_assert(reclaimer_domain<hp_domain>);

}  // namespace kpq
