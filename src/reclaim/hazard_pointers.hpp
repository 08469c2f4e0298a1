// Hazard pointers (Michael, IEEE TPDS 2004) — the wait-free reclamation
// scheme §3.4 of the paper prescribes for the C++ port of the KP queue.
//
// Layout: each thread owns one padded block of announcement slots, 16 to a
// 128-byte line (the library's padding unit, sync/cacheline.hpp), i.e.
// ⌈slots_per_thread / 16⌉ lines. No two threads share a line, a scan reads
// one line per thread rather than one per slot, and a guard's exit clears a
// single line. Each thread also owns a padded retired list that carries its
// retire/free statistics as owner-written cells (no shared RMW on the hot
// path). retire() appends to the owner's list; at the scan threshold R the
// owner snapshots all announcement slots once and the list becomes a batch,
// freed drain_per_retire objects per later retire(): an object retired
// before the snapshot and absent from it stays unreachable (a later
// announcement fails its validation). No operation pays R frees, and the
// retired-but-unfreed count still peaks at R.
//
// Progress: protect() is a validation loop, but each iteration corresponds
// to the *source* pointer changing, which in the queues only happens when
// some operation completes a step — so under the same argument the paper
// uses for its retry loops, the loop is bounded once the thread's own phase
// becomes the oldest. retire() is O(H log H) worst case, scan() a bounded
// O(H + R) pass. No step blocks on another thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/trace_ring.hpp"
#include "reclaim/reclaimer_concepts.hpp"
#include "sync/cacheline.hpp"

namespace kpq {

class hp_domain {
  /// One 128-byte line of announcement slots; a thread's block is
  /// `lines_per_thread_` consecutive lines.
  struct alignas(destructive_interference) slot_line {
    static constexpr std::uint32_t width =
        destructive_interference / sizeof(std::atomic<void*>);
    std::atomic<void*> slot[width]{};
  };
  static_assert(sizeof(slot_line) == destructive_interference);

  /// Slot `s` of the block that starts at line `b`.
  template <typename Line>
  static auto& slot_in(Line* b, std::uint32_t s) noexcept {
    return b[s / slot_line::width].slot[s % slot_line::width];
  }

 public:
  hp_domain(std::uint32_t max_threads, std::uint32_t slots_per_thread,
            std::uint32_t scan_threshold = 0)
      : max_threads_(max_threads),
        slots_per_thread_(slots_per_thread),
        lines_per_thread_((slots_per_thread + slot_line::width - 1) /
                          slot_line::width),
        lines_(static_cast<std::size_t>(max_threads) * lines_per_thread_),
        retired_(max_threads) {
    scan_threshold_ =
        scan_threshold ? scan_threshold
                       : default_scan_threshold(max_threads * slots_per_thread);
  }

  /// The default scan batch R for `total_slots` = H announcement slots:
  /// Michael's recommendation R >= H * (1 + small constant); the +64
  /// amortises the scan for tiny configurations.
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
      for (std::size_t i = r->next; i < r->batch.size(); ++i) {
        r->batch[i].fn(r->batch[i].ctx, r->batch[i].p);
      }
    }
  }

  class guard {
   public:
    guard(hp_domain& d, std::uint32_t tid) noexcept
        : d_(&d), block_(d.block(tid)), tid_(tid) {}
    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;
    guard(guard&& o) noexcept : d_(o.d_), block_(o.block_), tid_(o.tid_) {
      o.d_ = nullptr;
    }

    ~guard() {
      if (d_) {
        for (std::uint32_t i = 0; i < d_->slots_per_thread_; ++i) clear(i);
        d_->retry_ranges(tid_);
      }
    }

    /// Protect the pointer currently stored in `src`: announce it, then
    /// validate that `src` still holds it (otherwise the owner might already
    /// have retired it before seeing our announcement). The seq_cst
    /// store/load pair provides the StoreLoad ordering the protocol needs.
    ///
    /// If this thread's slot already holds the pointer just read, the store
    /// is skipped. Sound because that value came from this thread's own
    /// seq_cst store (protect or protect_raw; only the owner writes its
    /// slots, and a clear would have replaced it with null), and that store
    /// is sequenced before the seq_cst load of `src` that returned it: the
    /// pair is exactly Michael's announce-then-validate, so any scan that
    /// could free `p` after this load sees the announcement. The returned
    /// value still comes from a seq_cst read of `src`, so the queue's SC
    /// linearization argument (docs/ALGORITHM.md §5) is unchanged.
    ///
    /// A null read is returned without touching the slot: there is nothing
    /// to protect, and whatever the slot still announces stays announced
    /// (at worst that object is freed one scan later).
    template <typename T>
    T* protect(std::uint32_t slot, const std::atomic<T*>& src) noexcept {
      std::atomic<void*>& h = slot_at(slot);
      T* p = src.load(std::memory_order_seq_cst);
      // kpq-order: relaxed pairs-with none (reads this thread's own slot,
      // which only this thread writes: coherence returns its latest store)
      if (p == nullptr || h.load(std::memory_order_relaxed) == p) return p;
      for (;;) {
        h.store(const_cast<std::remove_const_t<T>*>(p),
                std::memory_order_seq_cst);
        T* q = src.load(std::memory_order_seq_cst);
        if (q == p || q == nullptr) return q;
        p = q;
      }
    }

    /// Announce a pointer the caller obtained (and will validate) itself.
    template <typename T>
    void protect_raw(std::uint32_t slot, T* p) noexcept {
      slot_at(slot).store(const_cast<std::remove_const_t<T>*>(p),
                          std::memory_order_seq_cst);
    }

    void clear(std::uint32_t slot) noexcept {
      // kpq-order: release pairs-with scan()'s seq_cst slot read — our
      // preceding reads of *p happen-before a reclaimer frees p; clearing
      // needs no StoreLoad (a late-seen announcement only delays a free)
      slot_at(slot).store(nullptr, std::memory_order_release);
    }

   private:
    std::atomic<void*>& slot_at(std::uint32_t slot) const noexcept {
      assert(slot < d_->slots_per_thread_);
      return slot_in(block_, slot);
    }

    hp_domain* d_;
    slot_line* block_;  // this thread's announcement block
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
    r.retired.add(1);
    if (r.next == r.batch.size() && r.items.size() >= scan_threshold_) {
      begin_batch(tid, r);
    }
    drain(r, drain_per_retire);
  }
  static constexpr std::size_t drain_per_retire = 2;  // see file comment

  /// Range retirement (storage/segment_storage): `fn(ctx, base)` runs once
  /// no announcement names any address in [base, base+bytes). Scans
  /// eagerly — a range retirement happens once per SEGMENT of node
  /// retirements, so the O(H + R) pass here is amortized over the segment's
  /// cells and keeps segment turnaround (and therefore the bounded queue's
  /// live-byte floor) low instead of waiting for the count threshold. A
  /// range it keeps (usually announced by the retiring thread itself) is
  /// retried at the thread's guard exits until freed: an idle queue retires
  /// nothing else, and a bounded queue's blocked producer needs the memory.
  void retire_range(std::uint32_t tid, void* base, std::size_t bytes,
                    retire_fn fn, void* ctx) {
    assert(tid < max_threads_);
    assert(bytes > 0);
    auto& r = retired_[tid].get();
    r.items.push_back({base, fn, ctx, bytes});
    ++r.ranges;
    r.retired.add(1);
    scan(tid);
  }

  /// One whole reclamation pass for `tid`'s retired objects (its list and
  /// what is left of its batch): free everything not currently announced
  /// by any thread.
  void scan(std::uint32_t tid) {
    auto& r = retired_[tid].get();
    r.items.insert(r.items.end(),
                   r.batch.begin() + static_cast<std::ptrdiff_t>(r.next),
                   r.batch.end());
    r.next = r.batch.size();
    begin_batch(tid, r);
    drain(r, r.batch.size());
  }

  // --- observability (tests assert reclamation actually happens) ---
  // Sums of the per-thread cells: exact at quiescence, an estimate during a
  // run.
  std::uint64_t retired_count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : retired_) n += r->retired.get();
    return n;
  }
  std::uint64_t freed_count() const noexcept {
    std::uint64_t n = 0;
    for (const auto& r : retired_) n += r->freed.get();
    return n;
  }
  std::size_t pending_count() const noexcept {
    std::size_t n = 0;
    for (const auto& r : retired_) {
      n += r->items.size() + (r->batch.size() - r->next);
    }
    return n;
  }
  std::uint32_t slots_per_thread() const noexcept { return slots_per_thread_; }
  std::uint32_t max_threads() const noexcept { return max_threads_; }
  std::uint32_t scan_threshold() const noexcept { return scan_threshold_; }

  /// Testing hook: what thread `tid` currently announces in `slot`.
  void* announced(std::uint32_t tid, std::uint32_t slot) const noexcept {
    return slot_ref(tid, slot).load(std::memory_order_seq_cst);
  }

 private:
  struct retired_item {
    void* p;
    retire_fn fn;
    void* ctx;
    std::size_t bytes;  // 0 = exact-address item; else [p, p+bytes) range
  };
  struct retired_list {
    std::vector<retired_item> items;  // retired since the last snapshot
    std::vector<retired_item> batch;  // being reclaimed against `scratch`
    std::size_t next = 0;             // batch[next..] not yet reclaimed
    std::vector<void*> scratch;       // sorted announcement snapshot
    std::uint32_t ranges = 0;         // range items not yet freed
    owner_counter retired;
    owner_counter freed;
  };

  /// Guard exit: retry the thread's kept ranges (see retire_range).
  void retry_ranges(std::uint32_t tid) {
    if (retired_[tid]->ranges != 0) scan(tid);
  }

  /// Snapshot every announcement slot; the list becomes the batch. The
  /// snapshot is the reclaimer's only super-constant step (O(H log H)); the
  /// trace records it with the batch size. Compiled out unless KPQ_TRACE.
  void begin_batch(std::uint32_t tid, retired_list& r) {
    r.scratch.clear();
    for (std::uint32_t t = 0; t < max_threads_; ++t) {
      for (std::uint32_t s = 0; s < slots_per_thread_; ++s) {
        if (void* p = slot_ref(t, s).load(std::memory_order_seq_cst)) {
          r.scratch.push_back(p);
        }
      }
    }
    std::sort(r.scratch.begin(), r.scratch.end());
    r.batch.clear();
    r.next = 0;
    std::swap(r.items, r.batch);
    if constexpr (obs::default_trace::enabled) {
      obs::default_trace::record(tid, obs::trace_kind::reclaim_scan, 0,
                                 static_cast<std::uint32_t>(r.batch.size()));
    }
  }

  /// Reclaim up to `k` objects of the batch. An object is announced if the
  /// snapshot holds an address in [p, p + max(bytes, 1)) — its own address
  /// for an exact retirement, any address in the range for a range — one
  /// lower_bound either way. Announced objects go back to the list.
  void drain(retired_list& r, std::size_t k) {
    std::uint64_t freed = 0;
    for (; k > 0 && r.next < r.batch.size(); --k) {
      const retired_item& item = r.batch[r.next++];
      const auto it =
          std::lower_bound(r.scratch.begin(), r.scratch.end(), item.p);
      if (it != r.scratch.end() &&
          reinterpret_cast<std::uintptr_t>(*it) -
                  reinterpret_cast<std::uintptr_t>(item.p) <
              std::max<std::size_t>(item.bytes, 1)) {
        r.items.push_back(item);
        continue;
      }
      if (item.bytes != 0) --r.ranges;
      item.fn(item.ctx, item.p);
      ++freed;
    }
    r.freed.add(freed);
  }

  slot_line* block(std::uint32_t tid) noexcept {
    return lines_.data() + static_cast<std::size_t>(tid) * lines_per_thread_;
  }
  const slot_line* block(std::uint32_t tid) const noexcept {
    return lines_.data() + static_cast<std::size_t>(tid) * lines_per_thread_;
  }

  std::atomic<void*>& slot_ref(std::uint32_t tid, std::uint32_t slot) noexcept {
    assert(slot < slots_per_thread_);
    return slot_in(block(tid), slot);
  }
  const std::atomic<void*>& slot_ref(std::uint32_t tid,
                                     std::uint32_t slot) const noexcept {
    assert(slot < slots_per_thread_);
    return slot_in(block(tid), slot);
  }

  std::uint32_t max_threads_;
  std::uint32_t slots_per_thread_;
  std::uint32_t lines_per_thread_;
  std::uint32_t scan_threshold_;
  std::vector<slot_line> lines_;  // max_threads_ blocks of lines_per_thread_
  std::vector<padded<retired_list>> retired_;
};

static_assert(reclaimer_domain<hp_domain>);

}  // namespace kpq
