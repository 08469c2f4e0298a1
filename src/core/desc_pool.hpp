// Per-thread descriptor cache (paper §3.3, first enhancement).
//
// "any update of state is preceded with an allocation of a new operation
//  descriptor. These allocations might be wasteful [...] if the following
//  CAS operation fails [...] This issue can be easily solved by caching
//  allocated descriptors used in unsuccessful CASes and reusing them."
//
// Two kinds of descriptor come back here:
//   * never-published ones (their installing CAS failed, so no other thread
//     can hold a reference) — recycle(), the paper's enhancement;
//   * published ones the reclaimer has proven unreachable — reclaim_fn, the
//     callback the queue hands to retire() with retire_ctx(tid) as context.
//     Every reclaimer runs a retired object's callback on the thread that
//     retired it (hp scan from retire, epoch advance on the owner's buckets,
//     leaky/hp/epoch shutdown under quiescence), so the descriptor lands in
//     the retiring thread's own list. This is the per-handle `spare` idiom of
//     the YMC queue, and reuse is exactly as ABA-safe as malloc reuse: a
//     descriptor any hazard slot still announces never reaches the callback.
//
// Each thread owns its own free list, so the pool needs no synchronization.
// The list holds at most `cache_cap` descriptors (the queue sizes it to one
// reclamation batch); beyond that a descriptor goes back to the allocator.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/op_desc.hpp"
#include "harness/mem_tracker.hpp"
#include "sync/cacheline.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace kpq {

template <typename T, bool Stamped = false>
class desc_pool {
 public:
  using desc_type = op_desc<T, Stamped>;

  desc_pool(std::uint32_t max_threads, const mem_tracked* accounting,
            std::size_t cache_cap = 64)
      : cache_cap_(cache_cap),
        accounting_(accounting),
        free_(max_threads) {
    for (auto& f : free_) f->owner = this;
  }

  desc_pool(const desc_pool&) = delete;
  desc_pool& operator=(const desc_pool&) = delete;

  ~desc_pool() { purge(); }

  /// Construct a descriptor, reusing a cached allocation when possible.
  template <typename... Args>
  desc_type* make(std::uint32_t tid, Args&&... args) {
    auto& list = free_[tid]->items;
    if (!list.empty()) {
      desc_type* d = list.back();
      list.pop_back();
      unpoison(d);
      d->~desc_type();
      return new (d) desc_type(std::forward<Args>(args)...);
    }
    // kpq-order: relaxed pairs-with none (statistics counter; read only by
    // the relaxed load in fresh_allocs(), orders no other data)
    fresh_allocs_.fetch_add(1, std::memory_order_relaxed);
    if (accounting_ != nullptr) accounting_->account_alloc(sizeof(desc_type));
    return new desc_type(std::forward<Args>(args)...);
  }

  /// Return a never-published descriptor for reuse. Cached descriptors stay
  /// "live" in the accounting (they occupy heap).
  void recycle(std::uint32_t tid, desc_type* d) noexcept {
    give_back(free_[tid].get(), d);
  }

  /// Reclaimer context for descriptors `tid` retires: its own free list.
  void* retire_ctx(std::uint32_t tid) noexcept { return &free_[tid].get(); }

  /// Reclaimer callback (retire_fn): `p` is unreachable; cache it in the
  /// retiring thread's list (`ctx`, from retire_ctx) or free it.
  static void reclaim_fn(void* ctx, void* p) noexcept {
    auto* list = static_cast<free_list*>(ctx);
    list->owner->give_back(*list, static_cast<desc_type*>(p));
  }

  /// Delete all cached descriptors (destructor path).
  void purge() noexcept {
    for (auto& f : free_) {
      for (desc_type* d : f->items) {
        unpoison(d);
        release(d);
      }
      f->items.clear();
    }
  }

  std::size_t cached(std::uint32_t tid) const noexcept {
    return free_[tid]->items.size();
  }
  std::size_t cache_cap() const noexcept { return cache_cap_; }
  std::uint64_t fresh_allocs() const noexcept {
    // kpq-order: relaxed pairs-with none (statistics read; may lag)
    return fresh_allocs_.load(std::memory_order_relaxed);
  }

 private:
  struct free_list {
    desc_pool* owner = nullptr;
    std::vector<desc_type*> items;
  };

  void give_back(free_list& list, desc_type* d) noexcept {
    if (list.items.size() < cache_cap_) {
      list.items.push_back(d);
      poison(d);
    } else {
      release(d);
    }
  }

  void release(desc_type* d) noexcept {
    if (accounting_ != nullptr) accounting_->account_free(sizeof(desc_type));
    delete d;
  }

  // ASan cannot flag a stale read of a cached descriptor (it was never
  // freed), so cached descriptors are poisoned until make() hands them out.
  static void poison(desc_type* d) noexcept {
#if defined(__SANITIZE_ADDRESS__)
    ASAN_POISON_MEMORY_REGION(d, sizeof(desc_type));
#else
    (void)d;
#endif
  }
  static void unpoison(desc_type* d) noexcept {
#if defined(__SANITIZE_ADDRESS__)
    ASAN_UNPOISON_MEMORY_REGION(d, sizeof(desc_type));
#else
    (void)d;
#endif
  }

  std::size_t cache_cap_;
  const mem_tracked* accounting_;  // the owning queue's accounting sink
  std::vector<padded<free_list>> free_;
  std::atomic<std::uint64_t> fresh_allocs_{0};
};

}  // namespace kpq
