// The reclaimer policy interface.
//
// The paper's Java implementation gets safe memory reclamation (and ABA
// freedom) from the garbage collector. Section 3.4 prescribes hazard
// pointers for unmanaged runtimes. This repository makes the reclamation
// scheme a policy so the same queue code runs under:
//
//   * hp_domain     — Michael's hazard pointers (wait-free; the paper's
//                     prescription, and the default),
//   * epoch_domain  — epoch-based reclamation (cheaper reads, only blocking
//                     reclamation, NOT wait-free for memory bounds; used to
//                     ablate reclamation cost),
//   * leaky_domain  — defers every retirement to domain destruction (zero
//                     per-op cost; isolates pure algorithm cost in benches
//                     and simplifies some tests).
//
// Contract
// --------
// A domain is created per container with (max_threads, slots_per_thread).
// Threads are identified by a dense id < max_threads (see thread_registry).
//
//   guard g = domain.enter(tid);      // RAII critical-section token
//   T* p  = g.protect(slot, src);     // loads src and makes *p safe to
//                                     // dereference until clear/guard exit.
//                                     // May internally re-load src (hazard
//                                     // pointer validation loop).
//   g.protect_raw(slot, p);           // announce an already-validated ptr
//   g.clear(slot);                    // release one slot early
//   domain.retire(tid, p, fn, ctx);   // fn(ctx, p) frees p once no guard
//                                     // can still reach it
//   domain.retire_range(tid, base, bytes, fn, ctx);
//                                     // like retire, but the object is the
//                                     // address range [base, base+bytes):
//                                     // fn(ctx, base) runs once no guard
//                                     // protects ANY pointer inside the
//                                     // range. The storage layer retires
//                                     // whole segments of node cells this
//                                     // way — one retirement (and one scan
//                                     // entry) per segment instead of one
//                                     // per node (storage/segment_storage).
//
// `slot` indexes a small per-thread set of protection slots; the container
// declares how many it needs. Epoch/leaky domains ignore slots entirely —
// protection is the guard's lifetime.
//
// ABA note: a pointer compared by CAS must be protected by the CASing thread
// from the moment it was read until the CAS retires. All three domains give
// this for free inside a guard (hazard pointers via the slot, epoch/leaky
// because nothing is unmapped while any guard is live).
#pragma once

#include <atomic>
#include <concepts>
#include <cstddef>
#include <cstdint>

namespace kpq {

/// Type-erased deleter: fn(ctx, object).
using retire_fn = void (*)(void*, void*);

/// A statistics cell only its owner thread writes: add() is a relaxed load
/// plus a relaxed store, not an RMW, so counting a retirement costs no
/// locked instruction and no shared cache line. Every domain keeps one pair
/// (retired, freed) per thread inside that thread's padded state; the
/// domain's retired_count()/freed_count() sum the cells, exact at
/// quiescence and an estimate during a run.
class owner_counter {
 public:
  void add(std::uint64_t n) noexcept {
    // kpq-order: relaxed pairs-with none (owner-thread statistics cell; the
    // non-RMW load+store is safe because only the owner ever writes it)
    v_.store(v_.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
  }
  std::uint64_t get() const noexcept {
    // kpq-order: relaxed pairs-with none (statistics read; may lag)
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

template <typename R>
concept reclaimer_domain = requires(R r, std::uint32_t tid, std::uint32_t slot,
                                    std::atomic<int*>& src, int* p, void* ctx,
                                    std::size_t bytes, retire_fn fn) {
  { r.enter(tid) };
  { r.retire(tid, p, fn, ctx) };
  { r.retire_range(tid, p, bytes, fn, ctx) };
  { r.enter(tid).protect(slot, src) } -> std::same_as<int*>;
  { r.enter(tid).protect_raw(slot, p) };
  { r.enter(tid).clear(slot) };
};

}  // namespace kpq
