// bounded_wf_queue<T>: the KP wait-free queue with a HARD ceiling on live
// memory, built on segment_storage (the wCQ design point: bounded memory is
// only meaningful when allocation and reclamation have a fixed-size unit).
//
// The ceiling is enforced by ADMISSION, not by a slotted ring: every
// enqueue first checks the queue's exact live-byte counter (mem_tracker —
// segments, payload boxes and the request records all flow through it) against
// `max_bytes` minus a fixed headroom covering the worst case the already-
// admitted in-flight operations can still allocate. The bound argument
// (docs/MEMORY.md §4): any allocation happens inside an operation whose
// admission read live <= max_bytes - headroom; between any such read and
// the allocation, each of the n threads has at most one partially-complete
// operation, and one operation allocates at most
// per_op = Storage::max_alloc_bytes + Inner::box_bytes
// bytes (its node's storage and, for a T that does not ride inline, its
// box; helping allocates nothing), so live never exceeds
// (max_bytes - n*per_op) + n*per_op.
//
// Full-queue policies:
//   * reject           — try_enqueue returns false; enqueue drops. The
//                        wait-free choice: admission is one counter read.
//   * block            — producers wait until a dequeue (or the reclaimer
//                        returning a segment) makes room, or close() is
//                        called. Deliberately forfeits wait-freedom for
//                        producers at the ceiling — same split as
//                        blocking_adapter documents for empty-queue waits;
//                        consumers and under-ceiling producers keep the
//                        wait-free step bound.
//   * overwrite_oldest — drop elements from the head until there is room
//                        (bounded-buffer telemetry semantics). If the queue
//                        is EMPTY and still over the ceiling (live bytes
//                        held by not-yet-reclaimed segments),
//                        it degrades to reject: the ceiling is never
//                        exceeded by design, even transiently.
//
// This is an adapter, not a re-implementation: the inner queue is the
// unmodified wf_queue (any variant) over segment_storage, so every
// linearizability and helping property is inherited.
#pragma once

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/wf_queue.hpp"
#include "storage/segment_storage.hpp"
#include "sync/cacheline.hpp"
#include "sync/thread_registry.hpp"
#include "sync/waiter_hub.hpp"

namespace kpq {

// Segment-storage variants of the paper's queues (same policy grid as the
// heap aliases in wf_queue.hpp).
template <typename T, typename R = hp_domain>
using wf_queue_base_seg =
    wf_queue<T, help_all, scan_max_phase, R, wf_options, segment_storage<T>>;
template <typename T, typename R = hp_domain>
using wf_queue_opt_seg =
    wf_queue<T, help_one, fetch_add_phase, R, wf_options, segment_storage<T>>;
template <typename T, typename R = hp_domain>
using wf_queue_fps_seg = wf_queue_fps<T, R, fps_options, segment_storage<T>>;

enum class full_policy : std::uint8_t { reject, block, overwrite_oldest };

struct bounded_config {
  /// Ceiling on the queue's total live bytes (segments + payload boxes +
  /// request records), as counted by its mem_counters. Must be at least
  /// floor_bytes() + headroom_bytes() or the queue can wedge with nothing
  /// in it (the constructor asserts it).
  std::size_t max_bytes;
  full_policy policy = full_policy::reject;
  /// block policy: waiters re-check at this interval even without a
  /// notification — reclaimer scans return segment memory asynchronously to
  /// any dequeue, so space can appear with nobody to signal it.
  std::chrono::milliseconds block_recheck{1};
};

/// Counters for the policy outcomes (exported via stats(); the obs registry
/// picks them up structurally).
struct bounded_counters {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t overwritten = 0;  // elements dropped by overwrite_oldest
  std::uint64_t block_waits = 0;  // times a producer actually slept
};

template <typename T, typename Inner = wf_queue_opt_seg<T>>
class bounded_wf_queue {
 public:
  using value_type = T;
  using inner_type = Inner;
  using storage_type = typename Inner::storage_type;

  bounded_wf_queue(std::uint32_t max_threads, bounded_config cfg)
      : cfg_(cfg), headroom_(headroom_bytes(max_threads)),
        q_(max_threads, &mc_) {
    // The ceiling must leave room for at least one admitted enqueue on top
    // of the steady-state floor, or the queue can wedge while empty.
    assert(cfg_.max_bytes >= floor_bytes(max_threads) + headroom_ &&
           "max_bytes below steady-state floor + admission headroom");
  }

  /// Steady-state floor: the construction footprint — the sentinel's
  /// storage allocation plus the request records, which are never freed
  /// and never grow (docs/MEMORY.md §4). Storage memory parked beyond the
  /// sentinel's (other threads' active segments, spare segments) is not
  /// included: size ceilings with a few segments above floor + headroom.
  static constexpr std::size_t floor_bytes(std::uint32_t max_threads) noexcept {
    return storage_type::max_alloc_bytes + Inner::records_bytes(max_threads);
  }

  /// Admission headroom: what the operations already past admission can
  /// still allocate — per thread one storage allocation plus one payload
  /// box (zero bytes for a T that rides inline).
  static constexpr std::size_t headroom_bytes(
      std::uint32_t max_threads) noexcept {
    return static_cast<std::size_t>(max_threads) *
           (storage_type::max_alloc_bytes + Inner::box_bytes);
  }

  bounded_wf_queue(const bounded_wf_queue&) = delete;
  bounded_wf_queue& operator=(const bounded_wf_queue&) = delete;

  // ---------------------------------------------------------------- enqueue

  /// Policy-aware admission. Returns false iff the element was NOT inserted:
  /// reject → ceiling reached; block → queue closed (after waiting);
  /// overwrite_oldest → ceiling reached with nothing left to drop.
  bool try_enqueue(T value, std::uint32_t tid) {
    switch (cfg_.policy) {
      case full_policy::reject:
        if (!has_room()) {
          count(&bounded_counters::rejected, tid);
          return false;
        }
        break;
      case full_policy::block:
        if (!wait_for_room(tid)) {
          count(&bounded_counters::rejected, tid);
          return false;  // closed while waiting
        }
        break;
      case full_policy::overwrite_oldest:
        while (!has_room()) {
          if (!q_.dequeue(tid).has_value()) {
            // Empty yet over the ceiling: the remaining live bytes are
            // segments awaiting reclamation. Never exceed the
            // ceiling — degrade to reject.
            count(&bounded_counters::rejected, tid);
            return false;
          }
          count(&bounded_counters::overwritten, tid);
        }
        break;
    }
    q_.enqueue(std::move(value), tid);
    count(&bounded_counters::admitted, tid);
    return true;
  }
  bool try_enqueue(T value) {
    return try_enqueue(std::move(value), this_thread_id());
  }

  /// mpmc_queue-compatible enqueue: applies the policy and discards the
  /// admission result. Use try_enqueue when rejection must be observed.
  void enqueue(T value, std::uint32_t tid) {
    (void)try_enqueue(std::move(value), tid);
  }
  void enqueue(T value) { enqueue(std::move(value), this_thread_id()); }

  // ---------------------------------------------------------------- dequeue

  std::optional<T> dequeue(std::uint32_t tid) {
    std::optional<T> v = q_.dequeue(tid);
    if (cfg_.policy == full_policy::block && v.has_value() &&
        hub_.maybe_waiters()) {
      // A dequeue frees at least one cell's worth of budget eventually;
      // wake one producer to re-check. The hub's seq_cst waiter count pairs
      // with the waiter's enlist-then-recheck, exactly as in
      // blocking_adapter.
      hub_.notify_one();
    }
    return v;
  }
  std::optional<T> dequeue() { return dequeue(this_thread_id()); }

  // ------------------------------------------------------------- lifecycle

  /// Unblocks every waiting producer (they return false). Consumers can
  /// keep draining; further try_enqueues fail under the block policy.
  void close() {
    auto lk = hub_.lock();  // orders the store against parked producers
    closed_.store(true, std::memory_order_seq_cst);
    hub_.notify_all(std::move(lk));
  }
  /// Lock-free on purpose: async::room_step re-checks this while already
  /// holding the room hub's lock — a locking read would self-deadlock.
  bool closed() const noexcept {
    return closed_.load(std::memory_order_seq_cst);
  }

  // -------------------------------------------------------- async admission

  /// One admission poll, no waiting, no policy dispatch: insert iff there is
  /// room right now. The async co_enqueue building block — a false return is
  /// backpressure to suspend on, not an outcome, so nothing is counted as
  /// rejected here.
  bool try_enqueue_nowait(T value, std::uint32_t tid) {
    if (!has_room()) return false;
    q_.enqueue(std::move(value), tid);
    count(&bounded_counters::admitted, tid);
    return true;
  }

  /// Room waiters' hub: dequeues notify it, close() broadcasts it, and the
  /// async layer enlists coroutine continuations on it for backpressure.
  waiter_hub& room_hub() noexcept { return hub_; }
  const waiter_hub& room_hub() const noexcept { return hub_; }

  /// Admission predicate, for waiters re-checking under the hub lock. A
  /// hint, like empty_hint: exact at the instant of the counter read.
  bool has_room_hint() const noexcept { return has_room(); }

  /// The block policy's liveness backstop (see wait_for_room): room waiters
  /// must re-poll at this interval even without a notification.
  std::chrono::milliseconds room_recheck_interval() const noexcept {
    return cfg_.block_recheck;
  }

  // ---------------------------------------------------------- observability

  std::uint32_t max_threads() const noexcept { return q_.max_threads(); }
  bool empty_hint(std::uint32_t tid) { return q_.empty_hint(tid); }
  bool empty_hint() { return q_.empty_hint(); }
  std::size_t unsafe_size() const { return q_.unsafe_size(); }
  std::size_t max_bytes() const noexcept { return cfg_.max_bytes; }
  full_policy policy() const noexcept { return cfg_.policy; }
  std::int64_t live_bytes() const noexcept { return mc_.live_bytes(); }
  const mem_counters& memory() const noexcept { return mc_; }
  inner_type& inner() noexcept { return q_; }
  storage_type& storage() noexcept { return q_.storage(); }
  segment_pool_stats pool_stats() const noexcept {
    return q_.storage().pool_stats();
  }

  bounded_counters stats() const {
    const auto read = [](const std::uint64_t& f) {
      return std::atomic_ref<const std::uint64_t>(f).load(
          std::memory_order_relaxed);
    };
    bounded_counters total;
    for (std::uint32_t i = 0; i < q_.max_threads(); ++i) {
      const bounded_counters& c = counters_[i].get();
      total.admitted += read(c.admitted);
      total.rejected += read(c.rejected);
      total.overwritten += read(c.overwritten);
      total.block_waits += read(c.block_waits);
    }
    return total;
  }

 private:
  bool has_room() const noexcept {
    return mc_.live_bytes() + static_cast<std::int64_t>(headroom_) <=
           static_cast<std::int64_t>(cfg_.max_bytes);
  }

  /// Block-policy wait: returns true when there is room, false when the
  /// queue was closed. Timed re-check because reclamation can free segments
  /// with no dequeue (hence no notify) accompanying it — the timeout is the
  /// liveness backstop for that enqueue-without-notify case, regression-
  /// tested by tests/storage_bounded_wakeup_test.cpp.
  bool wait_for_room(std::uint32_t tid) {
    if (has_room()) return true;  // fast path, no lock
    // kpq-block: the block admission policy is a documented blocking API
    // (like blocking_adapter) — the queue operation itself stays wait-free,
    // only admission under memory pressure waits
    thread_parker p;
    p.set_trace_tid(tid);  // hub events go to the same ring as the queue ops
    auto lk = hub_.lock();
    hub_.enlist(p, lk);
    count(&bounded_counters::block_waits, tid);
    bool room;
    // kpq-bound: blocking by documented contract (block admission policy);
    // each retry follows a notify or the block_recheck liveness timeout
    for (;;) {
      // Re-check after enlisting: a dequeue that saw no waiters must have
      // completed before our seq_cst enlist, so its space is visible here.
      room = has_room();
      if (room || closed_.load(std::memory_order_seq_cst)) break;
      // kpq-block: sanctioned bounded wait (see kpq-bound above)
      (void)p.park_for(hub_, lk, cfg_.block_recheck);
    }
    hub_.delist(p, lk);
    return room;
  }

  // Owner-thread-only slots, but stats() polls them live (the wakeup tests
  // spin on block_waits while producers park) — atomic_ref keeps the
  // single-writer increment a plain load+store while making the cross-
  // thread read well-defined.
  void count(std::uint64_t bounded_counters::* field, std::uint32_t tid) {
    std::atomic_ref<std::uint64_t> ref(counters_[tid].get().*field);
    ref.store(ref.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
  }

  bounded_config cfg_;
  std::size_t headroom_;
  mem_counters mc_;  // before q_: the inner queue's ctor attaches to it
  Inner q_;
  std::vector<padded<bounded_counters>> counters_{q_.max_threads()};

  waiter_hub hub_;
  // Written under the hub lock (close <-> park ordering), read lock-free
  // so the async room_step can poll it while holding the hub lock itself.
  std::atomic<bool> closed_{false};
};

}  // namespace kpq
