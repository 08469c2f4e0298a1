// sharded_queue<Q, Policy> — the scaling front-end over S independent
// inner MPMC queues (default: the KP wait-free queue, untouched).
//
// Why: every operation on one KP queue is a rendezvous with every other
// thread — phase scans, the help() traversal, head/tail CAS contention all
// grow with the thread count on THAT queue. The literature's answer
// (No Cords Attached; wCQ; every production stream partitioner) is
// coordination REDUCTION: split traffic across independent lanes so the
// per-lane thread count, and with it the helping bound, shrinks by S. This
// class is that split, as a front-end satisfying the same mpmc_queue
// concept as the queues it wraps, so harness/bench/adapter code is reusable
// unchanged.
//
// Semantics (the "relaxed cross-shard ordering contract", documented in
// docs/ALGORITHM.md §6):
//   * Each shard is a linearizable FIFO (it IS an inner queue).
//   * Items that route to the same shard keep their FIFO order. With the
//     affinity policy that covers per-producer order; with key-hash,
//     per-key order. Round-robin promises no order at all.
//   * Cross-shard order is unspecified — the price of independence.
//   * dequeue() returning nullopt means: every shard, at the moment the
//     scan visited it, was observed empty by a linearizable inner dequeue.
//     There is no single instant at which the WHOLE structure was empty
//     (tested: per-shard empty honesty still holds, see
//     scale_random_schedule_test).
//
// Progress: enqueue is one policy call + one inner enqueue. dequeue is at
// most S inner dequeues (the cyclic scan visits each shard once) — a
// constant for a given configuration — so the front-end is wait-free
// whenever the inner queue is, with the helping bound divided by the number
// of shards traffic actually spreads over.
//
// Dequeue scan = work stealing: the scan starts at home_shard(tid) and
// continues over every pool slot. A consumer prefers its own lane (cheap,
// uncontended) and falls back to draining peers' lanes when its own runs
// dry, so no item is ever stranded behind an idle consumer. The
// stolen/dequeued ratio is exported per shard (scale_counters.hpp) — the
// fig_sharding bench prints it.
//
// Elasticity (scale/adaptive.hpp + scale/tuner.hpp, ALGORITHM.md §9): the
// constructed shard count is a fixed-capacity POOL. An epoch-stamped scan
// table — published by a single tuner thread, loaded once per operation —
// says which pool slots are ACTIVE (receive enqueues) and in what order the
// dequeue scan visits the pool. Growing/shrinking the active set and
// reordering the steal scan are one pointer publish each; shards are never
// constructed or destroyed after the pool is built, so in-flight operations
// keep their constant step bound, and deactivated shards keep being scanned
// until drained (no item is ever lost to a reshard). With the default
// identity table the routing degenerates to exactly the static behaviour.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/queue_concepts.hpp"
#include "harness/mem_tracker.hpp"
#include "obs/trace_ring.hpp"
#include "scale/adaptive.hpp"
#include "scale/batch.hpp"
#include "scale/scale_counters.hpp"
#include "scale/shard_policy.hpp"
#include "sync/cacheline.hpp"
#include "sync/thread_registry.hpp"

namespace kpq {

template <typename Q, typename Policy = affinity_shards>
  requires mpmc_queue<Q>
class sharded_queue : public mem_tracked {
 public:
  using value_type = typename Q::value_type;
  using inner_type = Q;
  using policy_type = Policy;

  /// `max_threads` has the inner queues' meaning (bound on distinct dense
  /// thread ids): every thread may steal from every shard, so each inner
  /// queue must be built for the full thread count. Pass `mc` to account
  /// inner allocations from construction, exactly like wf_queue.
  sharded_queue(std::uint32_t shard_count, std::uint32_t max_threads,
                mem_counters* mc = nullptr)
      : nshards_(shard_count),
        n_(max_threads),
        policy_(shard_count),
        elastic_(shard_count),
        counters_(shard_count) {
    assert(shard_count >= 1);
    set_memory_counters(mc);
    shards_.reserve(nshards_);
    for (std::uint32_t s = 0; s < nshards_; ++s) {
      if constexpr (std::is_constructible_v<Q, std::uint32_t, mem_counters*>) {
        shards_.push_back(std::make_unique<Q>(max_threads, mc));
      } else {
        shards_.push_back(std::make_unique<Q>(max_threads));
      }
    }
  }

  /// Factory construction, for inner queues whose constructor needs more
  /// than (max_threads, mc) — the motivating case is bounded shards:
  ///
  ///   sharded_queue<bounded_wf_queue<T>> q(S, n,
  ///       [&](std::uint32_t s) {
  ///         return std::make_unique<bounded_wf_queue<T>>(n, cfg);
  ///       });
  ///
  /// Composing the front-end over bounded shards gives a sharded structure
  /// whose TOTAL memory is capped at S * cfg.max_bytes, with per-shard
  /// admission (a shard at its ceiling rejects/blocks independently; the
  /// work-stealing dequeue scan is unaffected).
  template <typename Factory>
    requires std::is_invocable_r_v<std::unique_ptr<Q>, Factory, std::uint32_t>
  sharded_queue(std::uint32_t shard_count, std::uint32_t max_threads,
                Factory&& make_shard)
      : nshards_(shard_count),
        n_(max_threads),
        policy_(shard_count),
        elastic_(shard_count),
        counters_(shard_count) {
    assert(shard_count >= 1);
    shards_.reserve(nshards_);
    for (std::uint32_t s = 0; s < nshards_; ++s) {
      shards_.push_back(make_shard(s));
      assert(shards_.back() != nullptr);
    }
  }

  sharded_queue(const sharded_queue&) = delete;
  sharded_queue& operator=(const sharded_queue&) = delete;

  // ------------------------------------------------------------------ single

  void enqueue(value_type v, std::uint32_t tid) {
    check_tid(tid);
    const scan_table* t = elastic_.table();
    const std::uint32_t s = route_enqueue(t, policy_.enqueue_shard(tid, v));
    shards_[s]->enqueue(std::move(v), tid);
    counters_[s]->on_enqueue();
  }
  void enqueue(value_type v) { enqueue(std::move(v), this_thread_id()); }

  /// Work-stealing scan: the caller's home shard first, then every pool
  /// slot in the published scan order (active shards best-first, then the
  /// deactivated tail so a reshard never strands items). At most one inner
  /// dequeue per pool slot per call, hence wait-free (see file comment).
  std::optional<value_type> dequeue(std::uint32_t tid) {
    check_tid(tid);
    const scan_table* t = elastic_.table();
    const std::uint32_t home = route_home(t, tid);
    for (std::uint32_t k = 0; k <= nshards_; ++k) {
      const std::uint32_t s = k == 0 ? home : t->order[k - 1];
      if (k != 0 && s == home) continue;  // already visited first
      if (auto v = shards_[s]->dequeue(tid)) {
        counters_[s]->on_dequeue(/*stolen=*/s != home);
        if constexpr (obs::default_trace::enabled) {
          if (s != home) {
            obs::default_trace::record(tid, obs::trace_kind::shard_steal, 0,
                                       s);
          }
        }
        return v;
      }
    }
    counters_[home]->on_empty_scan();
    if constexpr (obs::default_trace::enabled) {
      obs::default_trace::record(tid, obs::trace_kind::shard_empty, 0, home);
    }
    return std::nullopt;
  }
  std::optional<value_type> dequeue() { return dequeue(this_thread_id()); }

  // ------------------------------------------------------------------- bulk

  /// A batch routes as one unit (shard chosen from its first item), so a
  /// producer's batch stays contiguous — and FIFO — inside one shard, and
  /// the inner queue's batched fast path (wf_queue::enqueue_bulk:
  /// one reclamation guard + one phase draw for the whole batch) amortizes
  /// across all of it. Falls back to per-item inner ops automatically when
  /// the inner queue has no native bulk hook (kpq::enqueue_bulk dispatch).
  template <typename It>
  void enqueue_bulk(It first, It last, std::uint32_t tid) {
    check_tid(tid);
    if (first == last) return;
    const scan_table* t = elastic_.table();
    const std::uint32_t s =
        route_enqueue(t, policy_.enqueue_shard(tid, *first));
    const auto n = static_cast<std::uint64_t>(std::distance(first, last));
    kpq::enqueue_bulk(*shards_[s], first, last, tid);
    counters_[s]->on_enqueue(n);
    counters_[s]->on_batch(n);
  }

  /// Work-stealing bulk pop: drains up to `max` items, preferring the home
  /// shard and continuing across the published scan order until `max` is
  /// met or every pool slot reported empty. Appends to `out`, returns items
  /// moved.
  std::size_t dequeue_bulk(std::vector<value_type>& out, std::size_t max,
                           std::uint32_t tid) {
    check_tid(tid);
    const scan_table* t = elastic_.table();
    const std::uint32_t home = route_home(t, tid);
    std::size_t got = 0;
    for (std::uint32_t k = 0; k <= nshards_ && got < max; ++k) {
      const std::uint32_t s = k == 0 ? home : t->order[k - 1];
      if (k != 0 && s == home) continue;  // already visited first
      const std::size_t from_shard =
          kpq::dequeue_bulk(*shards_[s], out, max - got, tid);
      if (from_shard > 0) {
        counters_[s]->on_dequeue(/*stolen=*/s != home, from_shard);
        counters_[s]->on_batch(from_shard);
        got += from_shard;
        if constexpr (obs::default_trace::enabled) {
          if (s != home) {
            obs::default_trace::record(tid, obs::trace_kind::shard_steal, 0,
                                       s);
          }
        }
      }
    }
    if (got == 0) {
      counters_[home]->on_empty_scan();
      if constexpr (obs::default_trace::enabled) {
        obs::default_trace::record(tid, obs::trace_kind::shard_empty, 0,
                                   home);
      }
    }
    return got;
  }

  // -------------------------------------------------------------- elasticity
  // Single-mutator contract (the tuner thread); see adaptive.hpp.

  /// The fixed pool size ops are bounded by; == shard_count().
  std::uint32_t shard_capacity() const noexcept { return nshards_; }
  /// Shards currently receiving enqueues.
  std::uint32_t active_shards() const noexcept {
    return elastic_.table()->active_count;
  }
  /// Monotone table version; bumps on every grow/shrink/reorder.
  std::uint64_t scan_epoch() const noexcept {
    return elastic_.table()->epoch;
  }
  /// Bit s set iff pool slot s is active (slots >= 64 not represented).
  std::uint64_t active_mask() const noexcept {
    return elastic_.table()->active_mask();
  }
  const scan_table& current_table() const noexcept {
    return *elastic_.table();
  }
  /// Install a new active set / scan order (tuner thread only).
  std::uint64_t publish_table(std::uint32_t active_count,
                              std::vector<std::uint32_t> order) {
    return elastic_.publish(active_count, std::move(order));
  }
  /// Grow/shrink keeping the current scan order (tuner thread only).
  std::uint64_t set_active_shards(std::uint32_t active_count) {
    return elastic_.set_active_count(active_count);
  }

  // ---------------------------------------------------------- observability

  std::uint32_t shard_count() const noexcept { return nshards_; }
  std::uint32_t max_threads() const noexcept { return n_; }
  Q& shard(std::uint32_t s) noexcept { return *shards_[s]; }
  const Q& shard(std::uint32_t s) const noexcept { return *shards_[s]; }
  policy_type& policy() noexcept { return policy_; }

  shard_stats shard_counters_snapshot(std::uint32_t s) const {
    return counters_[s]->snapshot();
  }
  shard_stats aggregate_counters() const { return aggregate(counters_); }

  /// True if every shard looked empty at some point during the call (the
  /// relaxed emptiness the dequeue scan acts on; see file comment).
  bool empty_hint(std::uint32_t tid) {
    check_tid(tid);
    for (std::uint32_t s = 0; s < nshards_; ++s) {
      if (!shards_[s]->empty_hint(tid)) return false;
    }
    return true;
  }
  bool empty_hint() { return empty_hint(this_thread_id()); }

  /// Test-only, requires quiescence (inner contract).
  std::size_t unsafe_size() const {
    std::size_t n = 0;
    for (std::uint32_t s = 0; s < nshards_; ++s) n += shards_[s]->unsafe_size();
    return n;
  }

 private:
  /// Throw before any routing: a policy such as round_robin advances its
  /// cursor on every call, so a bad id must not reach it (nor index past
  /// the inner queues' per-thread arrays in a release build).
  void check_tid(std::uint32_t tid) const {
    if (tid >= n_) [[unlikely]] {
      detail::throw_tid_out_of_range("kpq::sharded_queue", tid, n_);
    }
  }

  /// Map a policy verdict (in [0, capacity)) onto the active set of the
  /// loaded table. Identity when all shards are active, so the static
  /// configuration routes exactly as before elasticity existed.
  static std::uint32_t route_enqueue(const scan_table* t,
                                     std::uint32_t policy_shard) noexcept {
    return t->order[policy_shard % t->active_count];
  }
  /// A consumer's scan starts where the matching producer enqueues, so the
  /// affinity pairing (and its near-zero steal rate) survives resharding.
  std::uint32_t route_home(const scan_table* t,
                           std::uint32_t tid) const noexcept {
    return t->order[policy_.home_shard(tid) % t->active_count];
  }

  const std::uint32_t nshards_;
  const std::uint32_t n_;
  Policy policy_;
  elastic_control elastic_;
  std::vector<std::unique_ptr<Q>> shards_;
  std::vector<padded<shard_counters>> counters_;
};

}  // namespace kpq
