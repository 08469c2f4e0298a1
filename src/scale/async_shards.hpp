// async_sharded<Q, Policy>: the coroutine front-end over a set of shards —
// the scale layer's answer to "tens of thousands of suspended consumers
// over a handful of queues".
//
// Unlike sharded_queue (one queue object, internal steal scan), this is a
// composition of N independent async_mpmc shards: enqueues route by the
// same pluggable shard policies (scale/shard_policy.hpp — key_hash keeps
// per-key FIFO system-wide, the session-lane guarantee the broker example
// relies on), and consumers multiplex all shards with co_dequeue_any, which
// IS the steal scan in coroutine form. It runs co_select's loop
// (async/select.hpp) in one coroutine frame over the member shard list,
// with the ready-path scan starting at the shard after the one that served
// the previous call: a drain serves the shards in turn instead of probing
// the ones already run dry before every item. The rest of the select
// protocol (park, re-check, token re-gifting) is co_select's.
#pragma once

#if !defined(__cpp_impl_coroutine)
#error "kpq/async requires C++20 coroutines (gate targets on KPQ_HAS_COROUTINES)"
#endif

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <stop_token>
#include <utility>
#include <vector>

#include "async/async_queue.hpp"
#include "async/select.hpp"
#include "async/task.hpp"
#include "scale/shard_policy.hpp"
#include "sync/thread_registry.hpp"

namespace kpq::async {

template <typename Q, typename Policy = kpq::affinity_shards>
class async_sharded {
 public:
  using value_type = typename Q::value_type;
  using shard_type = async_mpmc<Q>;
  using policy_type = Policy;

  /// Each shard's inner queue is constructed from the same `args` (they are
  /// reused, not forwarded — pass copyable configuration).
  template <typename... Args>
  explicit async_sharded(std::uint32_t shard_count, Args&&... args)
      : policy_(shard_count) {
    assert(shard_count > 0);
    shards_.reserve(shard_count);
    for (std::uint32_t i = 0; i < shard_count; ++i) {
      shards_.push_back(std::make_unique<shard_type>(args...));
    }
    ptrs_.reserve(shard_count);
    for (auto& s : shards_) ptrs_.push_back(s.get());
  }

  void set_executor(event_loop* loop) noexcept {
    for (auto& s : shards_) s->set_executor(loop);
  }

  std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  shard_type& shard(std::size_t i) noexcept { return *shards_[i]; }
  const std::vector<shard_type*>& shard_ptrs() const noexcept {
    return ptrs_;
  }

  /// Route by policy and enqueue synchronously (wait-free per shard).
  void enqueue(value_type v, std::uint32_t tid) {
    const std::uint32_t s = policy_.enqueue_shard(tid, v) % shard_count();
    shards_[s]->enqueue(std::move(v), tid);
  }
  void enqueue(value_type v) { enqueue(std::move(v), this_thread_id()); }

  /// Route by policy and await admission (bounded shards backpressure).
  /// The shard is chosen when co_enqueue is called, not when the returned
  /// task is awaited: the task is the shard's own co_enqueue.
  task<bool> co_enqueue(value_type v) {
    const std::uint32_t s =
        policy_.enqueue_shard(this_thread_id(), v) % shard_count();
    return shards_[s]->co_enqueue(std::move(v));
  }

  /// Await an element from ANY shard (co_select multiplex, rotating start;
  /// see the header comment). index in the result names the serving shard.
  /// The task refers to this object's shard list: await it while this
  /// async_sharded lives.
  task<select_result<value_type>> co_dequeue_any(std::stop_token st = {}) {
    return detail::select_loop<Q, const std::vector<shard_type*>&>(
        ptrs_, std::move(st), &next_start_);
  }

  std::optional<value_type> try_dequeue(std::uint32_t tid) {
    const std::uint32_t home = policy_.home_shard(tid) % shard_count();
    for (std::uint32_t k = 0; k < shard_count(); ++k) {
      if (auto v = shards_[(home + k) % shard_count()]->try_dequeue(tid)) {
        return v;
      }
    }
    return std::nullopt;
  }

  /// Close every shard: parked consumers drain, then complete empty.
  void close_all() {
    for (auto& s : shards_) s->close();
  }

 private:
  Policy policy_;
  std::vector<std::unique_ptr<shard_type>> shards_;
  std::vector<shard_type*> ptrs_;
  // Where co_dequeue_any's next ready-path scan starts (a hint).
  std::atomic<std::uint32_t> next_start_{0};
};

}  // namespace kpq::async
