// Default node storage: one heap allocation and one reclaimer retirement per
// node — the exact behavior wf_queue had before the storage
// layer existed, factored behind the node_storage_for interface
// (storage_concepts.hpp) so segment_storage can replace it without touching
// the queue algorithm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/node.hpp"
#include "harness/mem_tracker.hpp"

namespace kpq {

template <typename T, typename Node = wf_node<T>>
class heap_node_storage {
 public:
  using value_type = T;
  using node_type = Node;

  /// One alloc() call performs at most one node-sized heap allocation.
  static constexpr std::size_t max_alloc_bytes = sizeof(node_type);

  heap_node_storage(std::uint32_t /*max_threads*/, const mem_tracked* acct)
      : acct_(acct) {}

  heap_node_storage(const heap_node_storage&) = delete;
  heap_node_storage& operator=(const heap_node_storage&) = delete;

  template <typename R>
  node_type* alloc(std::uint32_t /*tid*/, typename node_type::slot_type v,
                   std::int32_t etid, R& /*reclaim*/) {
    acct_->account_alloc(sizeof(node_type));
    return new node_type(v, etid);
  }

  /// Unlinked but possibly still referenced: per-node retirement, the
  /// reclaimer frees it once no guard can reach it.
  template <typename R>
  void retire(std::uint32_t tid, node_type* n, R& reclaim) {
    reclaim.retire(tid, n, &retire_node_fn, acct_->memory_counters());
  }

  /// Quiescent free (container destructor path).
  void release(node_type* n) noexcept {
    acct_->account_free(sizeof(node_type));
    delete n;
  }

 private:
  static void retire_node_fn(void* ctx, void* p) {
    if (ctx != nullptr) {
      static_cast<mem_counters*>(ctx)->on_free(sizeof(node_type));
    }
    delete static_cast<node_type*>(p);
  }

  const mem_tracked* acct_;  // the owning container's accounting sink
};

}  // namespace kpq
