// Shared white-box driver for the KP queue tests (scenario replays,
// interleaving exploration, structural audits). kpq::testing::whitebox is
// declared as a friend by wf_queue; this header provides its one definition
// for test targets. Include it from at most one .cpp per binary.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/wf_queue.hpp"
#include "verify/queue_auditor.hpp"

namespace kpq::testing {

struct whitebox {
  template <typename Q>
  static typename Q::node_type* head(Q& q) {
    return q.head_.load();
  }
  template <typename Q>
  static typename Q::node_type* tail(Q& q) {
    return q.tail_.load();
  }
  template <typename Q>
  static typename Q::desc_type* state(Q& q, std::uint32_t i) {
    return q.state_[i]->load();
  }
  template <typename Q>
  static typename Q::node_type* make_node(Q& q, std::uint64_t v,
                                          std::int32_t etid,
                                          std::uint32_t alloc_tid = 0) {
    return q.alloc_node(alloc_tid, v, etid);
  }
  /// The phase an operation by `tid` would draw now, from the queue's own
  /// PhasePolicy (max_phase + 1 for scan_max_phase, the shared counter's
  /// fetch-add for fetch_add_phase).
  template <typename Q>
  static std::int64_t next_phase(Q& q, std::uint32_t tid) {
    auto g = q.reclaim_.enter(tid);
    return q.phase_.next_phase(q, g, tid);
  }
  template <typename Q>
  static void publish(Q& q, std::uint32_t tid, std::int64_t phase,
                      bool pending, bool enq, typename Q::node_type* node) {
    q.publish(tid, q.pool_.make(tid, phase, pending, enq, node));
  }
  template <typename Q, typename... Args>
  static typename Q::desc_type* make_desc(Q& q, std::uint32_t my,
                                          Args&&... args) {
    return q.pool_.make(my, std::forward<Args>(args)...);
  }
  /// Step (1) alone of `tid`'s pending enqueue: link its node after the
  /// current tail node and stop, leaving the tail behind — an owner stalled
  /// right after its linearizing CAS. Requires no concurrent operation.
  template <typename Q>
  static void link_pending_node(Q& q, std::uint32_t tid) {
    typename Q::node_type* expected = nullptr;
    q.tail_.load()->next.compare_exchange_strong(expected,
                                                 q.state_[tid]->load()->node);
  }
  /// Stage 1 alone of `tid`'s pending dequeue: claim the current sentinel's
  /// deqTid for `tid` and stop, before the descriptor or head are updated —
  /// a dequeuer stalled right after its linearizing CAS. `tid`'s descriptor
  /// must already point at that sentinel. Requires no concurrent operation.
  template <typename Q>
  static void claim_head(Q& q, std::uint32_t tid) {
    std::int32_t expected = no_tid;
    q.head_.load()->deq_tid.compare_exchange_strong(
        expected, static_cast<std::int32_t>(tid));
  }
  /// Is `tid`'s current descriptor pending? Read under `my`'s guard, so it
  /// is safe while peers replace (and retire) that descriptor.
  template <typename Q>
  static bool pending(Q& q, std::uint32_t tid, std::uint32_t my) {
    auto g = q.reclaim_.enter(my);
    return q.is_still_pending(tid, INT64_MAX, g);
  }
  template <typename Q>
  static bool swap_state(Q& q, std::uint32_t tid, std::uint32_t my,
                         typename Q::desc_type* cur,
                         typename Q::desc_type* repl) {
    return q.swap_state(tid, my, cur, repl);
  }
  template <typename Q>
  static void help_finish_enq(Q& q, std::uint32_t my) {
    auto g = q.reclaim_.enter(my);
    q.help_finish_enq(my, g);
  }
  template <typename Q>
  static void help_finish_deq(Q& q, std::uint32_t my) {
    auto g = q.reclaim_.enter(my);
    q.help_finish_deq(my, g);
  }
  template <typename Q>
  static void help_enq(Q& q, std::uint32_t tid, std::int64_t ph,
                       std::uint32_t my) {
    auto g = q.reclaim_.enter(my);
    q.help_enq(tid, ph, g, my);
  }
  template <typename Q>
  static void help_deq(Q& q, std::uint32_t tid, std::int64_t ph,
                       std::uint32_t my) {
    auto g = q.reclaim_.enter(my);
    q.help_deq(tid, ph, g, my);
  }

  /// Snapshot for the structural auditor (quiescence required).
  template <typename Q>
  static audit_view<typename Q::node_type, typename Q::desc_type> view(Q& q) {
    audit_view<typename Q::node_type, typename Q::desc_type> v;
    v.head = q.head_.load();
    v.tail = q.tail_.load();
    v.max_threads = q.max_threads();
    for (std::uint32_t i = 0; i < q.max_threads(); ++i) {
      v.state.push_back(q.state_[i]->load());
    }
    return v;
  }
};

}  // namespace kpq::testing
