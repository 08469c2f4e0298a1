// Shared white-box driver for the KP queue tests (scenario replays,
// interleaving exploration, structural audits). kpq::testing::whitebox is
// declared as a friend by wf_queue; this header provides its one definition
// for test targets. Include it from at most one .cpp per binary.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/wf_queue.hpp"
#include "verify/queue_auditor.hpp"

namespace kpq::testing {

/// A request record decoded: the paper's descriptor fields, plus what the
/// record adds (the sequence-carrying ctl, and the value of a completed
/// dequeue in place of its node).
template <typename Q>
struct request_view {
  std::uint64_t ctl = 0;
  std::uint64_t word = 0;
  std::int64_t phase = no_phase;
  bool pending = false;
  bool enqueue = false;
  bool has_value = false;
  /// The record's node: an enqueue's, or a pending dequeue's stage-0
  /// sentinel; null once a dequeue completed (its word is then the value).
  typename Q::node_type* node = nullptr;
  /// A completed dequeue's value (inline `T` only).
  typename Q::value_type value{};
};

struct whitebox {
  template <typename Q>
  using snapshot = typename Q::snapshot;
  template <typename Q>
  static typename Q::node_type* node_at(std::uint64_t word) {
    return Q::template from_word<typename Q::node_type*>(word);
  }
  template <typename Q>
  static typename Q::value_type value_at(std::uint64_t word) {
    return Q::template from_word<typename Q::value_type>(word);
  }

  template <typename Q>
  static typename Q::node_type* head(Q& q) {
    return q.head_.load();
  }
  template <typename Q>
  static typename Q::node_type* tail(Q& q) {
    return q.tail_.load();
  }
  /// `tid`'s record, read as the queue reads it (ctl, then word).
  template <typename Q>
  static snapshot<Q> read(Q& q, std::uint32_t tid) {
    return q.read_req(tid);
  }
  template <typename Q>
  static request_view<Q> state(Q& q, std::uint32_t i) {
    static_assert(inline_value<typename Q::value_type>);
    const snapshot<Q> s = q.read_req(i);
    request_view<Q> v;
    v.ctl = s.ctl;
    v.word = s.word;
    v.phase = q.phase_of(i);
    v.pending = (s.ctl & req::pending) != 0;
    v.enqueue = (s.ctl & req::enqueue) != 0;
    v.has_value = (s.ctl & req::has_value) != 0;
    if (v.has_value) {
      v.value = value_at<Q>(s.word);
    } else if (v.enqueue || v.pending) {
      v.node = node_at<Q>(s.word);
    }
    return v;
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
  /// Move `tid`'s record to a new state as its owner would publish it (a
  /// new sequence number). Unlike the queue's own publish, the record may
  /// be pending: the scenario tests also replay stage 0 this way. Requires
  /// no concurrent operation on that record.
  template <typename Q>
  static void publish(Q& q, std::uint32_t tid, std::int64_t phase,
                      bool pending, bool enq, typename Q::node_type* node) {
    request& r = q.reqs_[tid].get();
    const snapshot<Q> s = q.read_req(tid);
    r.phase.store(phase);
    const std::uint64_t flags =
        (pending ? req::pending : 0) | (enq ? req::enqueue : 0);
    cas_request(r, s.ctl, s.word, req::next(s.ctl, flags), Q::word_of(node));
  }
  /// One helper transition of `tid`'s record from `s`, as help_deq makes it
  /// (stage 0 with a node, completed-empty with flags 0 and no node).
  template <typename Q>
  static bool move(Q& q, std::uint32_t tid, const snapshot<Q>& s,
                   std::uint64_t flags, typename Q::node_type* node,
                   std::uint32_t my) {
    return q.move_req(tid, s, flags, Q::word_of(node), my);
  }
  /// Step (1) of the pending enqueue `s` (read from `tid`'s record
  /// earlier): link its node after the current tail node, through the
  /// queue's own re-validation. True if it linked.
  template <typename Q>
  static bool link(Q& q, std::uint32_t tid, const snapshot<Q>& s,
                   std::uint32_t my) {
    auto g = q.reclaim_.enter(my);
    typename Q::node_type* last = g.protect(Q::s_last, q.tail_);
    return q.link_enq(tid, s, last, g, my);
  }
  /// A completed dequeue's outcome, read as its owner reads it.
  template <typename Q>
  static std::optional<typename Q::value_type> result(Q& q,
                                                      std::uint32_t tid) {
    const snapshot<Q> s = q.read_req(tid);
    if (!(s.ctl & req::has_value)) return std::nullopt;
    return value_at<Q>(s.word);
  }
  /// Step (1) alone of `tid`'s pending enqueue: link its node after the
  /// current tail node and stop, leaving the tail behind — an owner stalled
  /// right after its linearizing CAS. Requires no concurrent operation.
  template <typename Q>
  static void link_pending_node(Q& q, std::uint32_t tid) {
    typename Q::node_type* expected = nullptr;
    q.tail_.load()->next.compare_exchange_strong(
        expected, node_at<Q>(q.read_req(tid).word));
  }
  /// Stage 1 alone of `tid`'s pending dequeue: claim the current sentinel's
  /// deqTid for `tid` and stop, before the record or head are updated —
  /// a dequeuer stalled right after its linearizing CAS. `tid`'s record
  /// must already point at that sentinel. Requires no concurrent operation.
  template <typename Q>
  static void claim_head(Q& q, std::uint32_t tid) {
    std::int32_t expected = no_tid;
    q.head_.load()->deq_tid.compare_exchange_strong(
        expected, static_cast<std::int32_t>(tid));
  }
  /// Is `tid`'s current operation pending? Safe while peers complete it:
  /// records are never freed. `my` is kept for the callers' symmetry.
  template <typename Q>
  static bool pending(Q& q, std::uint32_t tid, std::uint32_t /*my*/) {
    return (q.ctl_of(tid) & req::pending) != 0;
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
  static audit_view<typename Q::node_type> view(Q& q) {
    audit_view<typename Q::node_type> v;
    v.head = q.head_.load();
    v.tail = q.tail_.load();
    v.max_threads = q.max_threads();
    for (std::uint32_t i = 0; i < q.max_threads(); ++i) {
      v.pending.push_back((q.ctl_of(i) & req::pending) != 0);
    }
    return v;
  }
};

}  // namespace kpq::testing
