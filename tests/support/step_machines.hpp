// Step machines: the KP queue's operations re-expressed as explicit
// sequences of primitive atomic actions (publish / link CAS / finish-enq /
// stage-0 CAS / deqTid claim / finish-deq), advanced one action per step()
// call from a single OS thread. A scheduler that picks which machine steps
// next has total control over the interleaving — the exhaustive explorer
// (core_interleave_test) enumerates all schedules, the fuzzer
// (core_random_schedule_test) samples long random ones.
//
// Two families: the announce-and-help operation every queue runs (slow
// path), and the Michael–Scott fast path of a queue built with a fast path
// (wf_queue_fps). Mixing them in one schedule drives the cross-path races:
// fast vs slow deqTid claims on one sentinel, anonymous vs announced links,
// and helpers finishing the other path's steps.
//
// Soundness: every step is a sequence of the same atomics the real
// algorithm performs, executed without interleaving inside one step. The
// schedules explored are therefore a subset of real executions (coarser
// granularity can only hide bugs, never invent them), so any violation
// found here is a real algorithm bug.
//
// The machines are templates over the queue type so the same driver checks
// every storage/reclaimer variant (notably segment_storage, see
// core_random_schedule_test). Machines hold raw node pointers ACROSS steps
// without a hazard guard, so the queue's reclaimer must not free memory
// mid-run: hp_domain qualifies in practice (its scan threshold exceeds any
// test's retirement count), and segment variants must use leaky_domain —
// segment retirement scans eagerly and would otherwise recycle a segment a
// machine still points into. (The real-thread stress tests cover eager
// segment reclamation; here the subject is the interleaving space.)
//
// The elastic replay section at the bottom mirrors sharded_queue's
// table-routed operations over step-machine shards, so scan-table publishes
// (grow / shrink / reorder) can be injected at arbitrary schedule points and
// the resulting mixed-table interleavings checked for lost/duplicated items
// (scale_adaptive_test).
//
// Requires tests/support/whitebox.hpp in the same translation unit.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/wf_queue.hpp"
#include "scale/adaptive.hpp"
#include "support/whitebox.hpp"
#include "verify/history.hpp"

namespace kpq::testing {

using sm_queue = wf_queue_base<std::uint64_t>;
using sm_node = sm_queue::node_type;

/// One logical operation advanced one primitive action per step() call.
template <typename Q>
class basic_machine {
 public:
  virtual ~basic_machine() = default;
  virtual bool step(Q& q) = 0;  // true once the operation completed
  bool done = false;
  std::uint64_t inv = 0, res = 0;  // step indexes for history checking
  std::optional<std::uint64_t> result;  // dequeues: the outcome
};

template <typename Q>
class basic_enq_machine : public basic_machine<Q> {
  using node_t = typename Q::node_type;

 public:
  basic_enq_machine(std::uint32_t tid, std::uint64_t value)
      : tid_(tid), value_(value) {}

  bool step(Q& q) override {
    using wb = whitebox;
    switch (pc_) {
      case 0: {  // publish (paper lines 62-63)
        const std::int64_t phase = wb::next_phase(q, tid_);
        node_t* n =
            wb::make_node(q, value_, static_cast<std::int32_t>(tid_), tid_);
        wb::publish(q, tid_, phase, true, true, n);
        pc_ = 1;
        return false;
      }
      case 1: {  // one iteration of the link loop (lines 68-82)
        const auto s = wb::read(q, tid_);
        if (!(s.ctl & req::pending)) {
          pc_ = 2;
          return false;
        }
        node_t* last = wb::tail(q);
        node_t* next = last->next.load();
        if (next == nullptr) {
          wb::link(q, tid_, s, tid_);  // line 74, re-validated as help_enq
        } else {
          wb::help_finish_enq(q, tid_);  // line 80
        }
        return false;  // pending check routes us out next step
      }
      case 2: {  // finish (lines 65 / 75)
        wb::help_finish_enq(q, tid_);
        if (wb::pending(q, tid_, tid_)) {
          pc_ = 1;
          return false;
        }
        return true;
      }
    }
    return true;
  }

 private:
  std::uint32_t tid_;
  std::uint64_t value_;
  int pc_ = 0;
};

template <typename Q>
class basic_deq_machine : public basic_machine<Q> {
  using node_t = typename Q::node_type;

 public:
  explicit basic_deq_machine(std::uint32_t tid) : tid_(tid) {}

  bool step(Q& q) override {
    using wb = whitebox;
    switch (pc_) {
      case 0: {  // publish (lines 99-100)
        const std::int64_t phase = wb::next_phase(q, tid_);
        wb::publish(q, tid_, phase, true, false, nullptr);
        pc_ = 1;
        return false;
      }
      case 1: {  // one iteration of the help_deq loop (lines 110-138)
        const auto s = wb::read(q, tid_);
        if (!(s.ctl & req::pending)) {
          pc_ = 3;
          return false;
        }
        node_t* first = wb::head(q);
        node_t* last = wb::tail(q);
        node_t* next = first->next.load();
        if (first != wb::head(q)) return false;
        if (first == last) {
          if (next == nullptr) {  // empty (lines 116-121)
            wb::move(q, tid_, s, 0, static_cast<node_t*>(nullptr), tid_);
          } else {
            wb::help_finish_enq(q, tid_);  // line 123
          }
          return false;
        }
        if (s.word != reinterpret_cast<std::uintptr_t>(first)) {  // stage 0
          if (!wb::move(q, tid_, s, req::pending, first, tid_)) return false;
        }
        claimed_ = first;
        pc_ = 2;
        return false;
      }
      case 2: {  // stage 1: the deqTid claim (line 135)
        std::int32_t expected = no_tid;
        claimed_->deq_tid.compare_exchange_strong(
            expected, static_cast<std::int32_t>(tid_));
        pc_ = 21;
        return false;
      }
      case 21: {  // stages 2-3 (line 136)
        wb::help_finish_deq(q, tid_);
        pc_ = wb::pending(q, tid_, tid_) ? 1 : 3;
        return false;
      }
      case 3: {  // read the outcome (lines 102-107)
        wb::help_finish_deq(q, tid_);
        this->result = wb::result(q, tid_);
        return true;
      }
    }
    return true;
  }

 private:
  std::uint32_t tid_;
  node_t* claimed_ = nullptr;
  int pc_ = 0;
};

/// Fast-path enqueue: link an anonymous node (enq_tid == no_tid), then fix
/// the tail. No announce.
template <typename Q>
class fast_enq_machine : public basic_machine<Q> {
  using node_t = typename Q::node_type;

 public:
  fast_enq_machine(std::uint32_t tid, std::uint64_t value)
      : tid_(tid), value_(value) {}

  bool step(Q& q) override {
    using wb = whitebox;
    switch (pc_) {
      case 0: {  // allocate
        node_ = wb::make_node(q, value_, no_tid);
        pc_ = 1;
        return false;
      }
      case 1: {  // one link attempt
        node_t* last = wb::tail(q);
        node_t* next = last->next.load();
        if (next == nullptr) {
          node_t* expected = nullptr;
          if (last->next.compare_exchange_strong(expected, node_)) pc_ = 2;
        } else {
          wb::help_finish_enq(q, tid_);
        }
        return false;
      }
      case 2: {  // fix tail
        wb::help_finish_enq(q, tid_);
        return true;
      }
    }
    return true;
  }

 private:
  std::uint32_t tid_;
  std::uint64_t value_;
  node_t* node_ = nullptr;
  int pc_ = 0;
};

/// Fast-path dequeue: validate, read value, claim deqTid with the fast
/// marker, finish. Retries forever (the bounded-tries fallback is a
/// performance feature, not needed for these closed scenarios).
template <typename Q>
class fast_deq_machine : public basic_machine<Q> {
  using node_t = typename Q::node_type;

 public:
  explicit fast_deq_machine(std::uint32_t tid) : tid_(tid) {}

  bool step(Q& q) override {
    using wb = whitebox;
    switch (pc_) {
      case 0: {  // one observation + claim attempt
        node_t* first = wb::head(q);
        node_t* last = wb::tail(q);
        node_t* next = first->next.load();
        if (first != wb::head(q)) return false;
        if (first == last) {
          if (next == nullptr) return true;  // empty
          wb::help_finish_enq(q, tid_);
          return false;
        }
        value_ = next->value;
        std::int32_t expected = no_tid;
        if (first->deq_tid.compare_exchange_strong(
                expected,
                Q::fast_claim_base + static_cast<std::int32_t>(tid_))) {
          pc_ = 1;
        } else {
          wb::help_finish_deq(q, tid_);  // finish whoever claimed
        }
        return false;
      }
      case 1: {  // finish our own claim
        wb::help_finish_deq(q, tid_);
        this->result = value_;
        return true;
      }
    }
    return true;
  }

 private:
  std::uint32_t tid_;
  std::uint64_t value_ = 0;
  int pc_ = 0;
};

// Concrete types for the default queue, so existing tests keep their names.
using machine = basic_machine<sm_queue>;
using enq_machine = basic_enq_machine<sm_queue>;
using deq_machine = basic_deq_machine<sm_queue>;

struct op_spec {
  bool is_enq;
  std::uint32_t tid;
  std::uint64_t value;  // enq only
  bool fast = false;    // fast-path machine (queues with a fast path only)
};

template <typename Q>
std::unique_ptr<basic_machine<Q>> build_machine_for(const op_spec& s) {
  if (s.fast) {
    if (s.is_enq) return std::make_unique<fast_enq_machine<Q>>(s.tid, s.value);
    return std::make_unique<fast_deq_machine<Q>>(s.tid);
  }
  if (s.is_enq) return std::make_unique<basic_enq_machine<Q>>(s.tid, s.value);
  return std::make_unique<basic_deq_machine<Q>>(s.tid);
}

// ----------------------------------------------------------- elastic replay
//
// sharded_queue's elastic routing replayed over step-machine shards, with
// the PRODUCTION table type (kpq::elastic_control / scan_table) as the
// routing source. The driving test publishes new tables between primitive
// steps; an operation snapshots the table pointer once at its start —
// exactly the one acquire load the real enqueue/dequeue performs — so a
// publish lands mid-operation for every op in flight, producing the
// mixed-table executions the adaptation-safety argument is about.

/// Fixed pool of step-machine shards plus the production table publisher.
/// History is recorded per POOL SLOT (like scale_random_schedule_test), so
/// per-shard FIFO/lin checking is oblivious to which table routed each op.
struct elastic_shard_set {
  elastic_control control;
  std::vector<std::unique_ptr<sm_queue>> shards;
  std::vector<std::vector<op_event>> history;

  elastic_shard_set(std::uint32_t capacity, std::uint32_t threads)
      : control(capacity), history(capacity) {
    for (std::uint32_t i = 0; i < capacity; ++i) {
      shards.push_back(std::make_unique<sm_queue>(threads));
    }
  }
  std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(shards.size());
  }
};

/// One elastically-routed sharded operation, one primitive step per step()
/// call. Mirrors sharded_queue::enqueue / ::dequeue with the affinity
/// policy (policy shard = tid % capacity) routed through the scan table
/// held since the operation started.
class elastic_sharded_op {
 public:
  elastic_sharded_op(std::uint32_t tid, bool is_enq, std::uint64_t value,
                     elastic_shard_set& set)
      : tid_(tid), is_enq_(is_enq), value_(value), table_(set.control.table()) {
    const std::uint32_t policy_shard = tid_ % set.capacity();
    home_ = table_->order[policy_shard % table_->active_count];
    cur_ = home_;
    start_inner();
  }

  /// True once the sharded operation completed. `k_` walks the snapshot's
  /// scan positions: 0 = home, then order[k-1] skipping home — the same
  /// loop shape as sharded_queue::dequeue.
  bool step(elastic_shard_set& set, std::uint64_t& clock) {
    if (inner_->step(*set.shards[cur_])) {
      inner_->res = clock++;
      if (is_enq_) {
        set.history[cur_].push_back(
            {op_kind::enq, true, tid_, value_, inner_->inv, inner_->res});
        return true;
      }
      const std::optional<std::uint64_t>& r = inner_->result;
      set.history[cur_].push_back({op_kind::deq, r.has_value(), tid_,
                                   r.value_or(0), inner_->inv, inner_->res});
      if (r.has_value()) {
        result = r;
        return true;
      }
      // Advance to the next pool slot of the snapshot's scan order.
      while (true) {
        if (++k_ > set.capacity()) return true;  // scanned all: empty
        const std::uint32_t s = table_->order[k_ - 1];
        if (s == home_) continue;  // visited first
        cur_ = s;
        break;
      }
      start_inner();
      inner_->inv = clock++;
      return false;
    }
    ++clock;
    return false;
  }

  std::uint64_t& inv() { return inner_->inv; }
  std::optional<std::uint64_t> result;
  const scan_table* table() const { return table_; }

 private:
  void start_inner() {
    if (is_enq_) {
      inner_ = std::make_unique<enq_machine>(tid_, value_);
    } else {
      inner_ = std::make_unique<deq_machine>(tid_);
    }
  }

  std::uint32_t tid_;
  bool is_enq_;
  std::uint64_t value_;
  const scan_table* table_;  // snapshot held for the whole operation
  std::uint32_t home_ = 0;
  std::uint32_t cur_ = 0;
  std::uint32_t k_ = 0;  // scan position within the snapshot
  std::unique_ptr<machine> inner_;
};

}  // namespace kpq::testing
