// The Kogan–Petrank wait-free MPMC FIFO queue (PPoPP 2011), ported from the
// paper's Java listing (Figures 1, 2, 4, 6) to unmanaged C++20.
//
// Scheme (paper §3.1): every operation picks a monotonically growing *phase*,
// publishes the operation in its entry of the per-thread `state` array, then
// helps every pending operation whose phase is <= its own. Each operation is
// split into three atomic steps so helpers can share the work without
// applying anything twice:
//
//   enqueue: (1) append node at list end      [linearization, line 74]
//            (2) flip owner's pending->false  [line 93]
//            (3) swing tail                   [line 94]
//   dequeue: (0) point owner's state at the current sentinel   [line 131]
//            (1) write owner's tid into sentinel's deqTid      [lin., 135]
//            (2) flip owner's pending->false                   [line 149]
//            (3) swing head                                    [line 150]
//
// C++ port (paper §3.4):
//   * `state` is one request record per thread, updated in place by a
//     16-byte CAS whose ctl carries a per-transition sequence, and never
//     freed (core/request.hpp). Helpers CAS only pending records, so the
//     owner's publish cannot fail and retires nothing.
//   * Hazard pointers protect every node dereference and every node a CAS
//     installs; a node read out of a record's word is pinned, then
//     certified by re-reading ctl.
//   * The CAS completing a dequeue swaps the claimed sentinel in the
//     owner's word for the pinned successor's payload, so deq() never
//     touches a node that may have been retired (boxed if `T` does not fit
//     the word, core/node.hpp).
//
// Progress: enqueue/dequeue complete in O(n) steps plus helping (bounded by
// the doorway argument, paper §5.3) — wait-free when the reclaimer is
// wait-free (hazard pointers are; epoch reclamation bounds only memory, not
// steps, see reclaim/epoch.hpp).
//
// Optional fast path (§3.3's closing suggestion, `wf_queue_fps`): with
// Options::max_tries > 0 every operation first helps one announced peer
// (cyclic probe), then makes up to max_tries plain Michael–Scott attempts,
// and only then announces as above. Fast enqueues link nodes with
// enq_tid == no_tid; fast dequeues claim the sentinel's deqTid with
// fast_claim_base + tid. help_finish_enq/help_finish_deq finish either kind.
// With max_tries == 0 (the default) every fast-path branch and member folds
// away under `if constexpr`. docs/ALGORITHM.md §3.1 has the design.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/help_policy.hpp"
#include "core/node.hpp"
#include "core/phase_policy.hpp"
#include "core/request.hpp"
#include "harness/mem_tracker.hpp"
#include "obs/residency.hpp"
#include "obs/trace_ring.hpp"
#include "reclaim/hazard_pointers.hpp"
#include "reclaim/reclaimer_concepts.hpp"
#include "storage/heap_node_storage.hpp"
#include "storage/storage_concepts.hpp"
#include "sync/cacheline.hpp"
#include "sync/thread_registry.hpp"

namespace kpq {

namespace testing {
/// White-box access for the deterministic scenario tests that replay the
/// paper's Figures 3 and 5 step by step (defined in the test target only).
struct whitebox;
}  // namespace testing

/// Default (no-op) test hooks; see wf_options::hooks.
struct no_hooks {
  /// Called right after an operation is published in its request record and
  /// before helping starts — the exact point where a thread can stall with
  /// a pending operation that peers must complete for it. On a queue with a
  /// fast path this is the slow-path announce.
  static void after_publish(std::uint32_t /*tid*/, bool /*is_enqueue*/) {}
  // A hooks struct may also provide `on_fast_attempt(tid, is_enqueue)`,
  // called once per fast-path attempt; the step-bound test counts these to
  // prove no operation makes more than Options::max_tries of them.
};

/// Compile-time switches for the paper's §3.3 enhancements.
struct wf_options {
  /// Test instrumentation (zero-cost by default). The progress tests swap
  /// in hooks that block a chosen thread mid-operation to prove helping.
  using hooks = no_hooks;
  /// Event-trace recorder policy (obs/trace_ring.hpp). `obs::default_trace`
  /// is `no_trace` unless the build defines KPQ_TRACE, so every record site
  /// below compiles out via `if constexpr` — identical codegen to a
  /// hook-free build. The fig_obs_overhead bench overrides this per-type
  /// (wf_options_traced) to compare traced vs untraced in one binary.
  using trace = obs::default_trace;
  /// Item-residency policy (obs/residency.hpp). With the default
  /// `no_residency` the node's stamp field does not exist and every
  /// residency hook folds away — the node keeps the paper's 24-byte shape.
  /// `wf_options_residency` flips it to tick_residency: the enqueuer stamps
  /// the node pre-publication and the thread whose CAS completes the
  /// dequeue records now - stamp into a per-thread log2 histogram
  /// (residency_histogram()).
  using residency = obs::no_residency;
  /// Per-thread operation counters (wf_counters); zero-cost when off.
  static constexpr bool collect_stats = false;
  /// Enhancement 3: "check whether the pending flag is already switched off
  /// before applying CAS in Lines 93 or 149" — skips the record CAS when
  /// another helper already completed step (2). (Enhancements 1 and 2 are
  /// about descriptor allocation; request records allocate nothing.)
  static constexpr bool precheck_cas = false;
  /// Fast path: Michael–Scott attempts before announcing on the slow path
  /// (the paper's MAX_FAILURES patience, a constant as in §3.3). 0 compiles
  /// the fast path out — the paper's announce-always queue.
  static constexpr std::uint32_t max_tries = 0;
};

/// The fast-path/slow-path queue's options (wf_queue_fps).
struct fps_options : wf_options {
  static constexpr std::uint32_t max_tries = 8;
};
/// Item-residency tracking on for the fast-path/slow-path queue.
struct fps_options_residency : fps_options {
  using residency = obs::tick_residency;
};

struct wf_options_precheck : wf_options {
  static constexpr bool precheck_cas = true;
};
struct wf_options_stats : wf_options {
  static constexpr bool collect_stats = true;
};
/// Tracing forced on regardless of KPQ_TRACE (for overhead comparisons).
struct wf_options_traced : wf_options {
  using trace = obs::ring_trace;
};
/// Item-residency tracking on (stamped nodes + histograms).
struct wf_options_residency : wf_options {
  using residency = obs::tick_residency;
};

/// Per-thread operation counters (collected when Options::collect_stats).
/// Owner-thread-only updates: no atomics needed, padded against false
/// sharing. The interesting derived quantity is the *helping rate*: how many
/// operations were completed by a thread other than their owner — the
/// dynamic behind the paper's Figure 9 discussion of helping stampedes.
struct wf_counters {
  std::uint64_t enq_ops = 0;
  std::uint64_t deq_ops = 0;
  std::uint64_t empty_deqs = 0;
  /// Completion-step CASes this thread won for ANOTHER thread's operation.
  std::uint64_t helped_enq_completions = 0;
  std::uint64_t helped_deq_completions = 0;
  /// Link/claim CASes lost to a concurrent helper (wasted attempts).
  std::uint64_t link_cas_failures = 0;
  /// Request-record CASes (stage 0, completion, empty) this thread lost.
  std::uint64_t desc_cas_failures = 0;
  /// Of enq_ops/deq_ops, those completed on the fast path (0 without one);
  /// the rest announced on the slow path.
  std::uint64_t fast_enqs = 0;
  std::uint64_t fast_deqs = 0;

  wf_counters& operator+=(const wf_counters& o) {
    enq_ops += o.enq_ops;
    deq_ops += o.deq_ops;
    empty_deqs += o.empty_deqs;
    helped_enq_completions += o.helped_enq_completions;
    helped_deq_completions += o.helped_deq_completions;
    link_cas_failures += o.link_cas_failures;
    desc_cas_failures += o.desc_cas_failures;
    fast_enqs += o.fast_enqs;
    fast_deqs += o.fast_deqs;
    return *this;
  }
};

template <typename T, typename HelpPolicy = help_all,
          typename PhasePolicy = scan_max_phase, typename Reclaimer = hp_domain,
          typename Options = wf_options,
          typename Storage = heap_node_storage<
              T, wf_node<T, Options::residency::enabled>>>
class wf_queue : public mem_tracked {
  static_assert(std::is_move_constructible_v<T>,
                "the dequeue moves the payload out to its caller");
  static_assert(node_storage_for<Storage, Reclaimer>,
                "Storage must satisfy the node-storage contract "
                "(storage/storage_concepts.hpp)");

 public:
  using residency_type = typename Options::residency;
  static constexpr bool track_residency = residency_type::enabled;

  using value_type = T;
  using node_type = wf_node<T, track_residency>;
  using reclaimer_type = Reclaimer;
  using storage_type = Storage;
  static_assert(std::is_same_v<typename Storage::node_type, node_type>,
                "Storage must be instantiated with the queue's node type — "
                "when residency is enabled the node carries the stamp, e.g. "
                "heap_node_storage<T, wf_node<T, true>>");
  /// The recorder policy, re-exported so the help policies (templated on
  /// the queue, not the options) can hit the same sink.
  using trace_type = typename Options::trace;

  /// Options::max_tries == 0 compiles no fast path.
  static constexpr bool has_fast_path = Options::max_tries > 0;

  /// deqTid encoding: no_tid free, [0, n) slow-path claim by that thread,
  /// fast_claim_base + tid a fast-path claim (no record to complete).
  /// The constructor caps max_threads below it so the two cannot collide.
  static constexpr std::int32_t fast_claim_base = 1 << 20;

  /// Hazard slots used per thread: head/first, tail/last, next, and the
  /// node a pending enqueue's record names.
  static constexpr std::uint32_t hp_slots = 4;
  enum slot : std::uint32_t { s_first = 0, s_last = 1, s_next = 2, s_node = 3 };

  /// Bytes one enqueue allocates besides its node: a `T`'s box, if boxed.
  static constexpr std::size_t box_bytes = inline_value<T> ? 0 : sizeof(T);
  /// The request records (one padded line each), accounted at construction.
  static constexpr std::size_t records_bytes(std::uint32_t n) noexcept {
    return static_cast<std::size_t>(n) * sizeof(padded<request>);
  }

  /// `max_threads` bounds the number of distinct thread ids (dense, from
  /// kpq::this_thread_id() or passed explicitly) that may ever operate on
  /// this queue (paper: NUM_THRDS). Pass `mc` to account every allocation
  /// from the first one (the Figure 10 bench does). Attaching later via
  /// set_memory_counters() is also exact: construction-time allocations
  /// accumulate into a baseline that the attach replays (mem_tracker.hpp).
  /// Throws std::invalid_argument for max_threads == 0 (the sentinel is
  /// allocated as tid 0) or >= fast_claim_base.
  explicit wf_queue(std::uint32_t max_threads, mem_counters* mc = nullptr)
      : n_(checked_max_threads(max_threads)),
        storage_(max_threads, this),
        reclaim_(max_threads, hp_slots),
        help_(max_threads),
        phase_(max_threads),
        reqs_(max_threads),
        stats_(Options::collect_stats ? max_threads : 0),
        resi_(track_residency ? max_threads : 0),
        fast_(max_threads) {
    set_memory_counters(mc);
    account_alloc(records_bytes(n_));
    // paper line 28; the records start as {0, 0}: not pending
    node_type* sentinel =
        storage_.alloc(0, from_word<value_slot<T>>(0), no_tid, reclaim_);
    // kpq-order: relaxed pairs-with the ctor-exit seq_cst fence below —
    // no thread can access the queue before construction returns.
    head_.store(sentinel, std::memory_order_relaxed);
    // kpq-order: relaxed pairs-with the ctor-exit seq_cst fence below
    tail_.store(sentinel, std::memory_order_relaxed);
    seal_baseline();
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  wf_queue(const wf_queue&) = delete;
  wf_queue& operator=(const wf_queue&) = delete;

  /// Requires quiescence (no operation in flight), like all concurrent
  /// container destructors.
  ~wf_queue() {
    // kpq-order: relaxed pairs-with none (destructor requires quiescence;
    // callers synchronize via thread join before destroying the queue)
    node_type* const sentinel = head_.load(std::memory_order_relaxed);
    for (node_type* n = sentinel; n != nullptr;) {
      // kpq-hazard: quiescent — no concurrent retirement during destruction
      // kpq-order: relaxed pairs-with none (quiescent, see above)
      node_type* next = n->next.load(std::memory_order_relaxed);
      // The sentinel's payload went to its dequeuer; later nodes own theirs.
      if (n != sentinel) (void)take(n->value);
      storage_.release(n);
      n = next;
    }
    for (std::uint32_t i = 0; i < n_; ++i) {
      // kpq-order: relaxed pairs-with none (quiescent, see above)
      assert(!(reqs_[i]->ctl.load(std::memory_order_relaxed) & req::pending) &&
             "destroying a queue with an operation in flight");
    }
    account_free(records_bytes(n_));
    // reclaim_ drains its retired nodes on destruction; it is declared
    // after storage_ so its drain still has a live storage to recycle into
    // (storage_concepts.hpp).
  }

  // ---------------------------------------------------------------- enqueue

  /// paper lines 61-66
  void enqueue(T value) { enqueue(std::move(value), this_thread_id()); }

  void enqueue(T value, std::uint32_t tid) {
    check_tid(tid);
    auto g = reclaim_.enter(tid);
    if constexpr (has_fast_path) {
      help_someone(tid, g);  // wait-freedom: one cyclic probe per operation
      // Fast nodes carry enq_tid == no_tid: helpers fix only the tail.
      node_type* node = alloc_node(tid, std::move(value), no_tid);
      // Residency stamp: once, pre-publication; the slow path adopts the
      // same node, so one stamp covers both paths.
      if constexpr (track_residency) node->enq_ts = residency_type::now();
      if (fast_enqueue(tid, node, g)) return;
      // Slow path: adopt the node (it was never linked) and announce.
      node->enq_tid = static_cast<std::int32_t>(tid);
      announce_enq(tid, phase_.next_phase(*this, g, tid), node, g);
    } else {
      const std::int64_t phase = phase_.next_phase(*this, g, tid);  // line 62
      node_type* node =
          alloc_node(tid, std::move(value), static_cast<std::int32_t>(tid));
      // Residency stamp: written once pre-publication, like value/enq_tid.
      if constexpr (track_residency) node->enq_ts = residency_type::now();
      announce_enq(tid, phase, node, g);  // lines 63-65
    }
  }

  // ---------------------------------------------------------------- dequeue

  /// paper lines 98-108; empty queue yields nullopt instead of an exception.
  std::optional<T> dequeue() { return dequeue(this_thread_id()); }

  std::optional<T> dequeue(std::uint32_t tid) {
    check_tid(tid);
    auto g = reclaim_.enter(tid);
    if constexpr (has_fast_path) {
      help_someone(tid, g);
      std::optional<T> fast;
      if (fast_dequeue(tid, g, fast)) return fast;
    }
    const std::int64_t phase = phase_.next_phase(*this, g, tid);  // line 99
    return announce_deq(tid, phase, g);  // lines 100-107
  }

  // ---------------------------------------------------------------- batched
  // Native hooks for the scale layer (scale/batch.hpp dispatches to these).
  //
  // A batch amortizes the two per-operation costs that do not depend on the
  // operation itself: the reclamation-guard entry and the phase draw. One
  // phase is registered for the WHOLE batch and reused by every item:
  //
  //   * Legal: helping uses `phase <= mine`, so equal phases are already
  //     tolerated (cas_phase takes duplicate phases by design, paper
  //     footnote 3), and the record CASes compare the sequence, which is
  //     new for every item, never the phase. A batch item publishing an
  //     "old" phase can only make itself MORE helpable.
  //   * Wait-free: the doorway bound (paper §5.3) counts operations with
  //     phase <= p that can linearize before an operation with phase p; a
  //     batch adds at most its own length to that count, so the step bound
  //     grows by the maximum batch size — still a constant.
  //
  // Items become visible one at a time, exactly as the per-item loop's
  // would (helpers can complete any prefix for a stalled owner); batching
  // changes cost, never semantics. With scan_max_phase the saving is an
  // O(max_threads) state scan per item; with fetch_add_phase it is the
  // shared-counter RMW — the cross-thread rendezvous either way. A queue
  // with a fast path has no native hooks (its items would all announce);
  // kpq::enqueue_bulk falls back to the per-item loop for it.

  /// Enqueue [first, last) under one guard and one phase.
  template <typename It>
    requires(!has_fast_path)
  void enqueue_bulk(It first, It last, std::uint32_t tid) {
    check_tid(tid);
    if (first == last) return;
    auto g = reclaim_.enter(tid);
    const std::int64_t phase = phase_.next_phase(*this, g, tid);
    for (; first != last; ++first) {
      node_type* node = alloc_node(tid, *first, static_cast<std::int32_t>(tid));
      if constexpr (track_residency) node->enq_ts = residency_type::now();
      announce_enq(tid, phase, node, g);
    }
  }

  /// Pop up to `max` items (appended to `out`) under one guard and one
  /// phase; stops at the first empty-linearized dequeue. Returns the count.
  std::size_t dequeue_bulk(std::vector<T>& out, std::size_t max,
                           std::uint32_t tid)
    requires(!has_fast_path)
  {
    check_tid(tid);
    if (max == 0) return 0;
    auto g = reclaim_.enter(tid);
    const std::int64_t phase = phase_.next_phase(*this, g, tid);
    std::size_t got = 0;
    while (got < max) {
      std::optional<T> v = announce_deq(tid, phase, g);
      if (!v.has_value()) break;
      out.push_back(std::move(*v));
      ++got;
    }
    return got;
  }

  // ----------------------------------------------------------- observability

  std::uint32_t max_threads() const noexcept { return n_; }

  /// True if the queue looked empty at some point during the call.
  bool empty_hint(std::uint32_t tid) {
    check_tid(tid);
    auto g = reclaim_.enter(tid);
    node_type* first = g.protect(s_first, head_);
    node_type* last = tail_.load(std::memory_order_seq_cst);
    node_type* next = g.protect(s_next, first->next);
    return first == last && next == nullptr;
  }
  bool empty_hint() { return empty_hint(this_thread_id()); }

  reclaimer_type& reclaimer() noexcept { return reclaim_; }
  storage_type& storage() noexcept { return storage_; }
  const storage_type& storage() const noexcept { return storage_; }

  /// Merged item-residency histogram in TICKS (obs/calibrate.hpp converts to
  /// ns). Meaningful only when `track_residency`; scrape-safe while workers
  /// run — buckets are relaxed atomics, the snapshot is some interleaving.
  log2_histogram residency_histogram() const { return resi_.merged(); }
  std::uint64_t residency_samples() const noexcept { return resi_.samples(); }
  void reset_residency() noexcept { resi_.reset(); }

  /// Per-thread counters (meaningful only with Options::collect_stats;
  /// read under quiescence or accept torn snapshots).
  const wf_counters& counters(std::uint32_t tid) const {
    return stats_[tid].get();
  }
  wf_counters aggregate_counters() const {
    wf_counters total;
    for (const auto& s : stats_) total += s.get();
    return total;
  }

  /// Test-only, requires quiescence: number of elements by list walk.
  std::size_t unsafe_size() const {
    std::size_t n = 0;
    // kpq-hazard: quiescent by contract (test-only helper) — no node can
    // be retired while we walk.
    // kpq-order: acquire pairs-with the seq_cst link/swing CASes of the
    // last completed operations (observe their node writes at quiescence)
    const node_type* p = head_.load(std::memory_order_acquire);
    // kpq-hazard: quiescent (see above)
    // kpq-order: acquire pairs-with the linking CAS (line 74) of each
    // enqueue whose node this walk visits
    for (p = p->next.load(std::memory_order_acquire); p != nullptr;
         // kpq-hazard: quiescent (see above)
         // kpq-order: acquire pairs-with the linking CAS (line 74)
         p = p->next.load(std::memory_order_acquire)) {
      ++n;
    }
    return n;
  }

  // ------------------------------------------------- policy/helping interface
  // Public because the help/phase policies drive them; not part of the user
  // API.

  /// paper lines 48-57 (plain loads: only the owner writes a phase).
  template <typename Guard>
  std::int64_t max_phase(Guard& /*g*/) {
    std::int64_t m = no_phase;
    for (std::uint32_t i = 0; i < n_; ++i) {
      const std::int64_t p = phase_of(i);
      if (p > m) m = p;
    }
    return m;
  }

  /// paper lines 38-44: one iteration of the help() loop body. `my` is the
  /// helping thread's own id (reclamation bookkeeping).
  template <typename Guard>
  void help_if_needed(std::uint32_t i, std::int64_t phase, Guard& g,
                      std::uint32_t my) {
    const std::uint64_t ctl = ctl_of(i);
    if (!(ctl & req::pending)) return;
    const std::int64_t victim_phase = phase_of(i);
    if (victim_phase > phase) return;  // line 39
    // A helping episode: this thread works on thread i's operation. Own
    // operations (i == my) are not episodes — that is just completing.
    const bool traced_episode = trace_type::enabled && i != my;
    if (traced_episode) {
      trace_type::record(my, obs::trace_kind::help_start, victim_phase, i);
    }
    if (ctl & req::enqueue) {
      help_enq(i, phase, g, my);  // line 41
    } else {
      help_deq(i, phase, g, my);  // line 43
    }
    if (traced_episode) {
      trace_type::record(my, obs::trace_kind::help_finish, victim_phase, i);
    }
  }

 private:
  friend struct kpq::testing::whitebox;

  /// A record's {ctl, word}, read ctl first: `word` is from that state or a
  /// later one, and from that state if a re-read of ctl is unchanged.
  struct snapshot {
    std::uint64_t ctl;
    std::uint64_t word;
  };

  // ------------------------------------------------------------ entry checks
  // `tid` indexes every per-thread array, so an out-of-range id would be
  // silent memory corruption in a release build. One compare per entry
  // point; the throw happens before reclaim_.enter, leaving the queue as it
  // was.

  static std::uint32_t checked_max_threads(std::uint32_t n) {
    if (n == 0 || n >= static_cast<std::uint32_t>(fast_claim_base)) {
      throw std::invalid_argument(
          "kpq::wf_queue: max_threads must be in [1, 2^20)");
    }
    return n;
  }
  void check_tid(std::uint32_t tid) const {
    if (tid >= n_) [[unlikely]] {
      detail::throw_tid_out_of_range("kpq::wf_queue", tid, n_);
    }
  }

  // --------------------------------------------------------------- announce
  // The paper's operation once its phase is drawn: publish it in the
  // record, help, finish. A queue with a fast path reaches these only after
  // its fast attempts failed; its probe already helped a peer, so it
  // completes only its own operation here.

  /// paper lines 63-65
  template <typename Guard>
  void announce_enq(std::uint32_t tid, std::int64_t phase, node_type* node,
                    Guard& g) {
    publish(tid, phase, req::pending | req::enqueue, word_of(node));  // 63
    if constexpr (Options::collect_stats) ++stats_[tid]->enq_ops;
    if constexpr (trace_type::enabled) {
      trace_type::record(tid, obs::trace_kind::enq_publish, phase, 0);
    }
    Options::hooks::after_publish(tid, /*is_enqueue=*/true);
    if constexpr (has_fast_path) {
      help_enq(tid, phase, g, tid);
    } else {
      help_.run(*this, tid, phase, g);  // line 64
    }
    // line 65: return only once the tail is past our node — when our record
    // moves on, nobody else can tell it is the node to swing past. Tail at
    // the node (our own step 3, uncontended) already is.
    if (tail_.load(std::memory_order_seq_cst) != node) help_finish_enq(tid, g);
    if constexpr (trace_type::enabled) {
      trace_type::record(tid, obs::trace_kind::enq_complete, phase, 0);
    }
  }

  /// paper lines 100-107
  template <typename Guard>
  std::optional<T> announce_deq(std::uint32_t tid, std::int64_t phase,
                                Guard& g) {
    publish(tid, phase, req::pending, 0);  // line 100
    if constexpr (Options::collect_stats) ++stats_[tid]->deq_ops;
    if constexpr (trace_type::enabled) {
      trace_type::record(tid, obs::trace_kind::deq_publish, phase, 0);
    }
    Options::hooks::after_publish(tid, /*is_enqueue=*/false);
    if constexpr (has_fast_path) {
      help_deq(tid, phase, g, tid);
    } else {
      help_.run(*this, tid, phase, g);  // line 101
    }
    help_finish_deq(tid, g);  // line 102
    // line 103: a completed record stays as it is until its owner publishes
    // again (helpers CAS only pending records).
    const request& r = reqs_[tid].get();
    std::optional<T> result;
    if (r.ctl.load(std::memory_order_seq_cst) & req::has_value) {
      result.emplace(take(from_word<value_slot<T>>(
          r.word.load(std::memory_order_seq_cst))));
    }
    if constexpr (Options::collect_stats) {
      if (!result.has_value()) ++stats_[tid]->empty_deqs;
    }
    if constexpr (trace_type::enabled) {
      trace_type::record(tid, obs::trace_kind::deq_complete, phase,
                         result.has_value() ? 1 : 0);
    }
    return result;  // no value: linearized on an empty queue
  }

  // -------------------------------------------------------------- fast path
  // Compiled only when has_fast_path; docs/ALGORITHM.md §3.1.

  /// One cyclic probe: help whatever announced operation sits at the
  /// cursor, up to that operation's own phase (fast operations have no
  /// phase; helping "too much" costs time, never correctness).
  template <typename Guard>
  void help_someone(std::uint32_t my, Guard& g) {
    std::uint32_t& k = fast_.cursor[my].value;  // owner-only
    const std::uint32_t candidate = k;
    k = (k + 1 == n_) ? 0 : k + 1;
    if (candidate == my) return;
    help_if_needed(candidate, phase_of(candidate), g, my);
  }

  /// Up to max_tries plain MS link attempts of `node` (enq_tid == no_tid).
  /// True once linked; the link CAS is the linearization for both paths.
  template <typename Guard>
  bool fast_enqueue(std::uint32_t tid, node_type* node, Guard& g) {
    for (std::uint32_t attempt = 0; attempt < Options::max_tries; ++attempt) {
      on_fast_attempt(tid, /*is_enq=*/true);
      node_type* last = g.protect(s_last, tail_);
      node_type* next = last->next.load(std::memory_order_seq_cst);
      if (last != tail_.load(std::memory_order_seq_cst)) continue;
      if (next == nullptr) {
        node_type* expected = nullptr;
        if (last->next.compare_exchange_strong(expected, node,
                                               std::memory_order_seq_cst)) {
          count_fast(tid, /*is_enq=*/true);
          help_finish_enq(tid, g);
          return true;
        }
      } else {
        help_finish_enq(tid, g);
      }
    }
    return false;
  }

  /// Up to max_tries MS dequeue attempts. The claim is the sentinel's
  /// deqTid, written with a fast marker, so fast and slow dequeues
  /// serialize through the same write-once field. True once the operation
  /// completed, with its outcome in `out`.
  template <typename Guard>
  bool fast_dequeue(std::uint32_t tid, Guard& g, std::optional<T>& out) {
    for (std::uint32_t attempt = 0; attempt < Options::max_tries; ++attempt) {
      on_fast_attempt(tid, /*is_enq=*/false);
      node_type* first = g.protect(s_first, head_);
      node_type* last = tail_.load(std::memory_order_seq_cst);
      node_type* next = g.protect(s_next, first->next);
      if (first != head_.load(std::memory_order_seq_cst)) continue;
      if (first == last) {
        if (next == nullptr) {
          count_fast(tid, /*is_enq=*/false);
          if constexpr (Options::collect_stats) ++stats_[tid]->empty_deqs;
          return true;  // empty, like MS
        }
        help_finish_enq(tid, g);  // dangling enqueue first
        continue;
      }
      // `next` is safe to read: first == head implies next not yet retired.
      // Only the winning claim takes its payload.
      const value_slot<T> payload = next->value;
      std::int32_t expected = no_tid;
      if (first->deq_tid.compare_exchange_strong(
              expected, fast_claim_base + static_cast<std::int32_t>(tid),
              std::memory_order_seq_cst)) {
        count_fast(tid, /*is_enq=*/false);
        record_residency(tid, *next);
        help_finish_deq(tid, g);  // swing head; winner retires the sentinel
        out.emplace(take(payload));
        return true;
      }
      // Someone else (fast or slow) claimed it: finish them, retry.
      help_finish_deq(tid, g);
    }
    return false;
  }

  static void on_fast_attempt(std::uint32_t tid, bool is_enq) {
    if constexpr (requires { Options::hooks::on_fast_attempt(tid, is_enq); }) {
      Options::hooks::on_fast_attempt(tid, is_enq);
    }
  }

  /// An operation completed on the fast path (the slow path counts its
  /// own in announce_enq/announce_deq).
  void count_fast([[maybe_unused]] std::uint32_t tid,
                  [[maybe_unused]] bool is_enq) noexcept {
    if constexpr (Options::collect_stats) {
      wf_counters& c = stats_[tid].get();
      ++(is_enq ? c.enq_ops : c.deq_ops);
      ++(is_enq ? c.fast_enqs : c.fast_deqs);
    }
  }

  // ------------------------------------------------------------- allocation
  // Nodes live wherever the Storage policy puts them (storage/); a payload
  // box is an accounted heap object freed by the dequeue that takes it.

  node_type* alloc_node(std::uint32_t tid, T v, std::int32_t etid) {
    if constexpr (inline_value<T>) {
      return storage_.alloc(tid, v, etid, reclaim_);
    } else {
      T* box = new T(std::move(v));
      account_alloc(sizeof(T));
      try {
        return storage_.alloc(tid, box, etid, reclaim_);
      } catch (...) {
        (void)take(box);
        throw;
      }
    }
  }

  /// The payload a node's slot carries; a box is consumed.
  T take(value_slot<T> payload) {
    if constexpr (inline_value<T>) {
      return payload;
    } else {
      T v(std::move(*payload));
      delete payload;
      account_free(sizeof(T));
      return v;
    }
  }

  /// A record word and what it carries (a node pointer or a value slot),
  /// bit for bit.
  template <typename P>
  static std::uint64_t word_of(P p) noexcept {
    std::uint64_t w = 0;
    std::memcpy(&w, &p, sizeof(P));
    return w;
  }
  template <typename P>
  static P from_word(std::uint64_t w) noexcept {
    std::array<unsigned char, sizeof(P)> raw;
    std::memcpy(raw.data(), &w, sizeof(P));
    return std::bit_cast<P>(raw);
  }

  void retire_node(std::uint32_t tid, node_type* n) {
    if constexpr (trace_type::enabled) {
      trace_type::record(tid, obs::trace_kind::retire, 0, 0);
    }
    storage_.retire(tid, n, reclaim_);
  }

  // ---------------------------------------------------------------- records

  std::uint64_t ctl_of(std::uint32_t tid) const noexcept {
    return reqs_[tid]->ctl.load(std::memory_order_seq_cst);
  }
  std::int64_t phase_of(std::uint32_t tid) const noexcept {
    return reqs_[tid]->phase.load(std::memory_order_seq_cst);
  }
  snapshot read_req(std::uint32_t tid) const noexcept {
    const request& r = reqs_[tid].get();
    const std::uint64_t ctl = r.ctl.load(std::memory_order_seq_cst);
    return {ctl, r.word.load(std::memory_order_seq_cst)};
  }

  /// Owner publishes a new operation (lines 63 / 100). No helper CASes a
  /// record that is not pending, so this CAS cannot fail.
  void publish(std::uint32_t tid, std::int64_t phase, std::uint64_t flags,
               std::uint64_t word) {
    request& r = reqs_[tid].get();
    // kpq-order: relaxed pairs-with none (only the owner writes a record
    // that is not pending; coherence returns the last CAS this thread saw)
    const std::uint64_t ctl = r.ctl.load(std::memory_order_relaxed);
    // kpq-order: relaxed pairs-with none (as above)
    const std::uint64_t old = r.word.load(std::memory_order_relaxed);
    assert(!(ctl & req::pending) && "one operation per thread at a time");
    // kpq-order: relaxed pairs-with the helpers' seq_cst ctl loads (the CAS
    // below is a full barrier, ordering this store before the pending ctl)
    r.phase.store(phase, std::memory_order_relaxed);
    [[maybe_unused]] const bool ok =
        cas_request(r, ctl, old, req::next(ctl, flags), word);
    assert(ok && "a record that is not pending changed under its owner");
  }

  /// A helper's transition of `tid`'s record from `s`; a loss is counted.
  bool move_req(std::uint32_t tid, const snapshot& s, std::uint64_t flags,
                std::uint64_t word, std::uint32_t my) noexcept {
    if (cas_request(reqs_[tid].get(), s.ctl, s.word, req::next(s.ctl, flags),
                    word)) {
      return true;
    }
    if constexpr (Options::collect_stats) ++stats_[my]->desc_cas_failures;
    return false;
  }

  /// Step (2) (lines 93 / 149): `tid`'s record from the pending {ctl, word}
  /// (`word` names a node the caller pinned) to completed. If `ctl` shows
  /// it completed already, §3.3 enhancement 3 skips the CAS; without it the
  /// CAS is issued with the pending bit and fails (no completed state's
  /// sequence ever carried it). True if this thread completed it.
  bool complete(std::uint32_t tid, std::uint64_t ctl, std::uint64_t word,
                std::uint64_t done_flags, std::uint64_t done_word,
                std::uint32_t my) noexcept {
    if (!(ctl & req::pending)) {
      if constexpr (Options::precheck_cas) return false;
      ctl |= req::pending;
    }
    return move_req(tid, {ctl, word}, done_flags, done_word, my);
  }

  // ----------------------------------------------------------------- helping

  /// paper lines 58-60, plus the kind (req::enqueue or 0): the phase read
  /// after ctl may be the owner's next operation's, and must not send
  /// help_enq into a dequeue, or vice versa.
  bool is_still_pending(std::uint32_t tid, std::int64_t ph,
                        std::uint64_t kind) const noexcept {
    return (ctl_of(tid) & (req::pending | req::enqueue)) ==
               (req::pending | kind) &&
           phase_of(tid) <= ph;
  }

  /// paper lines 67-84. `tid` owns the pending enqueue; the caller's thread
  /// id only matters for reclamation bookkeeping and is carried by `g`'s
  /// slots plus `my` below.
  template <typename Guard>
  void help_enq(std::uint32_t tid, std::int64_t phase, Guard& g,
                std::uint32_t my) {
    while (is_still_pending(tid, phase, req::enqueue)) {    // line 68
      node_type* last = g.protect(s_last, tail_);              // line 69
      node_type* next = g.protect(s_next, last->next);         // line 70
      if (last != tail_.load(std::memory_order_seq_cst)) {     // line 71
        continue;
      }
      if (next == nullptr) {  // line 72: enqueue can be applied
        // line 73: the operation must still be pending, and the node comes
        // from the record's *current* state.
        const snapshot s = read_req(tid);
        if (!((s.ctl & req::pending) && (s.ctl & req::enqueue) &&
              phase_of(tid) <= phase)) {
          continue;
        }
        if (link_enq(tid, s, last, g, my)) {  // line 74
          help_finish_enq(my, g);             // line 75
          return;                             // line 76
        }
      } else {                          // line 79: an enqueue is in progress
        help_finish_enq(my, g);           // line 80: help it first, then retry
      }
    }
  }

  /// Step (1) of the pending enqueue `s` read from `tid`'s record: link its
  /// node after `last`. False if the record moved or the CAS lost.
  template <typename Guard>
  bool link_enq(std::uint32_t tid, const snapshot& s, node_type* last,
                Guard& g, std::uint32_t my) {
    // kpq-hazard: read out of an integer word (invisible to R3); pinned,
    // then certified by the ctl re-check: same ctl, same state, so still a
    // pending enqueue's node, which cannot have been dequeued or retired.
    node_type* node = from_word<node_type*>(s.word);
    g.protect_raw(s_node, node);
    bool linked = false;
    if (ctl_of(tid) == s.ctl) {
      node_type* expected = nullptr;
      linked = last->next.compare_exchange_strong(expected, node,
                                                  std::memory_order_seq_cst);
      if constexpr (Options::collect_stats) {
        if (!linked) ++stats_[my]->link_cas_failures;
      }
    }
    g.clear(s_node);
    return linked;
  }

  /// paper lines 85-97 (steps 2 and 3 of the enqueue scheme).
  template <typename Guard>
  void help_finish_enq(std::uint32_t my, Guard& g) {
    node_type* last = g.protect(s_last, tail_);        // line 86
    node_type* next = g.protect(s_next, last->next);   // line 87
    if (next == nullptr) return;                       // line 88
    // Reclamation subtlety absent from the paper's GC setting: `next` was
    // announced against the write-once last->next, which validates nothing.
    // Re-check tail AFTER the announce and BEFORE dereferencing: while
    // tail == last, head <= last in list order, so the dangling node cannot
    // yet have been dequeued, let alone retired — and any later retirement
    // happens after this check, hence after our announce, so the reclaimer
    // sees it (Michael 2004 uses the same validate-the-source pattern).
    if (last != tail_.load(std::memory_order_seq_cst)) return;
    const std::int32_t etid = next->enq_tid;           // line 89
    if constexpr (has_fast_path) {
      // A fast node has no record: only the tail swing (step 3) applies,
      // and skipping step 2 is safe because nothing is pending.
      if (etid == no_tid) {
        tail_.compare_exchange_strong(last, next, std::memory_order_seq_cst);
        return;
      }
    }
    assert(etid != no_tid);
    const auto tid = static_cast<std::uint32_t>(etid);
    // line 90: published before `next` was linked, so this read sees that
    // enqueue or later; `next` is pinned, so a later one cannot share its
    // address: `word == next` with the enqueue flag is that operation.
    const snapshot s = read_req(tid);
    if (last == tail_.load(std::memory_order_seq_cst) &&
        (s.ctl & req::enqueue) && s.word == word_of(next)) {  // line 91
      [[maybe_unused]] const bool won = complete(
          tid, s.ctl, s.word, req::enqueue, s.word, my);  // 92-93 (step 2)
      if constexpr (Options::collect_stats) {
        if (won && tid != my) ++stats_[my]->helped_enq_completions;
      }
      // Step 3 follows a completed step 2: a pending enqueue's only other
      // transition is its completion.
      tail_.compare_exchange_strong(last, next,
                                    std::memory_order_seq_cst);  // 94 (step 3)
    }
  }

  /// paper lines 109-140.
  template <typename Guard>
  void help_deq(std::uint32_t tid, std::int64_t phase, Guard& g,
                std::uint32_t my) {
    while (is_still_pending(tid, phase, 0)) {           // line 110
      node_type* first = g.protect(s_first, head_);        // line 111
      node_type* last = tail_.load(std::memory_order_seq_cst);  // line 112
      node_type* next = g.protect(s_next, first->next);    // line 113
      if (first != head_.load(std::memory_order_seq_cst)) {  // line 114
        continue;
      }
      if (first == last) {      // line 115: queue might be empty
        if (next == nullptr) {  // line 116: queue is empty
          const snapshot s = read_req(tid);  // line 117
          if (last == tail_.load(std::memory_order_seq_cst) &&
              (s.ctl & (req::pending | req::enqueue)) == req::pending &&
              phase_of(tid) <= phase) {  // line 118
            // lines 119-120: mark the operation completed-empty.
            move_req(tid, s, 0, 0, my);
          }
        } else {                     // line 122: an enqueue is in progress
          help_finish_enq(my, g);    // line 123
        }
      } else {  // line 125: queue is not empty
        const snapshot s = read_req(tid);                        // line 126
        if ((s.ctl & (req::pending | req::enqueue)) != req::pending ||
            phase_of(tid) > phase) {  // line 128
          break;
        }
        // line 127: the node must be this state's own (consistent read).
        if (ctl_of(tid) != s.ctl) continue;
        if (first == head_.load(std::memory_order_seq_cst) &&
            s.word != word_of(first)) {  // line 129
          // lines 130-131: stage 0 — point tid's record at the sentinel.
          if (!move_req(tid, s, req::pending, word_of(first), my)) {
            continue;  // line 132
          }
        }
        std::int32_t expected = no_tid;
        first->deq_tid.compare_exchange_strong(
            expected, static_cast<std::int32_t>(tid),
            std::memory_order_seq_cst);  // line 135 (stage 1, linearization)
        help_finish_deq(my, g);          // line 136
      }
    }
  }

  /// paper lines 141-153 (stages 2 and 3 of the dequeue scheme).
  template <typename Guard>
  void help_finish_deq(std::uint32_t my, Guard& g) {
    node_type* first = g.protect(s_first, head_);       // line 142
    node_type* next = g.protect(s_next, first->next);   // line 143
    const std::int32_t dtid =
        first->deq_tid.load(std::memory_order_seq_cst);  // line 144
    if (dtid == no_tid) return;                          // line 145
    if constexpr (has_fast_path) {
      // A fast claim has no record: only the head swing (step 3).
      if (dtid >= fast_claim_base) {
        if (first == head_.load(std::memory_order_seq_cst) &&
            next != nullptr &&
            head_.compare_exchange_strong(first, next,
                                          std::memory_order_seq_cst)) {
          retire_node(my, first);
        }
        return;
      }
    }
    const auto tid = static_cast<std::uint32_t>(dtid);
    // line 146: tid claimed `first` from its stage-0 state {ctl, first}, so
    // this read sees that state or its completion.
    const std::uint64_t ctl = ctl_of(tid);
    if (first == head_.load(std::memory_order_seq_cst) &&
        next != nullptr) {  // line 147
      // lines 148-149 + §3.4: the completing CAS swaps the (pinned) sentinel
      // for the (pinned) successor's payload.
      if (complete(tid, ctl, word_of(first), req::has_value,
                   word_of(next->value), my)) {  // line 149 (step 2)
        // It wins once per item: its thread records the residency sample.
        record_residency(my, *next);
        if constexpr (Options::collect_stats) {
          if (tid != my) ++stats_[my]->helped_deq_completions;
        }
      }
      if (head_.compare_exchange_strong(
              first, next, std::memory_order_seq_cst)) {  // line 150 (step 3)
        // Exactly one thread wins the head swing; it owns retiring the old
        // sentinel.
        retire_node(my, first);
      }
    }
  }

  /// Residency of the item in node `n` (stamped at enqueue-publish), at
  /// dequeue completion. Clamped at zero against cross-core TSC skew.
  void record_residency([[maybe_unused]] std::uint32_t tid,
                        [[maybe_unused]] const node_type& n) noexcept {
    if constexpr (track_residency) {
      const std::uint64_t now = residency_type::now();
      resi_.add(tid, now > n.enq_ts ? now - n.enq_ts : 0);
    }
  }

  // ------------------------------------------------------------------- data

  const std::uint32_t n_;
  // storage_ before reclaim_: reclaimer shutdown drains segment
  // retirements through callbacks into it.
  Storage storage_;
  Reclaimer reclaim_;
  HelpPolicy help_;
  PhasePolicy phase_;

  alignas(destructive_interference) std::atomic<node_type*> head_{nullptr};
  alignas(destructive_interference) std::atomic<node_type*> tail_{nullptr};
  std::vector<padded<request>> reqs_;  // paper line 26: `state`
  std::vector<padded<wf_counters>> stats_;  // empty unless collect_stats
  obs::residency_probe resi_;  // empty unless track_residency

  /// help_someone's per-thread cursor; an empty member without a fast path.
  struct fast_path_state {
    explicit fast_path_state(std::uint32_t n) : cursor(n) {}
    std::vector<padded<std::uint32_t>> cursor;
  };
  struct no_fast_path_state {
    explicit no_fast_path_state(std::uint32_t /*n*/) {}
  };
  [[no_unique_address]] std::conditional_t<has_fast_path, fast_path_state,
                                           no_fast_path_state> fast_;
};

// ------------------------------------------------------------------ aliases

/// The paper's evaluated variants (§4):
///   base WF       — help_all + scan_max_phase
///   opt WF (1)    — help_one + scan_max_phase
///   opt WF (2)    — help_all + fetch_add_phase
///   opt WF (1+2)  — help_one + fetch_add_phase
template <typename T, typename R = hp_domain>
using wf_queue_base = wf_queue<T, help_all, scan_max_phase, R>;
template <typename T, typename R = hp_domain>
using wf_queue_opt1 = wf_queue<T, help_one, scan_max_phase, R>;
template <typename T, typename R = hp_domain>
using wf_queue_opt2 = wf_queue<T, help_all, fetch_add_phase, R>;
template <typename T, typename R = hp_domain>
using wf_queue_opt = wf_queue<T, help_one, fetch_add_phase, R>;

/// opt WF with item-residency tracking compiled in (stamped nodes, per-queue
/// residency histograms) — the fig_residency bench's "on" variant.
template <typename T, typename R = hp_domain>
using wf_queue_opt_residency =
    wf_queue<T, help_one, fetch_add_phase, R, wf_options_residency>;

/// The fast-path/slow-path queue (§3.3's "complexity depends on contention"
/// suggestion): opt WF's policies under fps_options' patience.
template <typename T, typename R = hp_domain, typename Options = fps_options,
          typename Storage = heap_node_storage<
              T, wf_node<T, Options::residency::enabled>>>
using wf_queue_fps =
    wf_queue<T, help_one, fetch_add_phase, R, Options, Storage>;

}  // namespace kpq
