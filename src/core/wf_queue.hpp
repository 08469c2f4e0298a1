// The Kogan–Petrank wait-free MPMC FIFO queue (PPoPP 2011), ported from the
// paper's Java listing (Figures 1, 2, 4, 6) to unmanaged C++20.
//
// Scheme (paper §3.1): every operation picks a monotonically growing *phase*,
// publishes an operation descriptor in the per-thread `state` array, and then
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
// C++ port (paper §3.4 prescribes exactly this):
//   * Hazard pointers protect every dereference and, crucially, every value
//     a CAS compares against or installs: an expected/desired pointer pinned
//     by the CASing thread cannot be freed, hence cannot be reallocated,
//     hence the CAS cannot succeed spuriously (no ABA).
//   * A completed dequeue's payload is copied into the descriptor
//     (op_desc::value) by help_finish_deq while the successor node is still
//     pinned, so deq() never touches a node that may have been retired.
//   * Descriptors are immutable after publication and flow through the same
//     reclamation domain as nodes. Replacing a descriptor in `state`
//     (exchange by the owner, CAS by helpers) retires the old one exactly
//     once, on the replacing thread. Both descriptors whose installing CAS
//     failed (never published) and retired ones the reclaimer has proven
//     unreachable go back to the replacing thread's cache (paper §3.3,
//     enhancement 1, extended to reclaimed descriptors; core/desc_pool.hpp),
//     which holds up to one hazard-scan batch. Nodes stay on the Storage
//     path.
//   * The owner installs its new descriptor with an atomic exchange, not a
//     plain store, because helpers may legitimately replace a *completed*
//     descriptor with an equivalent copy (the paper notes the finish CASes
//     "may succeed more than once"); exchange makes the retire exactly-once.
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

#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/desc_pool.hpp"
#include "core/help_policy.hpp"
#include "core/op_desc.hpp"
#include "core/phase_policy.hpp"
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
  /// Called right after an operation descriptor is published in `state` and
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
  /// `no_residency` the node/descriptor stamp field does not exist and every
  /// residency hook folds away — the node keeps the paper's 24-byte shape.
  /// `wf_options_residency` flips it to tick_residency: the enqueuer stamps
  /// the node pre-publication and the completing dequeue records
  /// now - stamp into a per-thread log2 histogram (residency_histogram()).
  using residency = obs::no_residency;
  /// Per-thread operation counters (wf_counters); zero-cost when off.
  static constexpr bool collect_stats = false;
  /// Enhancement 3: "check whether the pending flag is already switched off
  /// before applying CAS in Lines 93 or 149" — skips the descriptor
  /// allocation and the CAS when another helper already completed step (2).
  /// (Enhancement 1, the descriptor cache, is always on — core/desc_pool.hpp;
  /// enhancement 2 is not ported: a C++ descriptor pins no memory.)
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
/// Item-residency tracking on (stamped nodes/descriptors + histograms).
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
  /// Descriptor installs that lost their CAS (recycled via the pool).
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
  static_assert(std::is_default_constructible_v<T>,
                "op_desc carries a T payload slot");
  static_assert(std::is_copy_constructible_v<T>,
                "helpers copy the dequeued payload concurrently");
  static_assert(node_storage_for<Storage, Reclaimer>,
                "Storage must satisfy the node-storage contract "
                "(storage/storage_concepts.hpp)");

 public:
  using residency_type = typename Options::residency;
  static constexpr bool track_residency = residency_type::enabled;

  using value_type = T;
  using node_type = wf_node<T, track_residency>;
  using desc_type = op_desc<T, track_residency>;
  using reclaimer_type = Reclaimer;
  using storage_type = Storage;
  using pool_type = desc_pool<T, track_residency>;
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
  /// fast_claim_base + tid a fast-path claim (no descriptor to complete).
  /// The constructor caps max_threads below it so the two cannot collide.
  static constexpr std::int32_t fast_claim_base = 1 << 20;

  /// Hazard slots used per thread: head/first, tail/last, next, descriptor,
  /// and the node named by a pending descriptor.
  static constexpr std::uint32_t hp_slots = 5;
  enum slot : std::uint32_t {
    s_first = 0,
    s_last = 1,
    s_next = 2,
    s_desc = 3,
    s_node = 4
  };

  /// `max_threads` bounds the number of distinct thread ids (dense, from
  /// kpq::this_thread_id() or passed explicitly) that may ever operate on
  /// this queue (paper: NUM_THRDS). Pass `mc` to account every node and
  /// descriptor allocation from the first one (the Figure 10 bench does).
  /// Attaching later via set_memory_counters() is also exact: construction-
  /// time allocations accumulate into a baseline that the attach replays
  /// (mem_tracker.hpp). Throws std::invalid_argument for max_threads == 0
  /// (the sentinel is allocated as tid 0) or >= fast_claim_base.
  explicit wf_queue(std::uint32_t max_threads, mem_counters* mc = nullptr)
      : n_(checked_max_threads(max_threads)),
        storage_(max_threads, this),
        pool_(max_threads, this,
              hp_domain::default_scan_threshold(max_threads * hp_slots)),
        reclaim_(max_threads, hp_slots),
        help_(max_threads),
        phase_(max_threads),
        state_(max_threads),
        stats_(Options::collect_stats ? max_threads : 0),
        resi_(track_residency ? max_threads : 0),
        fast_(max_threads) {
    set_memory_counters(mc);
    node_type* sentinel = alloc_node(0, T{}, no_tid);  // paper line 28
    // kpq-order: relaxed pairs-with the ctor-exit seq_cst fence below —
    // no thread can access the queue before construction returns.
    head_.store(sentinel, std::memory_order_relaxed);
    // kpq-order: relaxed pairs-with the ctor-exit seq_cst fence below
    tail_.store(sentinel, std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < n_; ++i) {  // paper lines 32-34
      // kpq-order: relaxed pairs-with the ctor-exit seq_cst fence below
      state_[i]->store(pool_.make(i, no_phase, false, true, nullptr),
                       std::memory_order_relaxed);
    }
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
    node_type* n = head_.load(std::memory_order_relaxed);
    while (n != nullptr) {
      // kpq-hazard: quiescent — no concurrent retirement during destruction
      // kpq-order: relaxed pairs-with none (quiescent, see above)
      node_type* next = n->next.load(std::memory_order_relaxed);
      storage_.release(n);
      n = next;
    }
    for (std::uint32_t i = 0; i < n_; ++i) {
      // kpq-order: relaxed pairs-with none (quiescent, see above)
      desc_type* d = state_[i]->load(std::memory_order_relaxed);
      assert(!d->pending && "destroying a queue with an operation in flight");
      free_desc(d);
    }
    // reclaim_ and pool_ drain their retired/cached objects on destruction;
    // reclaim_ is declared after storage_ and pool_ so its drain still has
    // a live storage and pool to recycle into (storage_concepts.hpp).
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
  //     footnote 3), and descriptor identity — never the phase — is what
  //     the completion CASes compare. A batch item publishing an "old"
  //     phase can only make itself MORE helpable.
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
  const pool_type& descriptor_pool() const noexcept {
    return pool_;
  }

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

  /// paper lines 48-57
  template <typename Guard>
  std::int64_t max_phase(Guard& g) {
    std::int64_t m = no_phase;
    for (std::uint32_t i = 0; i < n_; ++i) {
      desc_type* d = g.protect(s_desc, state_[i].get());
      if (d->phase > m) m = d->phase;
    }
    return m;
  }

  /// paper lines 38-44: one iteration of the help() loop body. `my` is the
  /// helping thread's own id (reclamation bookkeeping).
  template <typename Guard>
  void help_if_needed(std::uint32_t i, std::int64_t phase, Guard& g,
                      std::uint32_t my) {
    desc_type* d = g.protect(s_desc, state_[i].get());
    if (d->pending && d->phase <= phase) {  // line 39
      // A helping episode: this thread works on thread i's operation. Own
      // operations (i == my) are not episodes — that is just completing.
      // The victim's phase is captured while `d` is still hazard-protected:
      // help_enq/help_deq reuse the s_desc slot, and completion retires the
      // descriptor, so `d` must not be dereferenced after they return.
      const bool traced_episode = trace_type::enabled && i != my;
      const std::int64_t victim_phase = traced_episode ? d->phase : 0;
      if (traced_episode) {
        trace_type::record(my, obs::trace_kind::help_start, victim_phase, i);
      }
      if (d->enqueue) {
        help_enq(i, phase, g, my);  // line 41
      } else {
        help_deq(i, phase, g, my);  // line 43
      }
      if (traced_episode) {
        trace_type::record(my, obs::trace_kind::help_finish, victim_phase, i);
      }
    }
  }

 private:
  friend struct kpq::testing::whitebox;

  using state_slot = std::atomic<desc_type*>;

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
  // The paper's operation once its phase is drawn: publish the descriptor,
  // help, finish. A queue with a fast path reaches these only after its
  // fast attempts failed; its probe already helped a peer, so it completes
  // only its own operation here.

  /// paper lines 63-65
  template <typename Guard>
  void announce_enq(std::uint32_t tid, std::int64_t phase, node_type* node,
                    Guard& g) {
    publish(tid, pool_.make(tid, phase, true, true, node));  // line 63
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
    help_finish_enq(tid, g);  // line 65
    if constexpr (trace_type::enabled) {
      trace_type::record(tid, obs::trace_kind::enq_complete, phase, 0);
    }
  }

  /// paper lines 100-107
  template <typename Guard>
  std::optional<T> announce_deq(std::uint32_t tid, std::int64_t phase,
                                Guard& g) {
    publish(tid, pool_.make(tid, phase, true, false, nullptr));  // line 100
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
    // Our completed descriptor may still be replaced by an equivalent copy
    // by a helper finishing stage 2/3 late, so protect before reading.
    desc_type* d = g.protect(s_desc, state_[tid].get());  // line 103
    std::optional<T> result;
    if (d->node != nullptr) {
      result = d->value;  // §3.4: payload lives in d
      record_residency(tid, *d);
    }
    if constexpr (Options::collect_stats) {
      if (!result.has_value()) ++stats_[tid]->empty_deqs;
    }
    if constexpr (trace_type::enabled) {
      trace_type::record(tid, obs::trace_kind::deq_complete, phase,
                         result.has_value() ? 1 : 0);
    }
    g.clear(s_desc);
    return result;  // d->node == nullptr: linearized on an empty queue
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
    desc_type* d = g.protect(s_desc, state_[candidate].get());
    if (!d->pending) return;
    if (d->enqueue) {
      help_enq(candidate, d->phase, g, my);
    } else {
      help_deq(candidate, d->phase, g, my);
    }
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
      T value = next->value;
      const residency_base<track_residency> stamp = *next;
      std::int32_t expected = no_tid;
      if (first->deq_tid.compare_exchange_strong(
              expected, fast_claim_base + static_cast<std::int32_t>(tid),
              std::memory_order_seq_cst)) {
        count_fast(tid, /*is_enq=*/false);
        help_finish_deq(tid, g);  // swing head; winner retires the sentinel
        record_residency(tid, stamp);
        out = std::move(value);
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
  void count_fast(std::uint32_t tid, bool is_enq) noexcept {
    if constexpr (Options::collect_stats) {
      wf_counters& c = stats_[tid].get();
      ++(is_enq ? c.enq_ops : c.deq_ops);
      ++(is_enq ? c.fast_enqs : c.fast_deqs);
    } else {
      (void)tid;
      (void)is_enq;
    }
  }

  // ------------------------------------------------------------- allocation
  // Nodes live wherever the Storage policy puts them (storage/); descriptors
  // stay heap objects recycled through desc_pool — they are small, reused
  // aggressively, and their lifetime is tied to `state`, not the list. The
  // reclaimer hands a retired descriptor back to the retiring thread's pool.

  node_type* alloc_node(std::uint32_t tid, T v, std::int32_t etid) {
    return storage_.alloc(tid, std::move(v), etid, reclaim_);
  }
  void free_desc(desc_type* d) noexcept {
    account_free(sizeof(desc_type));
    delete d;
  }

  void retire_node(std::uint32_t tid, node_type* n) {
    if constexpr (trace_type::enabled) {
      trace_type::record(tid, obs::trace_kind::retire, 0, 0);
    }
    storage_.retire(tid, n, reclaim_);
  }
  void retire_desc(std::uint32_t tid, desc_type* d) {
    reclaim_.retire(tid, d, &pool_type::reclaim_fn, pool_.retire_ctx(tid));
  }

  /// Owner installs a fresh descriptor; the displaced one is retired here,
  /// exactly once (see file comment on why exchange, not store).
  void publish(std::uint32_t tid, desc_type* d) {
    desc_type* old = state_[tid]->exchange(d, std::memory_order_seq_cst);
    retire_desc(tid, old);
  }

  /// Try to swap state_[tid]: curr -> repl. Retires curr on success,
  /// recycles repl (never published) on failure. `curr` must be pinned by
  /// the caller (slot s_desc) — that pin is what makes the CAS ABA-free.
  bool swap_state(std::uint32_t tid, std::uint32_t my_tid, desc_type* curr,
                  desc_type* repl) {
    desc_type* expected = curr;
    if (state_[tid]->compare_exchange_strong(expected, repl,
                                             std::memory_order_seq_cst)) {
      retire_desc(my_tid, curr);
      return true;
    }
    if constexpr (Options::collect_stats) ++stats_[my_tid]->desc_cas_failures;
    pool_.recycle(my_tid, repl);
    return false;
  }

  // ----------------------------------------------------------------- helping

  /// paper lines 58-60 (descriptor must be re-read each call; the returned
  /// snapshot is consistent because descriptors are immutable).
  template <typename Guard>
  bool is_still_pending(std::uint32_t tid, std::int64_t ph, Guard& g) {
    desc_type* d = g.protect(s_desc, state_[tid].get());
    return d->pending && d->phase <= ph;
  }

  /// paper lines 67-84. `tid` owns the pending enqueue; the caller's thread
  /// id only matters for reclamation bookkeeping and is carried by `g`'s
  /// slots plus `my` below.
  template <typename Guard>
  void help_enq(std::uint32_t tid, std::int64_t phase, Guard& g,
                std::uint32_t my) {
    while (is_still_pending(tid, phase, g)) {                  // line 68
      node_type* last = g.protect(s_last, tail_);              // line 69
      node_type* next = g.protect(s_next, last->next);         // line 70
      if (last != tail_.load(std::memory_order_seq_cst)) {     // line 71
        continue;
      }
      if (next == nullptr) {  // line 72: enqueue can be applied
        // line 73: the operation must still be pending, and we must fetch
        // the node from the *current* descriptor...
        desc_type* d = g.protect(s_desc, state_[tid].get());
        if (!(d->pending && d->phase <= phase)) continue;
        node_type* node = d->node;
        // ...and pin that node across the CAS: a pending descriptor's node
        // is not yet retired (it cannot be dequeued before the operation's
        // pending flag clears), and the pin keeps it so.
        g.protect_raw(s_node, node);
        if (state_[tid]->load(std::memory_order_seq_cst) != d) continue;
        node_type* expected = nullptr;
        if (last->next.compare_exchange_strong(
                expected, node, std::memory_order_seq_cst)) {  // line 74
          g.clear(s_node);
          help_finish_enq(my, g);  // line 75
          return;                  // line 76
        }
        if constexpr (Options::collect_stats) ++stats_[my]->link_cas_failures;
        g.clear(s_node);
      } else {                          // line 79: an enqueue is in progress
        help_finish_enq(my, g);           // line 80: help it first, then retry
      }
    }
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
      // A fast node has no descriptor: only the tail swing (step 3)
      // applies, and skipping step 2 is safe because nothing is pending.
      if (etid == no_tid) {
        tail_.compare_exchange_strong(last, next, std::memory_order_seq_cst);
        return;
      }
    }
    assert(etid != no_tid);
    const auto tid = static_cast<std::uint32_t>(etid);
    desc_type* cur = g.protect(s_desc, state_[tid].get());  // line 90
    if (last == tail_.load(std::memory_order_seq_cst) &&
        cur->node == next) {  // line 91 (cur is current: protect validated)
      // §3.3 enhancement 3: if step (2) is already done, skip straight to
      // the tail swing (still safe: stage 3 only ever follows a completed
      // stage 2, which pending==false certifies).
      if (!Options::precheck_cas || cur->pending) {
        // line 92: new descriptor marking the operation linearized...
        desc_type* fresh = pool_.make(my, cur->phase, false, true, next);
        const bool won = swap_state(tid, my, cur, fresh);  // line 93 (step 2)
        if constexpr (Options::collect_stats) {
          if (won && tid != my) ++stats_[my]->helped_enq_completions;
        }
      }
      tail_.compare_exchange_strong(last, next,
                                    std::memory_order_seq_cst);  // 94 (step 3)
    }
  }

  /// paper lines 109-140.
  template <typename Guard>
  void help_deq(std::uint32_t tid, std::int64_t phase, Guard& g,
                std::uint32_t my) {
    while (is_still_pending(tid, phase, g)) {              // line 110
      node_type* first = g.protect(s_first, head_);        // line 111
      node_type* last = tail_.load(std::memory_order_seq_cst);  // line 112
      node_type* next = g.protect(s_next, first->next);    // line 113
      if (first != head_.load(std::memory_order_seq_cst)) {  // line 114
        continue;
      }
      if (first == last) {      // line 115: queue might be empty
        if (next == nullptr) {  // line 116: queue is empty
          desc_type* cur = g.protect(s_desc, state_[tid].get());  // line 117
          if (last == tail_.load(std::memory_order_seq_cst) &&
              cur->pending && cur->phase <= phase) {  // line 118
            // lines 119-120: mark the operation completed-empty.
            desc_type* fresh =
                pool_.make(my, cur->phase, false, false, nullptr);
            swap_state(tid, my, cur, fresh);
          }
        } else {                     // line 122: an enqueue is in progress
          help_finish_enq(my, g);    // line 123
        }
      } else {  // line 125: queue is not empty
        desc_type* cur = g.protect(s_desc, state_[tid].get());  // line 126
        node_type* node = cur->node;                            // line 127
        if (!(cur->pending && cur->phase <= phase)) break;      // line 128
        if (first == head_.load(std::memory_order_seq_cst) &&
            node != first) {  // line 129
          // lines 130-131: stage 0 — point tid's state at the sentinel.
          desc_type* fresh = pool_.make(my, cur->phase, true, false, first);
          if (!swap_state(tid, my, cur, fresh)) {
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
      // A fast claim has no descriptor: only the head swing (step 3).
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
    desc_type* cur = g.protect(s_desc, state_[tid].get());  // line 146
    if (first == head_.load(std::memory_order_seq_cst) &&
        next != nullptr) {  // line 147
      // §3.3 enhancement 3 (see help_finish_enq).
      if (!Options::precheck_cas || cur->pending) {
        // line 148 + §3.4: copy the payload out of the (pinned) successor
        // into the descriptor so the caller never revisits these nodes.
        desc_type* fresh =
            pool_.make(my, cur->phase, false, false, cur->node, next->value);
        // The residency stamp rides along with the payload — copied while
        // `next` is still pinned, whichever helper completes the op. This is
        // why helping does not distort residency: the stamp is a property of
        // the ITEM, carried unchanged to whoever returns it.
        if constexpr (track_residency) fresh->enq_ts = next->enq_ts;
        const bool won = swap_state(tid, my, cur, fresh);  // line 149 (step 2)
        if constexpr (Options::collect_stats) {
          if (won && tid != my) ++stats_[my]->helped_deq_completions;
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

  /// Residency measurement at dequeue-completion: the stamp was taken at
  /// enqueue-publish and carried through help_finish_deq into `d`. Clamped
  /// at zero against cross-core TSC skew (invariant TSC keeps this rare).
  void record_residency(std::uint32_t tid,
                        const residency_base<track_residency>& d) noexcept {
    if constexpr (track_residency) {
      const std::uint64_t now = residency_type::now();
      resi_.add(tid, now > d.enq_ts ? now - d.enq_ts : 0);
    } else {
      (void)tid;
      (void)d;
    }
  }

  // ------------------------------------------------------------------- data

  const std::uint32_t n_;
  // storage_ and pool_ before reclaim_: reclaimer shutdown drains segment
  // and descriptor retirements through callbacks into them.
  Storage storage_;
  pool_type pool_;
  Reclaimer reclaim_;
  HelpPolicy help_;
  PhasePolicy phase_;

  alignas(destructive_interference) std::atomic<node_type*> head_{nullptr};
  alignas(destructive_interference) std::atomic<node_type*> tail_{nullptr};
  std::vector<padded<state_slot>> state_;  // paper line 26
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
