// Per-thread lock-free event tracing for the observability layer.
//
// Motivation (docs/OBSERVABILITY.md): wait-freedom is a *per-operation*
// claim — bounded steps, helping under contention — but aggregate counters
// (wf_counters, shard_stats) read at join can only show totals. The trace
// ring records one fixed-size event per interesting hot-path step (publish,
// linearize/complete, help-start/finish, retire, reclamation scan, shard
// steal) so helping latency and phase lag become measurable distributions,
// the same style of per-operation evidence wCQ (Nikolaev & Ravindran 2022)
// uses to substantiate its step bounds.
//
// Design constraints, in order:
//   1. Zero cost when compiled out. Every hook site is guarded by
//      `if constexpr (Trace::enabled)` on a recorder *policy*; with the
//      default `no_trace` policy (KPQ_TRACE undefined) the hooks vanish at
//      compile time — identical codegen to a hook-free build.
//   2. No synchronization on the hot path when compiled in. Each thread owns
//      one ring; only the owner writes it (single-writer invariant), with
//      relaxed stores and a release publish of the head index. Recording is
//      a TSC read, one array store and one index store — no RMW, no fence.
//   3. Bounded memory. Rings are fixed-size and wrap; old events are
//      overwritten, and the drop count is reported so an analysis knows when
//      it is looking at a suffix of the run.
//
// Drain contract: drain() requires quiescence (all recording threads joined
// or otherwise synchronized-with the drainer), exactly like every other
// read-at-sampling-point surface in this repo (mem_counters, wf_counters).
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "harness/timing.hpp"
#include "sync/cacheline.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace kpq::obs {

/// Cycle-granularity timestamp: TSC where available (x86-64 invariant TSC —
/// constant-rate, globally monotonic on every post-Nehalem part), steady
/// clock nanoseconds elsewhere. Units are "ticks"; estimate_tick_hz()
/// calibrates the conversion at analysis time.
inline std::uint64_t tick_now() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return now_ns();
#endif
}

/// Rough tick frequency (Hz), measured against the steady clock over a short
/// spin. Good to a few percent — enough to label histogram buckets in ns.
inline double estimate_tick_hz() {
#if defined(__x86_64__) || defined(_M_X64)
  const std::uint64_t t0 = tick_now();
  const std::uint64_t n0 = now_ns();
  std::uint64_t n1 = n0;
  while (n1 - n0 < 10'000'000) n1 = now_ns();  // ~10 ms window
  const std::uint64_t t1 = tick_now();
  return static_cast<double>(t1 - t0) * 1e9 / static_cast<double>(n1 - n0);
#else
  return 1e9;  // ticks are nanoseconds already
#endif
}

/// What happened. Kept to one byte; the event's meaning for `phase`/`aux` is
/// listed per kind (docs/OBSERVABILITY.md has the full schema table).
enum class trace_kind : std::uint8_t {
  enq_publish = 0,   // request published;    phase = op phase
  enq_complete = 1,  // enqueue returned;     phase = op phase
  deq_publish = 2,   // request published;    phase = op phase
  deq_complete = 3,  // dequeue returned;     phase = op phase, aux = 1 if hit
  help_start = 4,    // tid begins helping;   phase = victim phase, aux = victim
  help_finish = 5,   // helping returned;     phase = victim phase, aux = victim
  help_scan = 6,     // help-policy pass;     aux = slots examined
  retire = 7,        // node handed to the reclaimer
  reclaim_scan = 8,  // reclaimer scan pass;  aux = objects freed
  shard_steal = 9,   // dequeue served off-home; aux = serving shard
  shard_empty = 10,  // full shard scan found nothing; aux = home shard
  tuner_decision = 11,  // elastic tuner acted; phase = new scan epoch,
                        // aux = decision code (scale/tuner.hpp)
  waiter_park = 12,     // continuation suspended on a waiter_hub;
                        // aux = continuation kind (0 thread, 1 coroutine)
  waiter_resume = 13,   // accepted continuation running again;
                        // phase = accept->running latency (ns), aux = kind
};

inline constexpr const char* trace_kind_name(trace_kind k) noexcept {
  switch (k) {
    case trace_kind::enq_publish: return "enq_publish";
    case trace_kind::enq_complete: return "enq_complete";
    case trace_kind::deq_publish: return "deq_publish";
    case trace_kind::deq_complete: return "deq_complete";
    case trace_kind::help_start: return "help_start";
    case trace_kind::help_finish: return "help_finish";
    case trace_kind::help_scan: return "help_scan";
    case trace_kind::retire: return "retire";
    case trace_kind::reclaim_scan: return "reclaim_scan";
    case trace_kind::shard_steal: return "shard_steal";
    case trace_kind::shard_empty: return "shard_empty";
    case trace_kind::tuner_decision: return "tuner_decision";
    case trace_kind::waiter_park: return "waiter_park";
    case trace_kind::waiter_resume: return "waiter_resume";
  }
  return "unknown";
}

struct trace_event {
  std::uint64_t ts = 0;     // tick_now() at the hook site
  std::int64_t phase = 0;   // operation phase, or 0 where not applicable
  std::uint32_t tid = 0;    // recording (owner) thread
  std::uint32_t aux = 0;    // kind-specific (victim tid, shard, freed count)
  trace_kind kind = trace_kind::enq_publish;
};
static_assert(sizeof(trace_event) <= 32, "one event per half cache line");

/// Fixed-size single-writer ring. The owner thread records; anyone may read
/// AFTER synchronizing with the owner (join/barrier). Capacity is rounded up
/// to a power of two so the index wraps with a mask.
class trace_ring {
 public:
  explicit trace_ring(std::size_t capacity)
      : mask_(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity) - 1),
        buf_(mask_ + 1) {}

  void record(trace_kind kind, std::uint32_t tid, std::int64_t phase,
              std::uint32_t aux) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    trace_event& e = buf_[h & mask_];
    e.ts = tick_now();
    e.phase = phase;
    e.tid = tid;
    e.aux = aux;
    e.kind = kind;
    // Release-publish the slot so a drainer that acquires `head_` (after
    // quiescence this is belt-and-braces; join already synchronizes) sees
    // the completed event.
    head_.store(h + 1, std::memory_order_release);
  }

  std::size_t capacity() const noexcept { return mask_ + 1; }
  /// Events ever recorded (monotone; may exceed capacity).
  std::uint64_t written() const noexcept {
    return head_.load(std::memory_order_acquire);
  }
  /// Events overwritten by wrap-around and lost to drain().
  std::uint64_t dropped() const noexcept {
    const std::uint64_t w = written();
    return w > capacity() ? w - capacity() : 0;
  }

  /// Append the retained events, oldest first, to `out`. Quiescence
  /// required (see file comment).
  void drain(std::vector<trace_event>& out) const {
    const std::uint64_t w = written();
    const std::uint64_t lo = w > capacity() ? w - capacity() : 0;
    out.reserve(out.size() + static_cast<std::size_t>(w - lo));
    for (std::uint64_t i = lo; i < w; ++i) {
      out.push_back(buf_[i & mask_]);
    }
  }

  /// Raw slot access by sequence number (caller derives valid sequences from
  /// written()/capacity()). No allocation, no locks — usable from a signal
  /// handler (flight_recorder.cpp); outside a crash the usual quiescence
  /// caveat applies, a racing owner may be mid-overwrite of the slot.
  const trace_event& peek(std::uint64_t seq) const noexcept {
    return buf_[seq & mask_];
  }

  void reset() noexcept { head_.store(0, std::memory_order_release); }

 private:
  std::size_t mask_;
  std::vector<trace_event> buf_;
  std::atomic<std::uint64_t> head_{0};
};

/// One ring per dense thread id, allocated lazily on the owner's first
/// record so a 256-slot namespace does not cost 256 rings of memory.
class trace_domain {
 public:
  explicit trace_domain(std::uint32_t max_threads,
                        std::size_t capacity_per_thread = 1u << 14)
      : capacity_(capacity_per_thread), rings_(max_threads) {}

  ~trace_domain() {
    for (auto& r : rings_) {
      delete r.value.load(std::memory_order_acquire);
    }
  }

  trace_domain(const trace_domain&) = delete;
  trace_domain& operator=(const trace_domain&) = delete;

  std::uint32_t max_threads() const noexcept {
    return static_cast<std::uint32_t>(rings_.size());
  }
  std::size_t capacity_per_thread() const noexcept { return capacity_; }

  void record(std::uint32_t tid, trace_kind kind, std::int64_t phase,
              std::uint32_t aux) noexcept {
    ring_for(tid).record(kind, tid, phase, aux);
  }

  /// The calling thread's ring (lazy init is race-free because only the
  /// owner thread ever *stores* to its slot; the store is release so that
  /// observers taking ring_ptr() from another thread — the flight recorder's
  /// signal handler — see a fully constructed ring).
  trace_ring& ring_for(std::uint32_t tid) noexcept {
    trace_ring* r = rings_[tid].value.load(std::memory_order_relaxed);
    if (r == nullptr) {
      r = new trace_ring(capacity_);
      rings_[tid].value.store(r, std::memory_order_release);
    }
    return *r;
  }

  /// Read-only slot access from any thread; null until the owner's first
  /// record. Allocation-free and lock-free — async-signal-safe.
  const trace_ring* ring_ptr(std::uint32_t tid) const noexcept {
    return rings_[tid].value.load(std::memory_order_acquire);
  }

  /// All retained events across threads, sorted by timestamp. Quiescence
  /// required. `dropped_out`, if given, receives the total overwrite count —
  /// nonzero means the analysis sees only a suffix of the run.
  std::vector<trace_event> drain_all(std::uint64_t* dropped_out = nullptr) {
    std::vector<trace_event> out;
    std::uint64_t dropped = 0;
    for (auto& r : rings_) {
      if (const trace_ring* p = r.value.load(std::memory_order_acquire)) {
        p->drain(out);
        dropped += p->dropped();
      }
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const trace_event& a, const trace_event& b) {
                       return a.ts < b.ts;
                     });
    if (dropped_out) *dropped_out = dropped;
    return out;
  }

  void reset() noexcept {
    for (auto& r : rings_) {
      if (trace_ring* p = r.value.load(std::memory_order_acquire)) p->reset();
    }
  }

 private:
  std::size_t capacity_;
  std::vector<padded<std::atomic<trace_ring*>>> rings_;
};

/// Process-global domain the static recorder policy below writes into —
/// sized for the whole dense-id namespace, like the thread registry itself.
trace_domain& global_trace();

// ----------------------------------------------------------------- policies
// The recorder policy is a compile-time switch threaded through the queues'
// Options (wf_options::trace) and used directly by the non-templated layers
// (hazard pointers, sharded front-end) as `default_trace`.

/// Tracing compiled out: `enabled` is false, every hook site is removed by
/// `if constexpr`, and this build's codegen is byte-identical to a build
/// with no hooks at all.
struct no_trace {
  static constexpr bool enabled = false;
  static void record(std::uint32_t /*tid*/, trace_kind /*kind*/,
                     std::int64_t /*phase*/, std::uint32_t /*aux*/) noexcept {}
};

/// Tracing compiled in: record into the calling thread's global ring.
struct ring_trace {
  static constexpr bool enabled = true;
  static void record(std::uint32_t tid, trace_kind kind, std::int64_t phase,
                     std::uint32_t aux) noexcept {
    global_trace().record(tid, kind, phase, aux);
  }
};

#if defined(KPQ_TRACE)
using default_trace = ring_trace;
#else
using default_trace = no_trace;
#endif

}  // namespace kpq::obs
