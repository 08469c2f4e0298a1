// The queue workloads (solo, pairs, deep): pinned workers drive one queue
// through its public enqueue/dequeue calls, inside a worker-clocked window,
// and every round ends with the exactly-once / per-producer FIFO check.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/wf_queue.hpp"
#include "harness/mem_tracker.hpp"
#include "harness/workload.hpp"
#include "measure.hpp"

namespace kpqbench {

/// What a round measures. plain: throughput, sampled call latency and item
/// round trips (the end-to-end run). footprint: the same with mem_counters
/// attached and sampled for the peak (kept out of plain rounds because the
/// shared counters add contended RMWs to every allocation). traced: every
/// call timed into histograms and spans, wf_options_stats counters, memory
/// and reclamation counts. lf: throughput only (the ms_queue control).
enum class mode { plain, footprint, traced, lf };

/// Generated inputs of a queue workload.
struct queue_inputs {
  std::uint32_t workers = 1;
  std::uint64_t prefill = 0;
  std::uint64_t warmup_ops = 0;  // per worker, part of set-up
  /// Per worker: 1 = enqueue, 0 = dequeue, a power-of-two count of them,
  /// cycled from offset[w]. The pair workloads use "10" from an even
  /// offset, so every window stop falls between pairs.
  std::vector<std::vector<std::uint8_t>> pattern;
  std::vector<std::uint64_t> offset;
  bool pairs = false;  // spans group enqueue+dequeue under one bench.pair
};

struct round_result {
  double setup_s = 0;
  window_timing window;
  std::uint64_t ops = 0;        // completed calls inside the window
  std::uint64_t attempted = 0;  // every call of the round, drain included
  std::uint64_t failed = 0;
  std::vector<std::uint32_t> op_ns;  // sampled call latency
  std::vector<std::uint64_t> rtt_ns;  // sampled enqueue-start -> dequeued
  std::int64_t peak_live = 0;
  // traced only
  loglin_hist enq_h, deq_h;
  kpq::wf_counters counters;
  std::uint64_t allocs = 0, retired = 0, freed = 0, pending_max = 0;
  double live_per_item = 0;
  std::vector<span> spans;
  std::uint64_t spans_dropped = 0;

  double throughput() const { return static_cast<double>(ops) / window.seconds(); }
};

namespace detail {

constexpr std::uint64_t sample_mask = 7;            // 1 call in 8 is timed
constexpr std::size_t sample_cap = 1u << 20;        // kept samples / worker
constexpr std::size_t stamp_cap = 1u << 20;         // stamped items / worker
constexpr std::size_t span_cap = 1u << 12;          // kept spans / worker

struct alignas(128) worker_state {
  explicit worker_state(std::uint32_t tid, std::uint32_t producers)
      : last(producers, 0), spans(tid, span_cap) {}
  std::uint64_t pos = 0;  // pattern position
  std::uint64_t seq = 0;  // next own sequence number
  std::uint64_t ops = 0, calls = 0;
  std::vector<std::uint64_t> last;  // per producer: last seen seq + 1
  std::uint64_t enq_hash = 0, deq_hash = 0, deq_count = 0, fifo_bad = 0;
  std::vector<std::uint32_t> op_ns;
  std::vector<std::uint64_t> stamps;  // enqueue start of item seq, by seq/8
  std::vector<std::uint64_t> rtt_ns;
  std::int64_t peak_live = 0;
  std::uint64_t pending_max = 0;
  loglin_hist enq_h, deq_h;
  span_recorder spans;
  std::uint64_t open_pair = 0;  // span id of the pair in progress
};

/// Counters accumulated between two quiescent snapshots.
inline kpq::wf_counters minus(const kpq::wf_counters& a,
                              const kpq::wf_counters& b) {
  kpq::wf_counters d;
  d.enq_ops = a.enq_ops - b.enq_ops;
  d.deq_ops = a.deq_ops - b.deq_ops;
  d.empty_deqs = a.empty_deqs - b.empty_deqs;
  d.helped_enq_completions = a.helped_enq_completions - b.helped_enq_completions;
  d.helped_deq_completions = a.helped_deq_completions - b.helped_deq_completions;
  d.link_cas_failures = a.link_cas_failures - b.link_cas_failures;
  d.desc_cas_failures = a.desc_cas_failures - b.desc_cas_failures;
  return d;
}

/// Request id of an item's spans: the value itself, tagged non-zero.
inline std::uint64_t item_rid(std::uint64_t v) noexcept {
  return v | (1ULL << 63);
}

/// Checks one dequeued value against the consumer's per-producer record.
inline void observe(std::uint64_t v, std::uint32_t producers,
                    std::vector<std::uint64_t>& last, std::uint64_t& hash,
                    std::uint64_t& count, std::uint64_t& bad) {
  const std::uint32_t p = kpq::value_tid(v);
  const std::uint64_t s = kpq::value_seq(v);
  if (p >= producers || s + 1 <= last[p]) {
    ++bad;
  } else {
    last[p] = s + 1;
  }
  hash += mix64(v);
  ++count;
}

template <typename Q, mode M>
class queue_round {
 public:
  queue_round(const queue_inputs& in, kpq::mem_counters* mc)
      : in_(in),
        producers_(in.workers + 1),
        q_(std::make_unique<Q>(in.workers + 1, mc)),
        mc_(mc) {
    // ms_queue's constructor leaves its memory-accounting baseline open
    // (wf_queue seals its own); open, every allocation on every thread
    // writes the baseline counters, a data race. Seal it as wf_queue does.
    q_->seal_baseline();
  }

  Q& queue() { return *q_; }

  void prefill(std::uint64_t& hash) {
    const std::uint32_t tid = in_.workers;
    for (std::uint64_t i = 0; i < in_.prefill; ++i) {
      const std::uint64_t v = kpq::encode_value(tid, i);
      q_->enqueue(v, tid);
      hash += mix64(v);
    }
  }

  void make_states() {
    for (std::uint32_t w = 0; w < in_.workers; ++w) {
      auto s = std::make_unique<worker_state>(w, producers_);
      s->pos = in_.offset[w];
      if constexpr (M == mode::plain) {
        s->op_ns.reserve(sample_cap);
        s->stamps.assign(stamp_cap, 0);
        s->rtt_ns.reserve(sample_cap);
      }
      st_.push_back(std::move(s));
    }
  }

  /// Warm-up calls: same operations, nothing sampled.
  void warm(std::uint32_t w) {
    worker_state& s = *st_[w];
    for (std::uint64_t i = 0; i < in_.warmup_ops; ++i) step<false>(s, w);
  }

  void window(std::uint32_t w, std::uint64_t start, std::uint64_t window_ns) {
    worker_state& s = *st_[w];
    const std::uint64_t deadline = start + window_ns;
    for (std::uint64_t i = 0;; ++i) {
      if ((i & 31) == 0) {
        if (now_ns() >= deadline) break;
        if constexpr (M == mode::footprint) {
          s.peak_live = std::max(s.peak_live, mc_->live_bytes());
        }
        if constexpr (M == mode::traced) {
          const std::uint64_t r = q_->reclaimer().retired_count();
          const std::uint64_t f = q_->reclaimer().freed_count();
          if (r > f) s.pending_max = std::max(s.pending_max, r - f);
        }
      }
      step<true>(s, w);
      ++s.ops;
    }
  }

  std::vector<std::unique_ptr<worker_state>>& states() { return st_; }

 private:
  template <bool Window>
  void step(worker_state& s, std::uint32_t tid) {
    const auto& pat = in_.pattern[tid];
    const bool enq = pat[s.pos & (pat.size() - 1)] != 0;
    ++s.pos;
    ++s.calls;
    if constexpr (M == mode::traced && Window) {
      if (in_.pairs) {
        // One root span per enqueue->dequeue pair, the calls as children.
        if (enq) {
          s.open_pair = s.spans.begin(
              "bench.pair", 0, item_rid(kpq::encode_value(tid, s.seq)), now_ns());
          enqueue<Window>(s, tid, s.open_pair);
        } else {
          dequeue<Window>(s, tid, s.open_pair);
          s.spans.end(s.open_pair, now_ns());
        }
        return;
      }
    }
    if (enq) {
      enqueue<Window>(s, tid, 0);
    } else {
      dequeue<Window>(s, tid, 0);
    }
  }

  template <bool Window>
  void enqueue(worker_state& s, std::uint32_t tid, std::uint64_t parent) {
    const std::uint64_t v = kpq::encode_value(tid, s.seq);
    s.enq_hash += mix64(v);
    if constexpr (Window && M == mode::plain) {
      if ((s.seq & sample_mask) == 0) {
        const std::uint64_t t0 = now_ns();
        if ((s.seq >> 3) < stamp_cap) s.stamps[s.seq >> 3] = t0;
        q_->enqueue(v, tid);
        const std::uint64_t t1 = now_ns();
        if (s.op_ns.size() < sample_cap) s.op_ns.push_back(static_cast<std::uint32_t>(t1 - t0));
        ++s.seq;
        return;
      }
    }
    if constexpr (Window && M == mode::traced) {
      const std::uint64_t t0 = now_ns();
      const std::uint64_t id = s.spans.begin("core.enqueue", parent, item_rid(v), t0);
      q_->enqueue(v, tid);
      const std::uint64_t t1 = now_ns();
      s.spans.end(id, t1);
      s.enq_h.add(t1 - t0);
      ++s.seq;
      return;
    }
    q_->enqueue(v, tid);
    ++s.seq;
  }

  template <bool Window>
  void dequeue(worker_state& s, std::uint32_t tid, std::uint64_t parent) {
    const bool timed = Window && M == mode::plain && (s.deq_count & sample_mask) == 0;
    std::uint64_t t0 = 0;
    std::uint64_t id = 0;
    if (timed || (Window && M == mode::traced)) t0 = now_ns();
    if constexpr (Window && M == mode::traced) {
      id = s.spans.begin("core.dequeue", parent, 0, t0);
    }
    const std::optional<std::uint64_t> r = q_->dequeue(tid);
    std::uint64_t t1 = 0;
    if constexpr (Window && M == mode::traced) {
      t1 = now_ns();
      s.spans.end(id, t1, r ? item_rid(*r) : 0);
      s.deq_h.add(t1 - t0);
    }
    if (!r) {
      if (timed) {
        t1 = now_ns();
        if (s.op_ns.size() < sample_cap) s.op_ns.push_back(static_cast<std::uint32_t>(t1 - t0));
      }
      return;
    }
    const std::uint64_t v = *r;
    observe(v, producers_, s.last, s.deq_hash, s.deq_count, s.fifo_bad);
    if constexpr (Window && M == mode::plain) {
      const std::uint32_t p = kpq::value_tid(v);
      const std::uint64_t sq = kpq::value_seq(v);
      const bool stamped = p < in_.workers && (sq & sample_mask) == 0 && (sq >> 3) < stamp_cap;
      if (timed || stamped) {
        t1 = now_ns();
        if (timed && s.op_ns.size() < sample_cap) s.op_ns.push_back(static_cast<std::uint32_t>(t1 - t0));
        if (stamped) {
          // The producer wrote the stamp before its enqueue; the queue's
          // link/claim CASes order that write before this read.
          const std::uint64_t stamp = st_[p]->stamps[sq >> 3];
          if (stamp != 0 && s.rtt_ns.size() < sample_cap) s.rtt_ns.push_back(t1 - stamp);
        }
      }
    }
  }

  const queue_inputs& in_;
  const std::uint32_t producers_;
  std::unique_ptr<Q> q_;
  kpq::mem_counters* mc_;
  std::vector<std::unique_ptr<worker_state>> st_;
};

}  // namespace detail

/// One round on the pool's workers (one per worker of `in`): set-up
/// (construction, prefill, warm-up),
/// a window of `window_s` seconds, then the drain and the check.
template <typename Q, mode M>
round_result run_round(worker_pool& pool, const queue_inputs& in,
                       double window_s) {
  round_result out;
  const std::uint64_t t_setup = now_ns();
  kpq::mem_counters mc;
  constexpr bool counted = M == mode::footprint || M == mode::traced;
  detail::queue_round<Q, M> d(in, counted ? &mc : nullptr);
  Q& q = d.queue();
  std::uint64_t enq_hash = 0;
  d.prefill(enq_hash);
  d.make_states();

  // Quiescent snapshot before the workers start (traced counters are
  // reported per call made by the workers: warm-up plus window).
  kpq::wf_counters c0;
  std::uint64_t allocs0 = 0, retired0 = 0, freed0 = 0;
  if constexpr (M == mode::traced) {
    out.live_per_item = static_cast<double>(mc.live_bytes()) /
                        static_cast<double>(in.prefill + 1);
    c0 = q.aggregate_counters();
    allocs0 = mc.total_allocs();
    retired0 = q.reclaimer().retired_count();
    freed0 = q.reclaimer().freed_count();
  }

  const auto window_ns = static_cast<std::uint64_t>(window_s * 1e9);
  out.window = run_window(
      pool, [&](std::uint32_t w) { d.warm(w); },
      [&](std::uint32_t w, std::uint64_t start) {
        d.window(w, start, window_ns);
      });
  out.setup_s = static_cast<double>(out.window.start_ns - t_setup) * 1e-9;

  auto& st = d.states();
  std::uint64_t worker_calls = 0;
  for (auto& s : st) worker_calls += s->calls;
  if constexpr (M == mode::traced) {
    out.counters = detail::minus(q.aggregate_counters(), c0);
    out.allocs = mc.total_allocs() - allocs0;
    out.retired = q.reclaimer().retired_count() - retired0;
    out.freed = q.reclaimer().freed_count() - freed0;
  }

  // Final drain by a consumer of its own, then the exactly-once check.
  std::vector<std::uint64_t> last(in.workers + 1, 0);
  std::uint64_t deq_hash = 0, deq_count = 0, bad = 0, drained = 0;
  while (const auto r = q.dequeue(in.workers)) {
    detail::observe(*r, in.workers + 1, last, deq_hash, deq_count, bad);
    ++drained;
  }
  std::uint64_t enq_count = in.prefill;
  for (auto& s : st) {
    enq_count += s->seq;
    enq_hash += s->enq_hash;
    deq_hash += s->deq_hash;
    deq_count += s->deq_count;
    bad += s->fifo_bad;
    out.ops += s->ops;
    out.peak_live = std::max(out.peak_live, s->peak_live);
    out.pending_max = std::max(out.pending_max, s->pending_max);
    out.op_ns.insert(out.op_ns.end(), s->op_ns.begin(), s->op_ns.end());
    out.rtt_ns.insert(out.rtt_ns.end(), s->rtt_ns.begin(), s->rtt_ns.end());
    out.enq_h.merge(s->enq_h);
    out.deq_h.merge(s->deq_h);
    out.spans.insert(out.spans.end(), s->spans.spans().begin(),
                     s->spans.spans().end());
    out.spans_dropped += s->spans.dropped();
  }
  const std::uint64_t lost_or_extra =
      enq_count > deq_count ? enq_count - deq_count : deq_count - enq_count;
  out.failed = bad + lost_or_extra +
               (lost_or_extra == 0 && enq_hash != deq_hash ? 1 : 0);
  out.attempted = in.prefill + worker_calls + drained + 1;
  return out;
}

}  // namespace kpqbench
