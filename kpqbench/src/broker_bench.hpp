// The broker workload: a closed loop of coroutine sessions on one pinned
// event-loop thread. Each session sends its next echo request only after
// the previous reply arrived; requests route through
// async_sharded<Q, key_hash_shards> and worker coroutines co_dequeue_any,
// echo the payload and post the session back to the loop.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "async/event_loop.hpp"
#include "async/task.hpp"
#include "harness/mem_tracker.hpp"
#include "measure.hpp"
#include "queue_bench.hpp"
#include "scale/async_shards.hpp"
#include "scale/shard_policy.hpp"
#include "sync/thread_registry.hpp"

namespace kpqbench {

/// Generated inputs of the broker workload.
struct broker_inputs {
  std::uint32_t shards = 4;
  std::uint32_t workers = 2;       // echo coroutines
  std::uint64_t warmup_requests = 0;  // per session, part of set-up
  std::vector<std::uint64_t> keys;      // per session: routing key
  std::vector<std::uint64_t> payloads;  // per session: payload seed
};

struct broker_request {
  std::uint64_t key = 0;
  std::uint64_t rid = 0;
  std::uint64_t payload = 0;
  std::uint64_t response = 0;
  std::coroutine_handle<> h{};
  std::uint32_t served = 0;
  bool done = false;
};

struct broker_key {
  std::uint64_t operator()(const broker_request* r) const noexcept {
    return r->key;
  }
};

struct broker_result {
  double setup_s = 0;
  window_timing window;
  std::uint64_t requests = 0;  // round trips completed in the window
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::uint32_t> op_ns;   // every session co_enqueue (submit)
  std::vector<std::uint32_t> rtt_ns;  // every submit -> reply
  std::int64_t peak_live = 0;
  // traced only
  loglin_hist enq_h, deq_h, co_enq_h, co_deq_h;
  kpq::wf_counters counters;
  std::uint64_t core_calls = 0, allocs = 0, retired = 0, freed = 0,
                pending_max = 0;
  double live_per_item = 0;
  std::vector<std::uint64_t> per_shard;
  std::uint64_t hub_parks = 0, hub_resumes = 0, hub_resume_ns = 0;
  kpq::async::loop_stats loop;
  std::vector<span> spans;
  std::uint64_t spans_dropped = 0;

  double throughput() const {
    return static_cast<double>(requests) / window.seconds();
  }
};

namespace detail {

constexpr std::uint64_t echo_mask = 0xa5a5'5a5a'c3c3'3c3cULL;
/// Only the loop thread touches the shards, so they are sized for one.
constexpr std::uint32_t loop_threads = 1;

/// Trace sink of the loop thread: the traced inner queue records its core
/// spans under whichever bench span is current.
struct broker_trace {
  span_recorder spans{0, 1u << 13};
  loglin_hist enq_h, deq_h;
  std::uint64_t current = 0;  // parent for core spans
  std::uint64_t calls = 0;
  bool open = false;  // the window has opened: record
};
inline thread_local broker_trace* tl_trace = nullptr;

/// Inner queue of the traced run: times every call into the core layer.
template <typename Q>
class traced_inner {
 public:
  using value_type = typename Q::value_type;
  traced_inner(std::uint32_t max_threads, kpq::mem_counters* mc)
      : q_(max_threads, mc) {}

  void enqueue(value_type v, std::uint32_t tid) {
    broker_trace& t = *tl_trace;
    if (!t.open) return q_.enqueue(v, tid);
    const std::uint64_t t0 = now_ns();
    const std::uint64_t id = t.spans.begin("core.enqueue", t.current, v->rid, t0);
    q_.enqueue(v, tid);
    const std::uint64_t t1 = now_ns();
    t.spans.end(id, t1);
    t.enq_h.add(t1 - t0);
    ++t.calls;
  }
  std::optional<value_type> dequeue(std::uint32_t tid) {
    broker_trace& t = *tl_trace;
    if (!t.open) return q_.dequeue(tid);
    const std::uint64_t t0 = now_ns();
    const std::uint64_t id = t.spans.begin("core.dequeue", t.current, 0, t0);
    auto r = q_.dequeue(tid);
    const std::uint64_t t1 = now_ns();
    t.spans.end(id, t1, r ? (*r)->rid : 0);
    t.deq_h.add(t1 - t0);
    ++t.calls;
    return r;
  }
  Q& inner() noexcept { return q_; }

 private:
  Q q_;
};

/// Coroutine start gate: the last session to arrive stamps the window
/// start and releases the others through the loop.
struct coro_gate {
  kpq::async::event_loop* loop = nullptr;
  std::uint64_t n = 0;
  std::uint64_t arrived = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t start_cpu_ns = 0;
  std::function<void()> on_open;
  std::vector<std::coroutine_handle<>> waiting;

  struct awaiter {
    coro_gate& g;
    bool await_ready() {
      if (++g.arrived < g.n) return false;
      if (g.on_open) g.on_open();
      g.start_cpu_ns = thread_cpu_ns();
      g.start_ns = now_ns();
      for (auto h : g.waiting) g.loop->post(h);
      g.waiting.clear();
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) { g.waiting.push_back(h); }
    std::uint64_t await_resume() const noexcept { return g.start_ns; }
  };
  awaiter arrive() { return awaiter{*this}; }
};

struct echo_awaiter {
  broker_request* r;
  bool await_ready() const noexcept { return r->done; }
  void await_suspend(std::coroutine_handle<> h) noexcept { r->h = h; }
  void await_resume() const noexcept {}
};

template <typename Shards, mode M>
struct broker_run {
  const broker_inputs& in;
  kpq::async::event_loop loop;
  Shards shards;
  kpq::mem_counters* mc;
  std::uint64_t window_ns;
  coro_gate gate;
  std::uint64_t sessions_left;
  std::uint64_t end_ns = 0, end_cpu_ns = 0;
  std::vector<broker_request> req;
  std::uint64_t completed = 0, sent = 0, bad = 0, double_serves = 0;
  std::vector<std::uint64_t> per_shard;
  std::vector<std::uint32_t> op_ns, rtt_ns;
  std::int64_t peak_live = 0;
  std::uint64_t pending_max = 0;
  loglin_hist co_enq_h, co_deq_h;
  broker_trace* trace = nullptr;

  broker_run(const broker_inputs& i, kpq::mem_counters* m, std::uint64_t wns)
      : in(i),
        shards(i.shards, loop_threads, m),
        mc(m),
        window_ns(wns),
        sessions_left(i.keys.size()),
        req(i.keys.size()),
        per_shard(i.shards, 0) {
    shards.set_executor(&loop);
    if constexpr (M != mode::traced) {  // the traced inner wf_queue seals
      for (std::uint32_t s = 0; s < i.shards; ++s) {
        shards.shard(s).queue().seal_baseline();  // see queue_round
      }
    }
    gate.loop = &loop;
    gate.n = i.keys.size();
    op_ns.reserve(detail::sample_cap * 4);
    rtt_ns.reserve(detail::sample_cap * 4);
  }

  void sample_window_state() {
    if constexpr (M == mode::footprint) {
      peak_live = std::max(peak_live, mc->live_bytes());
    }
    if constexpr (M == mode::traced) {
      std::uint64_t r = 0, f = 0;
      for (std::uint32_t s = 0; s < in.shards; ++s) {
        r += shards.shard(s).queue().inner().reclaimer().retired_count();
        f += shards.shard(s).queue().inner().reclaimer().freed_count();
      }
      if (r > f) pending_max = std::max(pending_max, r - f);
    }
  }

  kpq::async::task<void> session(std::size_t idx) {
    broker_request& r = req[idx];
    r.key = in.keys[idx];
    bool in_window = false;
    std::uint64_t deadline = 0;
    for (std::uint64_t k = 0;; ++k) {
      if (!in_window && k == in.warmup_requests) {
        deadline = co_await gate.arrive() + window_ns;
        in_window = true;
      }
      r.rid = (static_cast<std::uint64_t>(idx) << 40) | k | (1ULL << 63);
      r.payload = mix64(in.payloads[idx] + k);
      r.done = false;
      r.served = 0;
      const std::uint64_t t0 = now_ns();
      std::uint64_t root = 0, child = 0, saved = 0;
      if constexpr (M == mode::traced) {
        if (in_window) {
          root = trace->spans.begin("broker.request", 0, r.rid, t0);
          child = trace->spans.begin("async.co_enqueue", root, r.rid, t0);
          saved = trace->current;
          trace->current = child;
        }
      }
      (void)co_await shards.co_enqueue(&r);  // unbounded: never suspends
      const std::uint64_t t1 = now_ns();
      if constexpr (M == mode::traced) {
        if (in_window) {
          trace->spans.end(child, t1);
          trace->current = saved;
          co_enq_h.add(t1 - t0);
        }
      }
      ++sent;
      co_await echo_awaiter{&r};
      const std::uint64_t t2 = now_ns();
      if (r.response != (r.payload ^ echo_mask) || r.served != 1) ++bad;
      if (!in_window) continue;
      if constexpr (M == mode::traced) trace->spans.end(root, t2);
      ++completed;
      if constexpr (M == mode::plain) {
        if (rtt_ns.size() < rtt_ns.capacity()) {
          rtt_ns.push_back(static_cast<std::uint32_t>(t2 - t0));
        }
        if (op_ns.size() < op_ns.capacity()) {
          op_ns.push_back(static_cast<std::uint32_t>(t1 - t0));
        }
      }
      sample_window_state();
      if (t2 >= deadline) break;
    }
    if (--sessions_left == 0) {
      end_cpu_ns = thread_cpu_ns();
      end_ns = now_ns();
      shards.close_all();
    }
  }

  kpq::async::task<void> worker() {
    for (std::uint64_t n = 0;; ++n) {
      const std::uint64_t t0 = now_ns();
      std::uint64_t id = 0;
      if constexpr (M == mode::traced) {
        if (gate.start_ns != 0) {
          id = trace->spans.begin("async.co_dequeue_any", 0, 0, t0);
        }
        trace->current = id;
      }
      auto got = co_await shards.co_dequeue_any();
      const std::uint64_t t1 = now_ns();
      if (!got.value) co_return;  // every shard closed and drained
      broker_request* r = *got.value;
      if constexpr (M == mode::traced) {
        trace->spans.end(id, t1, r->rid);
        trace->current = 0;
        if (gate.start_ns != 0) co_deq_h.add(t1 - t0);
      }
      if (gate.start_ns != 0) ++per_shard[got.index];
      if (r->served++ != 0) ++double_serves;
      r->response = r->payload ^ echo_mask;
      r->done = true;
      loop.post(r->h);
      // Cooperative chunking (docs/ASYNC.md): bound the inline resume chain.
      if ((n & 0xff) == 0xff) co_await loop.yield();
    }
  }
};

/// Sums of the shards' waiter-hub statistics.
template <typename Shards>
void hub_totals(Shards& shards, std::uint32_t n, std::uint64_t& parks,
                std::uint64_t& resumes, std::uint64_t& resume_ns) {
  parks = resumes = resume_ns = 0;
  for (std::uint32_t s = 0; s < n; ++s) {
    const auto h = shards.shard(s).hub().stats();
    parks += h.parks;
    resumes += h.resumes;
    resume_ns += h.resume_ns_total;
  }
}

}  // namespace detail

/// One broker round on the pool's single pinned thread, which runs the
/// event loop: set-up (construction, worker and session spawn, warm-up
/// requests), the window, then the check.
template <typename Inner, mode M>
broker_result run_broker_round(worker_pool& pool, const broker_inputs& in,
                               double window_s) {
  using shards_t =
      kpq::async::async_sharded<Inner, kpq::key_hash_shards<broker_key>>;
  broker_result out;
  pool.each([&](std::uint32_t) {
      if (kpq::this_thread_id() >= detail::loop_threads) {
        throw std::runtime_error("loop thread id exceeds the shards' size");
      }
      detail::broker_trace trace;
      detail::tl_trace = &trace;
      const std::uint64_t t_setup = now_ns();
      kpq::mem_counters mc;
      constexpr bool counted = M == mode::footprint || M == mode::traced;
      auto run = std::make_unique<detail::broker_run<shards_t, M>>(
          in, counted ? &mc : nullptr,
          static_cast<std::uint64_t>(window_s * 1e9));
      auto& b = *run;
      b.trace = &trace;
      kpq::wf_counters c0;
      std::uint64_t allocs0 = 0, retired0 = 0, freed0 = 0, calls0 = 0,
                    parks0 = 0, resumes0 = 0, resume_ns0 = 0;
      kpq::async::loop_stats l0;
      if constexpr (M == mode::traced) {
        out.live_per_item =
            static_cast<double>(mc.live_bytes()) / static_cast<double>(in.shards);
        b.gate.on_open = [&] {
          for (std::uint32_t s = 0; s < in.shards; ++s) {
            auto& q = b.shards.shard(s).queue().inner();
            const kpq::wf_counters c = q.aggregate_counters();
            c0 += c;
            retired0 += q.reclaimer().retired_count();
            freed0 += q.reclaimer().freed_count();
          }
          allocs0 = mc.total_allocs();
          calls0 = trace.calls;
          trace.open = true;
          detail::hub_totals(b.shards, in.shards, parks0, resumes0, resume_ns0);
          l0 = b.loop.stats();
        };
      }
      for (std::uint32_t w = 0; w < in.workers; ++w) b.loop.spawn(b.worker());
      for (std::size_t s = 0; s < in.keys.size(); ++s) b.loop.spawn(b.session(s));
      b.loop.run();

      out.setup_s = static_cast<double>(b.gate.start_ns - t_setup) * 1e-9;
      out.window.start_ns = b.gate.start_ns;
      out.window.end_ns = b.end_ns;
      worker_stamp ws;
      ws.start_ns = b.gate.start_ns;
      ws.end_ns = b.end_ns;
      ws.cpu_ns = b.end_cpu_ns - b.gate.start_cpu_ns;
      out.window.workers.push_back(ws);
      out.requests = b.completed;
      out.op_ns = std::move(b.op_ns);
      out.rtt_ns = std::move(b.rtt_ns);
      out.peak_live = b.peak_live;
      out.pending_max = b.pending_max;
      out.per_shard = b.per_shard;
      if constexpr (M == mode::traced) {
        kpq::wf_counters c1;
        std::uint64_t r1 = 0, f1 = 0;
        for (std::uint32_t s = 0; s < in.shards; ++s) {
          auto& q = b.shards.shard(s).queue().inner();
          c1 += q.aggregate_counters();
          r1 += q.reclaimer().retired_count();
          f1 += q.reclaimer().freed_count();
        }
        out.counters = detail::minus(c1, c0);
        out.retired = r1 - retired0;
        out.freed = f1 - freed0;
        out.allocs = mc.total_allocs() - allocs0;
        out.core_calls = trace.calls - calls0;
        std::uint64_t p1 = 0, r_1 = 0, ns1 = 0;
        detail::hub_totals(b.shards, in.shards, p1, r_1, ns1);
        out.hub_parks = p1 - parks0;
        out.hub_resumes = r_1 - resumes0;
        out.hub_resume_ns = ns1 - resume_ns0;
        const auto l1 = b.loop.stats();
        out.loop = l1;
        out.loop.resumes = l1.resumes - l0.resumes;
        out.loop.ready_lag_ns_total = l1.ready_lag_ns_total - l0.ready_lag_ns_total;
        out.enq_h = trace.enq_h;
        out.deq_h = trace.deq_h;
        out.co_enq_h = b.co_enq_h;
        out.co_deq_h = b.co_deq_h;
        out.spans = trace.spans.spans();
        out.spans_dropped = trace.spans.dropped();
      }

      // The check: every session finished, every echo right, every
      // request served once, nothing left behind in the shards.
      std::uint64_t leftovers = 0;
      while (b.shards.try_dequeue(kpq::this_thread_id()).has_value()) ++leftovers;
      out.attempted = b.sent;
      out.failed = b.bad + b.double_serves + leftovers + b.sessions_left +
                   (b.loop.active() != 0 ? 1 : 0);
      detail::tl_trace = nullptr;
  });
  return out;
}

}  // namespace kpqbench
