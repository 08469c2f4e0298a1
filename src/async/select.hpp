// co_select: await "an element from ANY of N async queues" (boson-style
// select), the multiplex an event-loop service uses to serve several shards
// or priority lanes from one coroutine.
//
// Mechanics: one waiter node per queue hub, all sharing a single atomic
// claim. A notify on any hub runs try_accept on that queue's node, which
// races the claim — exactly one rival (one of N notifies, a stop_token
// cancellation) wins and resumes the coroutine; losers pass their token to
// the next waiter on their own hub (waiter_hub's pop_accepted skip), so a
// multi-parked select never eats a wakeup it does not use.
//
// Token re-gifting: the winner's token came from hub j, but the post-resume
// scan (which starts AT j) may end up consuming from queue k != j — e.g.
// queue j's item was stolen while the resume was in flight. In that case
// the token j delivered is returned via notify_one on hub j, so a
// co-parked consumer wakes for whatever j still holds. Without this, a
// select that stashes a re-check hit from one queue while a second queue's
// producer fires its token would strand that producer's item.
//
// Scan order: the ready-path scan (await_ready) starts at a given queue and
// wraps round once. co_select always starts at queue 0, so callers may use
// the order for lane priority. async_sharded::co_dequeue_any runs the same
// loop (detail::select_loop) from a rotating start: the queue after the one
// that served its previous call, so draining shards does not re-probe the
// ones already run dry. The park re-check and the post-resume scan keep
// their orders (0 and the fired queue).
#pragma once

#if !defined(__cpp_impl_coroutine)
#error "kpq/async requires C++20 coroutines (gate targets on KPQ_HAS_COROUTINES)"
#endif

#include <atomic>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stop_token>
#include <utility>
#include <vector>

#include "async/async_queue.hpp"
#include "async/coro_waiter.hpp"
#include "async/task.hpp"
#include "sync/thread_registry.hpp"
#include "sync/waiter_hub.hpp"

namespace kpq::async {

inline constexpr std::size_t select_npos = ~std::size_t{0};

template <typename V>
struct select_result {
  std::optional<V> value{};
  std::size_t index = select_npos;  // which queue served the value
  bool open = true;  // false: stopped, or every queue closed-and-drained
};

namespace detail {

template <typename Q>
struct select_step {
  using value_type = typename Q::value_type;

  struct node final : waiter_hub::waiter {
    select_step* step = nullptr;
    std::size_t idx = 0;
    node(select_step* s, std::size_t i) noexcept
        : waiter(waiter_hub::waiter_kind::coroutine), step(s), idx(i) {}

    waiter_hub::accept_result try_accept() noexcept override {
      // kpq-order: acq_rel pairs-with the rival claimed_ exchanges
      // (canceller, await_suspend re-checks, ~select_step) — the winner's
      // release publishes fired_index_/stash_ to whichever rival acquires
      if (step->claimed_.exchange(true, std::memory_order_acq_rel)) {
        // Another rival owns the resume; pass the token on.
        return waiter_hub::accept_result::refused;
      }
      step->fired_index_ = idx;
      return waiter_hub::accept_result::needs_resume;
    }
    void resume() noexcept override { step->dispatch(); }
  };

  const std::vector<async_mpmc<Q>*>& qs;
  std::stop_token st;
  event_loop* exec;
  std::size_t start;  // first queue of the ready-path scan

  std::vector<std::unique_ptr<node>> nodes_{};
  std::atomic<bool> claimed_{false};
  std::size_t fired_index_ = select_npos;  // written by the claim winner
  std::coroutine_handle<> h_{};
  std::optional<value_type> value_{};
  std::size_t index_ = select_npos;
  bool open_ = true;
  bool parked_ = false;

  struct canceller {
    select_step* s;
    void operator()() const noexcept {
      // kpq-order: acq_rel pairs-with the rival claimed_ exchanges
      // (node::try_accept, await_suspend re-checks, ~select_step)
      if (!s->claimed_.exchange(true, std::memory_order_acq_rel)) {
        s->dispatch();
      }
    }
  };
  std::optional<std::stop_callback<canceller>> stop_cb{};

  select_step(const std::vector<async_mpmc<Q>*>& queues, std::stop_token token,
              event_loop* loop, std::size_t first) noexcept
      : qs(queues), st(std::move(token)), exec(loop), start(first) {}
  select_step(const select_step&) = delete;
  select_step& operator=(const select_step&) = delete;

  ~select_step() {
    // Destroy-while-suspended: take the claim so no notifier resumes the
    // dead frame, then unhook every node (same contract as dequeue_step).
    stop_cb.reset();
    if (parked_) {
      // kpq-order: acq_rel pairs-with the rival claimed_ exchanges
      // (node::try_accept, canceller) — taking the claim fences off any
      // notifier from resuming the frame we are about to destroy
      claimed_.exchange(true, std::memory_order_acq_rel);
      delist_all();
    }
  }

  void dispatch() noexcept {
    if (exec) {
      exec->post(h_);
    } else {
      h_.resume();
    }
  }

  void delist_all() noexcept {
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      auto lk = qs[i]->hub().lock();
      qs[i]->hub().delist(*nodes_[i], lk);
    }
  }

  bool all_closed() const noexcept {
    for (auto* q : qs) {
      if (!q->closed()) return false;
    }
    return true;
  }

  bool await_ready() {
    if (st.stop_requested()) {
      open_ = false;
      return true;
    }
    const std::uint32_t tid = this_thread_id();
    const std::size_t n = qs.size();
#if defined(KPQ_MUTANT_SELECT_SHORT_SCAN)
    const std::size_t visits = n - 1;  // skips the queue before `start`
#else
    const std::size_t visits = n;
#endif
    std::size_t i = start;
    for (std::size_t k = 0; k < visits; ++k) {
      if ((value_ = qs[i]->try_dequeue(tid))) {
        index_ = i;
        return true;
      }
      if (++i == n) i = 0;
    }
    return false;
  }

  bool await_suspend(std::coroutine_handle<> h) {
    h_ = h;
    nodes_.reserve(qs.size());
    for (std::size_t i = 0; i < qs.size(); ++i) {
      nodes_.push_back(std::make_unique<node>(this, i));
    }
    // Phase 1: enlist on every hub (the seq_cst count bumps happen here).
    for (std::size_t i = 0; i < qs.size(); ++i) {
      auto lk = qs[i]->hub().lock();
      qs[i]->hub().enlist(*nodes_[i], lk);
      qs[i]->hub().commit_park(*nodes_[i], lk);
    }
    parked_ = true;
    // Phase 2: re-check every queue under registration (Dekker across all).
    const std::uint32_t tid = this_thread_id();
    for (std::size_t i = 0; i < qs.size(); ++i) {
      if (auto v = qs[i]->try_dequeue(tid)) {
        // kpq-order: acq_rel pairs-with the rival claimed_ exchanges
        // (node::try_accept, canceller) — losing acquires the winner's
        // fired_index_ write before we stash the item for await_resume
        if (!claimed_.exchange(true, std::memory_order_acq_rel)) {
          value_ = std::move(v);
          index_ = i;
          parked_ = false;
          delist_all();
          return false;
        }
        // A notify claimed the resume first; it WILL run us. Keep the item
        // (await_resume prefers the stash and re-gifts the fired token).
        stash_ = std::move(v);
        stash_idx_ = i;
        return true;
      }
    }
    if (st.stop_requested() || all_closed()) {
      // kpq-order: acq_rel pairs-with the rival claimed_ exchanges
      // (node::try_accept, canceller) — same claim race as the re-check
      if (!claimed_.exchange(true, std::memory_order_acq_rel)) {
        open_ = false;
        parked_ = false;
        delist_all();
        return false;
      }
      return true;  // a notify won the claim; resolve in await_resume
    }
    if (st.stop_possible()) stop_cb.emplace(st, canceller{this});
    return true;
  }

  select_result<value_type> await_resume() {
    stop_cb.reset();
    if (parked_) {
      delist_all();  // serializes with any in-flight pop on each hub
      parked_ = false;
      const std::size_t fired = fired_index_;
      if (fired != select_npos) qs[fired]->hub().on_resumed(*nodes_[fired]);
      if (stash_) {
        // We consumed a token from `fired` without taking its item.
        if (fired != select_npos && fired != stash_idx_) {
          qs[fired]->hub().notify_one();
        }
        return {std::move(stash_), stash_idx_, true};
      }
      if (st.stop_requested()) return {std::nullopt, select_npos, false};
      // Scan starting at the fired queue (its token means it had an item).
      const std::uint32_t tid = this_thread_id();
      const std::size_t n = qs.size();
      const std::size_t from = fired != select_npos ? fired : 0;
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = (from + k) % n;
        if (auto v = qs[i]->try_dequeue(tid)) {
          if (fired != select_npos && i != fired) {
            qs[fired]->hub().notify_one();  // re-gift the unused token
          }
          return {std::move(v), i, true};
        }
      }
      // Nothing anywhere (stolen): stay open unless every queue is closed.
      return {std::nullopt, select_npos, !all_closed()};
    }
    return {std::move(value_), index_, open_};
  }

 private:
  std::optional<value_type> stash_{};
  std::size_t stash_idx_ = select_npos;
};

/// The select loop behind co_select and async_sharded::co_dequeue_any:
/// retries select_step until it serves a value or reports closed/stopped.
/// `Queues` is the vector itself (co_select: the frame owns a copy) or a
/// const reference to one that outlives the task (co_dequeue_any: its
/// member list). With `next_start` the ready-path scan starts at the queue
/// it names, and a served value moves it to the queue after the server.
template <typename Q, typename Queues>
task<select_result<typename Q::value_type>> select_loop(
    Queues queues, std::stop_token st, std::atomic<std::uint32_t>* next_start) {
  event_loop* exec = queues.empty() ? nullptr : queues[0]->executor();
  for (;;) {
    // A scan-start hint: any value, stale or racing, is a correct start.
    const std::size_t start =
        // kpq-order: relaxed pairs-with none (publishes no data)
        next_start ? next_start->load(std::memory_order_relaxed) : 0;
    select_step<Q> step(queues, st, exec, start);
    auto r = co_await step;
    if (r.value && next_start) {
      const std::size_t next = r.index + 1;
      // kpq-order: relaxed pairs-with none (the hint above)
      next_start->store(
          static_cast<std::uint32_t>(next == queues.size() ? 0 : next),
          std::memory_order_relaxed);
    }
    if (r.value || !r.open) co_return r;
  }
}

}  // namespace detail

/// Await one element from any of `queues`. Retries internally on spurious
/// wakeups (stolen items); completes with open=false when stopped or when
/// every queue is closed-and-drained. The ready-path scan starts at queue 0
/// on every call, so a lower index is a higher priority. The executor for
/// posted resumptions is taken from the first queue (set_executor) — attach
/// the same loop to all queues multiplexed together.
template <typename Q>
task<select_result<typename Q::value_type>> co_select(
    std::vector<async_mpmc<Q>*> queues, std::stop_token st = {}) {
  return detail::select_loop<Q, std::vector<async_mpmc<Q>*>>(
      std::move(queues), std::move(st), nullptr);
}

}  // namespace kpq::async
