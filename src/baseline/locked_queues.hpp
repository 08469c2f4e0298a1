// Lock-based baselines.
//
// Not part of the paper's figures (it compares only against the lock-free MS
// queue), but a production library — and the extra context benches — want a
// blocking reference point:
//
//   * two_lock_queue — Michael & Scott's two-lock queue from the same PODC'96
//     paper: head lock and tail lock, so one enqueuer and one dequeuer can
//     proceed in parallel. A sentinel decouples the two ends.
//   * mutex_queue — the naive single-mutex ring; the simplest correct MPMC
//     queue, and the floor any non-blocking design must beat.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "harness/mem_tracker.hpp"
#include "sync/cacheline.hpp"

namespace kpq {

template <typename T>
class two_lock_queue : public mem_tracked {
 public:
  using value_type = T;

  explicit two_lock_queue(std::uint32_t /*max_threads*/ = 0) {
    node* sentinel = alloc_node(T{});
    head_ = sentinel;
    tail_ = sentinel;
    // Enqueue and dequeue allocate/free under different locks: an open
    // baseline would be written by both (see ms_queue).
    seal_baseline();
  }

  two_lock_queue(const two_lock_queue&) = delete;
  two_lock_queue& operator=(const two_lock_queue&) = delete;

  ~two_lock_queue() {
    node* p = head_;
    while (p != nullptr) {
      node* next = p->next.load(std::memory_order_relaxed);
      free_node(p);
      p = next;
    }
  }

  void enqueue(T value) {
    node* fresh = alloc_node(std::move(value));
    std::lock_guard<std::mutex> lk(tail_lock_.get());
    // `next` must be atomic: with an empty queue, head_ and tail_ alias the
    // same sentinel, so this store races with the dequeuer's read under the
    // OTHER lock. Release pairs with the dequeuer's acquire, publishing the
    // fresh node's contents.
    tail_->next.store(fresh, std::memory_order_release);
    tail_ = fresh;
  }
  void enqueue(T value, std::uint32_t /*tid*/) { enqueue(std::move(value)); }

  std::optional<T> dequeue() {
    node* old_sentinel = nullptr;
    std::optional<T> result;
    {
      std::lock_guard<std::mutex> lk(head_lock_.get());
      node* first = head_->next.load(std::memory_order_acquire);
      if (first == nullptr) return std::nullopt;
      result = std::move(first->value);
      old_sentinel = head_;
      head_ = first;
    }
    free_node(old_sentinel);  // exclusive owner once unlinked
    return result;
  }
  std::optional<T> dequeue(std::uint32_t /*tid*/) { return dequeue(); }

  bool empty_hint() {
    std::lock_guard<std::mutex> lk(head_lock_.get());
    return head_->next.load(std::memory_order_acquire) == nullptr;
  }

  std::size_t unsafe_size() const {
    std::size_t n = 0;
    for (const node* p = head_->next.load(std::memory_order_relaxed);
         p != nullptr; p = p->next.load(std::memory_order_relaxed)) {
      ++n;
    }
    return n;
  }

 private:
  struct node {
    T value;
    std::atomic<node*> next{nullptr};
    explicit node(T v) : value(std::move(v)) {}
  };

  node* alloc_node(T v) {
    account_alloc(sizeof(node));
    return new node(std::move(v));
  }
  void free_node(node* n) noexcept {
    account_free(sizeof(node));
    delete n;
  }

  padded<std::mutex> head_lock_;
  padded<std::mutex> tail_lock_;
  node* head_;  // guarded by head_lock_
  node* tail_;  // guarded by tail_lock_
};

template <typename T>
class mutex_queue : public mem_tracked {
 public:
  using value_type = T;

  explicit mutex_queue(std::uint32_t /*max_threads*/ = 0) {}

  void enqueue(T value) {
    std::lock_guard<std::mutex> lk(lock_.get());
    items_.push_back(std::move(value));
  }
  void enqueue(T value, std::uint32_t /*tid*/) { enqueue(std::move(value)); }

  std::optional<T> dequeue() {
    std::lock_guard<std::mutex> lk(lock_.get());
    if (items_.empty()) return std::nullopt;
    std::optional<T> v{std::move(items_.front())};
    items_.pop_front();
    return v;
  }
  std::optional<T> dequeue(std::uint32_t /*tid*/) { return dequeue(); }

  bool empty_hint() {
    std::lock_guard<std::mutex> lk(lock_.get());
    return items_.empty();
  }

  std::size_t unsafe_size() const { return items_.size(); }

 private:
  padded<std::mutex> lock_;
  std::deque<T> items_;
};

}  // namespace kpq
