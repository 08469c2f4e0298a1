// Phase-number assignment policies (paper §3.3, optimization 2).
//
// Wait-freedom requires that a thread starting an operation picks a phase at
// least as large as every phase chosen before it (the Bakery-style doorway):
// then the set of operations that can linearize before a given one is
// bounded.
//
//   * scan_max_phase  — the paper's base scheme (lines 48–57 + 62/99):
//                       scan the `state` array for the maximum phase, use
//                       max + 1. O(n) per operation even without contention.
//   * fetch_add_phase — optimization 2: a shared counter bumped with an
//                       atomic fetch-and-add. O(1).
//   * cas_phase       — the CAS flavour the paper describes in footnote 3:
//                       read the counter and CAS it up, *ignoring failure* —
//                       a failed CAS just means another thread took the same
//                       phase, which is harmless because helping uses <=.
//
// All three preserve the doorway property the wait-freedom proof (paper
// §5.3) relies on.
#pragma once

#include <atomic>
#include <cstdint>

#include "sync/cacheline.hpp"

namespace kpq {

struct scan_max_phase {
  explicit scan_max_phase(std::uint32_t /*max_threads*/) {}

  template <typename Queue, typename Guard>
  std::int64_t next_phase(Queue& q, Guard& g, std::uint32_t /*tid*/) noexcept {
    return q.max_phase(g) + 1;  // paper line 62 / 99
  }
};

struct fetch_add_phase {
  explicit fetch_add_phase(std::uint32_t /*max_threads*/) {}

  template <typename Queue, typename Guard>
  std::int64_t next_phase(Queue&, Guard&, std::uint32_t /*tid*/) noexcept {
    // kpq-order: acq_rel pairs-with the other next_phase fetch_adds — the
    // RMW chain makes phase numbers monotone across threads (the Bakery
    // doorway the §5.3 wait-freedom proof needs); seq_cst is not required
    // because only the counter's own modification order matters
    return counter.value.fetch_add(1, std::memory_order_acq_rel);
  }

  padded<std::atomic<std::int64_t>> counter{std::int64_t{0}};
};

struct cas_phase {
  explicit cas_phase(std::uint32_t /*max_threads*/) {}

  template <typename Queue, typename Guard>
  std::int64_t next_phase(Queue&, Guard&, std::uint32_t /*tid*/) noexcept {
    // kpq-order: acquire pairs-with the release half of the CAS below as
    // performed by other threads (observe their counter bumps)
    std::int64_t cur = counter.value.load(std::memory_order_acquire);
    // Paper footnote 3: no need to retry — a failure means another thread
    // chose the same phase, which the <= helping rule tolerates.
    // kpq-order: acq_rel pairs-with the acquire load above in rival
    // next_phase calls; duplicate phases on CAS failure are tolerated
    counter.value.compare_exchange_strong(cur, cur + 1,
                                          std::memory_order_acq_rel);
    return cur;
  }

  padded<std::atomic<std::int64_t>> counter{std::int64_t{0}};
};

}  // namespace kpq
