// Helping policies (paper §3.2 help(), and §3.3 optimization 1).
//
//   * help_all — the paper's base help() (lines 36–47): on every operation,
//     traverse the whole `state` array and help every thread whose pending
//     operation has phase <= ours. O(n) per operation.
//
//   * help_one — optimization 1: help at most one *other* thread per
//     operation, choosing candidates in cyclic order over the state array,
//     then complete our own operation. Wait-freedom is preserved because a
//     thread can pass over a given stalled operation at most n-1 times
//     before its cyclic cursor reaches it (paper §3.3). This optimization
//     was the dominant win in the paper's Figure 9: it prevents stampedes
//     where every thread piles onto the same slow peer.
//
// Both policies rely on queue::help_if_needed(i, phase, guard) which applies
// the pending-and-phase<= filter (paper line 39) before dispatching to
// help_enq/help_deq.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/trace_ring.hpp"
#include "sync/cacheline.hpp"

namespace kpq {

/// Trace hook shared by the policies: one help_scan event per run(), with
/// the number of state slots this pass examined (the policy's per-op scan
/// cost — n for help_all, K+1 for help_chunk, 2 for help_one/random).
/// Compiles out with the queue's recorder policy; queues without a
/// trace_type (the policies are generic) are simply not traced.
template <typename Queue>
inline void trace_help_scan(std::uint32_t my_tid, std::uint32_t examined) {
  if constexpr (requires { typename Queue::trace_type; }) {
    if constexpr (Queue::trace_type::enabled) {
      Queue::trace_type::record(my_tid, obs::trace_kind::help_scan, 0,
                                examined);
    }
  }
}

struct help_all {
  explicit help_all(std::uint32_t /*max_threads*/) {}

  template <typename Queue, typename Guard>
  void run(Queue& q, std::uint32_t my_tid, std::int64_t phase, Guard& g) {
    // The loop includes our own entry (paper line 37).
    trace_help_scan<Queue>(my_tid, q.max_threads());
    for (std::uint32_t i = 0; i < q.max_threads(); ++i) {
      q.help_if_needed(i, phase, g, my_tid);
    }
  }
};

/// §3.3 generalization: "a thread may traverse only a chunk of the state
/// array in a cyclic manner in the help() method ... indexes 0 through k-1
/// mod n (in addition to its own index), in the second invocation indexes
/// k mod n through 2k-1 mod n, and so on." help_one is the K=1 special
/// case. Wait-freedom is preserved: a stalled operation is reached after at
/// most ceil(n/K) invocations of each active peer.
template <std::uint32_t K>
struct help_chunk {
  static_assert(K >= 1);
  explicit help_chunk(std::uint32_t max_threads) : cursor_(max_threads) {}

  template <typename Queue, typename Guard>
  void run(Queue& q, std::uint32_t my_tid, std::int64_t phase, Guard& g) {
    const std::uint32_t n = q.max_threads();
    std::uint32_t& k = cursor_[my_tid].value;  // owner-only cursor
    trace_help_scan<Queue>(my_tid, K + 1);
    for (std::uint32_t step = 0; step < K; ++step) {
      const std::uint32_t candidate = k;
      k = (k + 1 == n) ? 0 : k + 1;
      if (candidate != my_tid) q.help_if_needed(candidate, phase, g, my_tid);
    }
    q.help_if_needed(my_tid, phase, g, my_tid);
  }

  std::vector<padded<std::uint32_t>> cursor_;
};

/// §3.3 alternative: "each thread might traverse a random chunk of the
/// array, achieving probabilistic wait-freedom." One random candidate per
/// operation; a stalled operation is helped with probability 1 but without
/// a deterministic step bound — hence *probabilistic* wait-freedom only.
struct help_random {
  explicit help_random(std::uint32_t max_threads) : rng_state_(max_threads) {
    for (std::uint32_t i = 0; i < max_threads; ++i) {
      rng_state_[i].value = 0x9E3779B97F4A7C15ULL * (i + 1) + 1;
    }
  }

  template <typename Queue, typename Guard>
  void run(Queue& q, std::uint32_t my_tid, std::int64_t phase, Guard& g) {
    std::uint64_t& s = rng_state_[my_tid].value;  // owner-only xorshift64
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    const auto candidate =
        static_cast<std::uint32_t>(s % q.max_threads());
    trace_help_scan<Queue>(my_tid, 2);
    if (candidate != my_tid) q.help_if_needed(candidate, phase, g, my_tid);
    q.help_if_needed(my_tid, phase, g, my_tid);
  }

  std::vector<padded<std::uint64_t>> rng_state_;
};

/// Optimization 1 (file comment): the K=1 chunk.
using help_one = help_chunk<1>;

}  // namespace kpq
