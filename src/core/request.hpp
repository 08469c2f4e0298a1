// Per-thread request records of the KP wait-free queue: the paper's `state`
// array (§3.2, Figure 1 lines 10–26) with each entry updated in place
// instead of replaced by a fresh immutable descriptor (a Java-GC idiom that
// costs C++ an allocation, a retire and an announcement per state change).
// A record is never freed. Its first 16 bytes are {ctl, word}, changed only
// by one 16-byte CAS (`lock cmpxchg16b`):
//
//   ctl   {sequence, has_value, enqueue, pending}; every transition bumps
//         the sequence, so one ctl value names exactly one state and a CAS
//         whose expected pair was read from the record succeeds only if the
//         record has not moved since (no ABA). The phase would not do: the
//         bulk operations reuse one phase for every item.
//   word  an enqueue's node, a dequeue's stage-0 sentinel, or a completed
//         dequeue's payload (core/node.hpp: the value, or its box);
//   phase owner-written before the publishing CAS, read with plain loads.
//
// docs/ALGORITHM.md §2(d) has the state machine and the argument.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "core/node.hpp"

#if defined(__x86_64__) && !defined(__GCC_HAVE_SYNC_COMPARE_AND_SWAP_16)
#error "kpq's request records need an inline 16-byte CAS: compile with -mcx16"
#endif

namespace kpq {

/// Bits of a request record's ctl word.
namespace req {
inline constexpr std::uint64_t pending = 1;
inline constexpr std::uint64_t enqueue = 2;
inline constexpr std::uint64_t has_value = 4;
inline constexpr std::uint64_t flags = pending | enqueue | has_value;
#if defined(KPQ_MUTANT_RECORD_NO_SEQ)
// Mutant (tests/CMakeLists.txt builds it): the sequence is dropped from ctl,
// so two states with the same flags compare equal. The record replay test
// must fail under it.
inline constexpr std::uint64_t seq_step = 0;
#else
inline constexpr std::uint64_t seq_step = flags + 1;
#endif

/// The ctl of the state that follows `ctl`: sequence bumped, flags `f`.
constexpr std::uint64_t next(std::uint64_t ctl, std::uint64_t f) noexcept {
  return ((ctl & ~flags) + seq_step) | f;
}
}  // namespace req

struct alignas(16) request {
  std::atomic<std::uint64_t> ctl{0};  // changed only by cas_request
  std::atomic<std::uint64_t> word{0};  // changed only by cas_request
  std::atomic<std::int64_t> phase{no_phase};  // owner-written
};
static_assert(sizeof(std::atomic<std::uint64_t>) == 8 &&
              std::atomic<std::uint64_t>::is_always_lock_free);
static_assert(offsetof(request, word) == 8);
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "cas_request packs ctl into the low half of the 16 bytes");

/// The record's {ctl, word} pair from {ctl0, word0} to {ctl1, word1}, as one
/// atomic step; false if the pair held anything else. A full barrier.
inline bool cas_request(request& r, std::uint64_t ctl0, std::uint64_t word0,
                        std::uint64_t ctl1, std::uint64_t word1) noexcept {
  __extension__ typedef unsigned __int128 pair_t __attribute__((may_alias));
  const pair_t expected = (static_cast<pair_t>(word0) << 64) | ctl0;
  const pair_t desired = (static_cast<pair_t>(word1) << 64) | ctl1;
  return __sync_bool_compare_and_swap(reinterpret_cast<pair_t*>(&r.ctl),
                                      expected, desired);
}

}  // namespace kpq
