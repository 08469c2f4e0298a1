// The list node of the KP wait-free queue (paper Figure 1, lines 1–9),
// ported to unmanaged C++. Immutable after publication except for the two
// fields the paper makes atomic: `next` (null -> node once, line 74) and
// `deq_tid` (-1 -> tid once, line 135).
//
// A completed dequeue hands its payload to the owner in its request
// record's 64-bit word (core/request.hpp). A `T` that fits that word bit for
// bit rides inline; any other `T` travels as a heap box that the node owns
// until the one dequeue returning the node takes it (the queue frees the
// boxes of nodes still queued at destruction).
#pragma once

#include <atomic>
#include <cstdint>
#include <type_traits>

namespace kpq {

/// Sentinel thread id meaning "no thread" (paper's -1).
inline constexpr std::int32_t no_tid = -1;

/// Sentinel phase of a record that never announced (paper line 33 uses -1).
inline constexpr std::int64_t no_phase = -1;

/// True when `T` travels bit for bit in a request record's 64-bit word.
template <typename T>
inline constexpr bool inline_value =
    std::is_trivially_copyable_v<T> && sizeof(T) <= sizeof(std::uint64_t);

/// What a node stores for a `T`: the value itself, or its heap box.
template <typename T>
using value_slot = std::conditional_t<inline_value<T>, T, T*>;

/// Optional residency stamp (obs/residency.hpp). Present as a base class of
/// wf_node only when the queue's options enable residency tracking, so the
/// default node keeps the paper's 24-byte shape (pinned by
/// shape_regression_test). `enq_ts` follows the same publication discipline
/// as `value`/`enq_tid`: written once by the enqueuer before the node is
/// published, read only through a protected load afterwards.
struct residency_stamp {
  std::uint64_t enq_ts = 0;  // tick_now() at enqueue-publish
};
struct no_residency_stamp {};

template <bool Stamped>
using residency_base =
    std::conditional_t<Stamped, residency_stamp, no_residency_stamp>;

template <typename T, bool Stamped = false>
struct wf_node : residency_base<Stamped> {
  using slot_type = value_slot<T>;

  slot_type value;                       // paper: value (or its box)
  std::atomic<wf_node*> next{nullptr};
  std::int32_t enq_tid;                  // paper: enqTid, set pre-publication
  std::atomic<std::int32_t> deq_tid{no_tid};  // paper: deqTid, -1 -> tid once

  wf_node(slot_type v, std::int32_t etid) : value(v), enq_tid(etid) {}
};

}  // namespace kpq
