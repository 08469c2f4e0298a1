// The node-storage policy interface (ROADMAP item 1).
//
// The KP queue's dominant hot-path cost outside the algorithm itself is the
// per-element `new`/`delete` of list nodes plus the per-node reclamation
// traffic. This layer makes "where nodes live" a policy, the same move
// reclaim/reclaimer_concepts.hpp made for "when nodes die":
//
//   * heap_node_storage    — one heap allocation per node, one reclaimer
//                            retirement per node. Exactly the behavior the
//                            queues had before this layer existed; the
//                            default.
//   * segment_storage      — nodes are cells of fixed-size, segment-aligned
//                            arrays (Yang & Mellor-Crummey style; cf.
//                            Nikolaev's wCQ for the bounded-memory goal).
//                            Allocation is a per-thread bump pointer, and the
//                            reclaimer sees ONE retirement per segment
//                            instead of one per node (retire_range). This is
//                            what gives bounded_wf_queue its hard memory
//                            ceiling: live memory is a whole number of
//                            segments, and segments are the unit everything
//                            is accounted and reclaimed in.
//
// Contract
// --------
// A storage is created per container with (max_threads, accounting), where
// `accounting` is the owning container's mem_tracked mixin (may have a null
// mem_counters sink; storage must route every byte it allocates/frees
// through it so fig10's live-byte counter is exact).
//
//   node_type* n = s.alloc(tid, slot, etid, reclaimer);
//       // construct a node holding `slot` (the value or its box,
//       // core/node.hpp); `reclaimer` is the container's domain — segment
//       // storage retires a just-sealed segment through it when the seal
//       // completes the segment (see segment_storage.hpp).
//   s.retire(tid, n, reclaimer);
//       // the node was unlinked by the winning head swing and may still be
//       // referenced by in-flight readers: hand it to the reclamation
//       // protocol. Called exactly once per node.
//   s.release(n);
//       // quiescent free (container destructor path): no concurrent reader
//       // can exist, the storage may recycle the memory immediately.
//
// `max_alloc_bytes` is the largest single heap allocation one alloc() call
// can perform — the quantity bounded_wf_queue's admission headroom is built
// from (docs/MEMORY.md has the ceiling argument).
//
// Lifetime rule for containers: declare the storage member BEFORE the
// reclaimer member. Segment retirements carry a callback into the storage
// object, so the reclaimer (whose destructor drains retired items) must be
// destroyed first.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/node.hpp"
#include "reclaim/reclaimer_concepts.hpp"

namespace kpq {

/// Structural requirements shared by every node storage, checked against a
/// concrete reclaimer domain R (the container knows both types).
template <typename S, typename R>
concept node_storage_for =
    reclaimer_domain<R> &&
    requires(S s, std::uint32_t tid, typename S::node_type::slot_type v,
             std::int32_t etid, typename S::node_type* n, R& r) {
      typename S::value_type;
      typename S::node_type;
      { s.alloc(tid, v, etid, r) } ->
          std::same_as<typename S::node_type*>;
      { s.retire(tid, n, r) };
      { s.release(n) };
      { S::max_alloc_bytes } -> std::convertible_to<std::size_t>;
    };

}  // namespace kpq
