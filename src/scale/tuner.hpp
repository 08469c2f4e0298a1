// shard_tuner — the policy half of self-tuning elastic sharding.
//
// adaptive.hpp supplies the safe mechanism (epoch-stamped scan tables over a
// fixed shard pool); this header supplies the controller that decides WHEN
// to use it: the per-shard counters (depth, dequeue and empty-scan rates)
// feed a low-frequency tick that emits at most one single-pointer publish.
//
// Control loop, one tick:
//
//   1. SAMPLE  — snapshot every shard's counters; form deltas against the
//                previous tick (rates), keep cumulative depth (backlog).
//   2. DECIDE  — with hysteresis (`hysteresis_ticks` consecutive ticks of
//                evidence before acting; one action resets all pressure):
//        grow    : mean active-shard depth >= grow_depth and the pool has
//                  room — spread enqueues over one more lane.
//        shrink  : mean active depth <= shrink_depth AND the empty-scan
//                  rate says consumers are starving — concentrate traffic
//                  so the survivors stay warm. Deactivated shards keep
//                  being scanned and simply drain (adaptive.hpp).
//        reorder : depth spread across the pool >= reorder_min_spread —
//                  republish the scan order deepest-first so stealers hit
//                  backlog before empty lanes.
//   3. ACT     — grow/shrink/reorder are each one publish_table() (a
//                store-release of a fresh immutable table). Nothing here
//                ever blocks an operation or changes any step bound: the
//                shard queues' patience and helping widths are compile-time
//                constants (docs/ALGORITHM.md §9).
//
// Threading contract: single mutator. Call tick() from ONE control thread
// (or inline at deterministic points — every test does this; the
// periodic_ticker in adaptive.hpp is the production driver). The sampled
// counters are the usual relaxed estimates; a tick acting on a slightly
// stale estimate produces a suboptimal-but-safe table, never a wrong one.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/trace_ring.hpp"
#include "scale/adaptive.hpp"
#include "scale/scale_counters.hpp"

namespace kpq {

/// What a tick decided; also the `aux` code of the tuner_decision trace
/// event (phase carries the resulting scan epoch).
enum class tuner_action : std::uint32_t {
  none = 0,
  grow = 1,
  shrink = 2,
  reorder = 3,
};

inline constexpr const char* tuner_action_name(tuner_action a) noexcept {
  switch (a) {
    case tuner_action::none: return "none";
    case tuner_action::grow: return "grow";
    case tuner_action::shrink: return "shrink";
    case tuner_action::reorder: return "reorder";
  }
  return "unknown";
}

struct tuner_config {
  // Active-set sizing.
  std::uint32_t min_active = 1;
  std::uint32_t max_active = 0;  ///< 0 = the pool capacity
  /// Mean depth per active shard at/above which the set grows.
  std::int64_t grow_depth = 256;
  /// Mean depth per active shard at/below which shrinking is considered.
  std::int64_t shrink_depth = 8;
  /// ... but only when consumers are also starving: empty scans per dequeue
  /// attempt (this tick) at/above this rate.
  double shrink_empty_rate = 0.25;

  // Scan reorder.
  /// Depth gap between deepest and shallowest pool slot that justifies
  /// republishing the scan order (small spreads are noise).
  std::int64_t reorder_min_spread = 64;

  /// Consecutive ticks a signal must persist before the tuner acts; any
  /// action resets all pressure (one adaptation at a time, no thrash).
  std::uint32_t hysteresis_ticks = 2;
  /// Ticks with fewer ops than this are ignored entirely (idle system —
  /// rates would be noise).
  std::uint64_t min_ops_per_tick = 32;

  /// Dense thread id to record tuner_decision trace events under, or
  /// UINT32_MAX for no tracing. Must be a tid the control thread OWNS
  /// (trace rings are single-writer) — tests pass their injector tid.
  std::uint32_t trace_tid = UINT32_MAX;
};

/// Registry-exportable snapshot (obs::tuner_stats_like): cumulative
/// decision counters plus the current gauges.
struct tuner_stats {
  std::uint64_t ticks = 0;
  std::uint64_t grows = 0;
  std::uint64_t shrinks = 0;
  std::uint64_t reorders = 0;
  std::uint32_t active_shards = 0;
  std::uint64_t scan_epoch = 0;
};

template <typename SQ>
class shard_tuner {
 public:
  explicit shard_tuner(SQ& q, tuner_config cfg = {})
      : q_(q), cfg_(cfg), prev_(q.shard_capacity()) {
    if (cfg_.max_active == 0 || cfg_.max_active > q.shard_capacity()) {
      cfg_.max_active = q.shard_capacity();
    }
    if (cfg_.min_active < 1) cfg_.min_active = 1;
    if (cfg_.min_active > cfg_.max_active) cfg_.min_active = cfg_.max_active;
    for (std::uint32_t s = 0; s < q_.shard_capacity(); ++s) {
      prev_[s] = q_.shard_counters_snapshot(s);
    }
    stats_.active_shards = q_.active_shards();
    stats_.scan_epoch = q_.scan_epoch();
  }

  shard_tuner(const shard_tuner&) = delete;
  shard_tuner& operator=(const shard_tuner&) = delete;

  const tuner_config& config() const noexcept { return cfg_; }
  const tuner_stats& stats() const noexcept { return stats_; }

  /// One control-loop iteration; returns the action taken (at most one
  /// table publish per tick).
  tuner_action tick() {
    ++stats_.ticks;

    // -------- sample: per-shard depth (cumulative) + this tick's deltas.
    const std::uint32_t cap = q_.shard_capacity();
    std::vector<shard_stats> now(cap);
    std::uint64_t d_deq = 0, d_empty = 0, d_ops = 0;
    std::vector<std::int64_t> depth(cap);
    for (std::uint32_t s = 0; s < cap; ++s) {
      now[s] = q_.shard_counters_snapshot(s);
      depth[s] = now[s].depth();
      d_deq += now[s].dequeued - prev_[s].dequeued;
      d_empty += now[s].empty_scans - prev_[s].empty_scans;
      d_ops += (now[s].enqueued - prev_[s].enqueued) +
               (now[s].dequeued - prev_[s].dequeued);
    }
    prev_ = std::move(now);

    refresh_gauges();
    if (d_ops + d_empty < cfg_.min_ops_per_tick) {
      clear_pressure();
      return tuner_action::none;
    }

    // -------- derived signals.
    const scan_table& table = q_.current_table();
    const std::uint32_t active = table.active_count;
    std::int64_t active_depth_sum = 0;
    for (std::uint32_t k = 0; k < active; ++k) {
      active_depth_sum += depth[table.order[k]];
    }
    const std::int64_t mean_active_depth =
        active_depth_sum / static_cast<std::int64_t>(active);
    const double empty_rate =
        static_cast<double>(d_empty) /
        static_cast<double>(d_deq + d_empty == 0 ? 1 : d_deq + d_empty);
    const auto [dmin, dmax] = std::minmax_element(depth.begin(), depth.end());
    const std::int64_t spread = *dmax - *dmin;

    // -------- decide with hysteresis; at most one action.
    const bool wants_grow =
        active < cfg_.max_active && mean_active_depth >= cfg_.grow_depth;
    const bool wants_shrink = active > cfg_.min_active &&
                              mean_active_depth <= cfg_.shrink_depth &&
                              empty_rate >= cfg_.shrink_empty_rate;
    const bool wants_reorder =
        spread >= cfg_.reorder_min_spread && !sorted_deepest_first(depth, table);

    grow_pressure_ = wants_grow ? grow_pressure_ + 1 : 0;
    shrink_pressure_ = wants_shrink ? shrink_pressure_ + 1 : 0;
    reorder_pressure_ = wants_reorder ? reorder_pressure_ + 1 : 0;

    tuner_action action = tuner_action::none;
    if (grow_pressure_ >= cfg_.hysteresis_ticks) {
      action = tuner_action::grow;
      publish_resized(depth, active + 1);
      ++stats_.grows;
    } else if (shrink_pressure_ >= cfg_.hysteresis_ticks) {
      action = tuner_action::shrink;
      publish_resized(depth, active - 1);
      ++stats_.shrinks;
    } else if (reorder_pressure_ >= cfg_.hysteresis_ticks) {
      action = tuner_action::reorder;
      publish_resized(depth, active);
      ++stats_.reorders;
    }
    if (action != tuner_action::none) {
      clear_pressure();
      refresh_gauges();
      trace_decision(action);
    }
    return action;
  }

 private:
  /// Is the current table already deepest-first over the whole pool?
  static bool sorted_deepest_first(const std::vector<std::int64_t>& depth,
                                   const scan_table& t) {
    for (std::size_t k = 1; k < t.order.size(); ++k) {
      if (depth[t.order[k - 1]] < depth[t.order[k]]) return false;
    }
    return true;
  }

  /// Publish a table with `new_active` active shards, scan order
  /// deepest-first. Membership changes one shard at a time:
  ///   grow   — activate the SHALLOWEST inactive slot (fresh lane for new
  ///            enqueues, not one with leftover backlog);
  ///   shrink — deactivate the SHALLOWEST active slot (fastest to drain,
  ///            least traffic disturbed).
  /// Both halves of the published order are sorted deepest-first so the
  /// steal scan always walks backlog before empty lanes.
  void publish_resized(const std::vector<std::int64_t>& depth,
                       std::uint32_t new_active) {
    const scan_table& t = q_.current_table();
    std::vector<std::uint32_t> act(t.order.begin(),
                                   t.order.begin() + t.active_count);
    std::vector<std::uint32_t> inact(t.order.begin() + t.active_count,
                                     t.order.end());
    const auto shallowest = [&](std::vector<std::uint32_t>& v) {
      auto it = std::min_element(
          v.begin(), v.end(),
          [&](std::uint32_t a, std::uint32_t b) { return depth[a] < depth[b]; });
      const std::uint32_t s = *it;
      v.erase(it);
      return s;
    };
    if (new_active > t.active_count && !inact.empty()) {
      act.push_back(shallowest(inact));
    } else if (new_active < t.active_count && act.size() > 1) {
      inact.push_back(shallowest(act));
    }
    const auto deepest_first = [&](std::vector<std::uint32_t>& v) {
      std::stable_sort(v.begin(), v.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return depth[a] > depth[b];
                       });
    };
    deepest_first(act);
    deepest_first(inact);
    std::vector<std::uint32_t> order = act;
    order.insert(order.end(), inact.begin(), inact.end());
    q_.publish_table(static_cast<std::uint32_t>(act.size()),
                     std::move(order));
  }

  void clear_pressure() noexcept {
    grow_pressure_ = shrink_pressure_ = reorder_pressure_ = 0;
  }

  void refresh_gauges() noexcept {
    stats_.active_shards = q_.active_shards();
    stats_.scan_epoch = q_.scan_epoch();
  }

  void trace_decision(tuner_action a) noexcept {
    if constexpr (obs::default_trace::enabled) {
      if (cfg_.trace_tid != UINT32_MAX) {
        obs::default_trace::record(
            cfg_.trace_tid, obs::trace_kind::tuner_decision,
            static_cast<std::int64_t>(q_.scan_epoch()),
            static_cast<std::uint32_t>(a));
      }
    }
  }

  SQ& q_;
  tuner_config cfg_;
  tuner_stats stats_;
  std::vector<shard_stats> prev_;
  std::uint32_t grow_pressure_ = 0;
  std::uint32_t shrink_pressure_ = 0;
  std::uint32_t reorder_pressure_ = 0;
};

}  // namespace kpq
