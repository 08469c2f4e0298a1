// Item residency tracking: how long does a value sit in the queue,
// enqueue-publish to dequeue-completion?
//
// Why a dedicated surface: the paper's helping mechanism (KP §3/§5.3) makes
// per-*operation* cost non-local — a slow dequeue's steps may be paid by its
// helpers — so operation latency histograms cannot answer the operator
// question "how stale is the work my consumers pull". Residency is a
// property of the ITEM, not the op: the enqueuer stamps the node once,
// before publication, and the thread whose CAS completes the item's dequeue
// measures now - stamp, while the node is still hazard-protected. That CAS
// wins exactly once per item, so helping neither drops nor doubles a
// sample; it only moves the sample into the helper's per-thread histogram,
// and the merged histogram is the same.
//
// Threading: a compile-time policy on the queue Options (`using residency =
// obs::tick_residency;`), read like the trace policy; wf_options defaults
// it to no_residency. When disabled the stamp field does not exist (node.hpp
// keeps the paper's 24-byte node, pinned by shape_regression_test) and every
// hook site folds away under `if constexpr` — zero cost, verified by fig_residency
// against the fig7 baseline. When enabled, recording is one tick_now() per
// enqueue + one per successful dequeue and a relaxed histogram increment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/histogram.hpp"
#include "obs/calibrate.hpp"
#include "obs/registry.hpp"
#include "obs/trace_ring.hpp"
#include "sync/cacheline.hpp"

namespace kpq::obs {

// ----------------------------------------------------------------- policies

/// Residency compiled out (the default): no stamp field in nodes, no hook
/// code — codegen identical to a residency-free build.
struct no_residency {
  static constexpr bool enabled = false;
  static std::uint64_t now() noexcept { return 0; }
};

/// Residency compiled in: stamps are tick_now() readings, converted to ns at
/// export time with a tick_calibration.
struct tick_residency {
  static constexpr bool enabled = true;
  static std::uint64_t now() noexcept { return tick_now(); }
};

// -------------------------------------------------------------------- probe

/// Per-thread residency recorder a queue owns when its policy is enabled:
/// one padded log2_histogram per dense tid, so recording never contends.
/// Buckets are relaxed atomics (harness/histogram.hpp), which makes merged()
/// safe to call from a telemetry scrape while workers are still recording —
/// the snapshot is some interleaving of their increments, never a race.
class residency_probe {
 public:
  explicit residency_probe(std::uint32_t max_threads) : hists_(max_threads) {}

  void add(std::uint32_t tid, std::uint64_t ticks) noexcept {
    hists_[tid].value.add(ticks);
  }

  /// All threads' samples merged into one histogram (in ticks).
  log2_histogram merged() const {
    log2_histogram out;
    for (const auto& h : hists_) out.merge(h.value);
    return out;
  }

  std::uint64_t samples() const noexcept {
    std::uint64_t n = 0;
    for (const auto& h : hists_) n += h.value.total();
    return n;
  }

  void reset() noexcept {
    for (auto& h : hists_) h.value.reset();
  }

 private:
  std::vector<padded<log2_histogram>> hists_;
};

// ------------------------------------------------------------------- report

/// A residency distribution with its tick→ns conversion baked in, ready for
/// the registry / JSON exporters. Quantiles are conservative upper bounds
/// (log2 buckets), reported in nanoseconds.
struct residency_report {
  log2_histogram hist;  // in ticks
  std::uint64_t samples = 0;
  double tick_hz = 1e9;

  double quantile_ns(double q) const noexcept {
    return static_cast<double>(hist.quantile_upper_bound(q)) * 1e9 / tick_hz;
  }
  double p50_ns() const noexcept { return quantile_ns(0.50); }
  double p90_ns() const noexcept { return quantile_ns(0.90); }
  double p99_ns() const noexcept { return quantile_ns(0.99); }
  double max_ns() const noexcept { return quantile_ns(1.0); }
};

inline residency_report make_residency_report(const log2_histogram& ticks,
                                              const tick_calibration& cal) {
  residency_report r;
  r.hist = ticks;
  r.samples = r.hist.total();
  r.tick_hz = cal.tick_hz;
  return r;
}

/// Registry export (obs/registry.hpp convention: overload append_metrics by
/// concrete type — residency_report is not structural because the ns
/// conversion is part of its meaning).
inline void append_metrics(metrics_snapshot& out, const std::string& prefix,
                           const residency_report& r) {
  append_value(out, prefix + ".samples", static_cast<double>(r.samples));
  append_value(out, prefix + ".p50_ns", r.samples > 0 ? r.p50_ns() : 0.0);
  append_value(out, prefix + ".p90_ns", r.samples > 0 ? r.p90_ns() : 0.0);
  append_value(out, prefix + ".p99_ns", r.samples > 0 ? r.p99_ns() : 0.0);
  append_value(out, prefix + ".max_ns", r.samples > 0 ? r.max_ns() : 0.0);
}

}  // namespace kpq::obs
