// Item-residency tracking: what it costs, and what it measures.
//
// Two questions, one binary (companion to fig_obs_overhead, which answers
// the same pair of questions for the trace rings):
//
//   1. What does the stamp cost? Each variant runs the enqueue-dequeue
//      pairs workload twice IN THE SAME BUILD: once with the default
//      options (no stamp field exists — the node keeps the paper's 24-byte
//      shape and every residency hook folds away under `if constexpr`) and
//      once with residency compiled in per-type (wf_options_residency /
//      fps_options_residency: 32-byte nodes, one rdtsc per enqueue, one per
//      dequeued hit plus a relaxed histogram add). The "overhead %" column
//      is the acceptance gate.
//
//   2. What does residency look like? The pairs workload keeps the queue
//      nearly empty (items dequeue immediately), so a second phase runs a
//      burst-drain: every thread enqueues its full quota, then the threads
//      drain the backlog. Items stamped early sit behind the whole burst —
//      a wide, honest residency distribution, reported in calibrated ns
//      (p50/p90/p99/max) per thread count and exported via the registry.
//
// Series: opt WF (1+2) and FPS opt WF, each res-off/res-on.
//
// Flags: --threads N | --full, --iters N, --reps N, --pin, --csv, --seed S,
//        --json PATH (kpq-bench-1 + a "derived" block of residency
//        quantiles and overhead).
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/wf_queue.hpp"
#include "obs/calibrate.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "obs/residency.hpp"

namespace {

using namespace kpq;
using namespace kpq::bench;

using opt_wf = wf_queue_opt<std::uint64_t>;
using opt_wf_res = wf_queue_opt_residency<std::uint64_t>;
using fps_wf = wf_queue_fps<std::uint64_t>;
using fps_wf_res = wf_queue_fps<std::uint64_t, hp_domain, fps_options_residency>;

/// Burst-drain at one thread count: every thread enqueues `iters` items,
/// then the pool drains the backlog. Returns the queue so the caller can
/// read its residency histogram (covers the final repetition only — the
/// probe is reset in the per-rep setup, like the trace rings in
/// fig_obs_overhead).
template <typename Q>
summary measure_burst_drain(std::uint32_t threads, const bench_params& p,
                            std::unique_ptr<Q>& q_out) {
  run_config cfg;
  cfg.threads = threads;
  cfg.reps = p.reps;
  cfg.pin = p.pin;
  const summary s = run_trials(
      cfg, [&](std::uint32_t) { q_out = std::make_unique<Q>(threads); },
      [&](std::uint32_t tid) {
        for (std::uint64_t i = 0; i < p.iters; ++i) {
          q_out->enqueue(encode_value(tid, i), tid);
        }
        while (q_out->dequeue(tid).has_value()) {
        }
      });
  return s;
}

struct variant_result {
  summary off;
  summary on;
  double overhead_pct() const {
    return off.mean > 0.0 ? 100.0 * (on.mean - off.mean) / off.mean : 0.0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  bench_params p = parse_params(argc, argv, /*default_iters=*/20000);
  const std::string json_path = p.json_path;
  p.json_path.clear();

  const obs::tick_calibration cal = obs::calibrate_ticks();

  std::printf("== Item residency: stamped vs unstamped ==\n");
  std::printf("(tick rate ~%.2f GHz; unstamped node %zu B, stamped %zu B)\n\n",
              cal.tick_hz / 1e9, sizeof(wf_node<std::uint64_t>),
              sizeof(wf_node<std::uint64_t, true>));

  const char* names[] = {"opt WF (1+2)", "FPS opt WF"};
  table t({"threads", "series", "res-off [s]", "res-on [s]", "overhead %"});

  struct cell {
    std::uint32_t threads;
    int series;
    variant_result r;
  };
  std::vector<cell> cells;

  for (std::uint32_t th : p.threads) {
    for (int s = 0; s < 2; ++s) {
      variant_result r;
      if (s == 0) {
        r.off = measure_pairs<opt_wf>(th, p);
        r.on = measure_pairs<opt_wf_res>(th, p);
      } else {
        r.off = measure_pairs<fps_wf>(th, p);
        r.on = measure_pairs<fps_wf_res>(th, p);
      }
      cells.push_back({th, s, r});
      t.add_row({std::to_string(th), names[s], fmt(r.off.mean, 4),
                 fmt(r.on.mean, 4), fmt(r.overhead_pct(), 1)});
    }
  }
  t.print();

  // Burst-drain residency distribution per thread count (opt WF res-on).
  std::printf("\n-- burst-drain residency (each thread enqueues its full "
              "quota, then the pool drains; final repetition) --\n");
  table rt({"threads", "samples", "p50 [us]", "p90 [us]", "p99 [us]",
            "max [us]"});
  struct rcell {
    std::uint32_t threads;
    summary drain;
    obs::residency_report report;
  };
  std::vector<rcell> rcells;
  for (std::uint32_t th : p.threads) {
    std::unique_ptr<opt_wf_res> q;
    const summary s = measure_burst_drain<opt_wf_res>(th, p, q);
    const obs::residency_report rep =
        obs::make_residency_report(q->residency_histogram(), cal);
    rcells.push_back({th, s, rep});
    rt.add_row({std::to_string(th), std::to_string(rep.samples),
                fmt(rep.p50_ns() / 1e3, 1), fmt(rep.p90_ns() / 1e3, 1),
                fmt(rep.p99_ns() / 1e3, 1), fmt(rep.max_ns() / 1e3, 1)});
  }
  rt.print();
  std::printf("\n(quantiles are log2-bucket upper bounds in calibrated ns; "
              "the burst keeps every item queued behind the\n whole "
              "backlog, so residency here is workload-dominated — the "
              "pairs workload above is the overhead gate)\n");

  if (p.csv) {
    std::printf("-- csv --\n");
    t.print_csv(stdout);
    std::printf("\n");
  }

  if (!json_path.empty()) {
    obs::json_writer w;
    w.begin_object();
    w.key("schema").value("kpq-bench-1");
    w.key("bench").value("Item residency: stamped vs unstamped");
    w.key("params").begin_object();
    w.key("iters").value(static_cast<std::uint64_t>(p.iters));
    w.key("reps").value(static_cast<std::uint64_t>(p.reps));
    w.key("pin").value(p.pin);
    w.key("seed").value(static_cast<std::uint64_t>(p.seed));
    w.key("tick_hz").value(cal.tick_hz);
    w.end_object();
    w.key("x_label").value("threads");
    w.key("series").begin_array();
    for (int s = 0; s < 2; ++s) {
      for (int on = 0; on < 2; ++on) {
        w.begin_object();
        w.key("name").value(std::string(names[s]) +
                            (on ? " res-on" : " res-off"));
        w.key("points").begin_array();
        for (const cell& c : cells) {
          if (c.series != s) continue;
          const summary& sm = on ? c.r.on : c.r.off;
          w.begin_object();
          w.key("x").value(static_cast<std::uint64_t>(c.threads));
          w.key("n").value(static_cast<std::uint64_t>(sm.n));
          w.key("mean_s").value(obs::finite_or(sm.mean));
          w.key("stddev_s").value(obs::finite_or(sm.stddev));
          w.key("min_s").value(obs::finite_or(sm.min));
          w.key("max_s").value(obs::finite_or(sm.max));
          w.end_object();
        }
        w.end_array();
        w.end_object();
      }
    }
    w.end_array();
    // Derived block: per-thread-count overhead plus the burst-drain
    // residency quantiles, flattened through the registry exporter.
    w.key("derived").begin_array();
    for (const cell& c : cells) {
      w.begin_object();
      w.key("series").value(names[c.series]);
      w.key("threads").value(static_cast<std::uint64_t>(c.threads));
      w.key("overhead_pct").value(obs::finite_or(c.r.overhead_pct()));
      w.end_object();
    }
    for (const rcell& c : rcells) {
      obs::metrics_snapshot snap;
      obs::append_metrics(snap, "residency", c.report);
      w.begin_object();
      w.key("series").value("burst-drain residency");
      w.key("threads").value(static_cast<std::uint64_t>(c.threads));
      w.key("drain_mean_s").value(obs::finite_or(c.drain.mean));
      for (const obs::metric& m : snap) {
        w.key(m.name).value(m.value);
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
    if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
      std::fputs(w.str().c_str(), f);
      std::fputs("\n", f);
      std::fclose(f);
      std::printf("[json written to %s]\n", json_path.c_str());
    } else {
      std::fprintf(stderr, "could not open --json path %s\n",
                   json_path.c_str());
    }
  }
  return 0;
}
