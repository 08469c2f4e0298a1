// kpqbench: runs one workload of the KP queue benchmark from a generated
// input file and prints one JSON object with the metrics, the host
// fingerprint and the correctness counts. kpqbench/run.py generates the
// input from the seed, builds this program and drives it.
//
//   kpqbench INPUT [--spans PATH]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baseline/ms_queue.hpp"
#include "broker_bench.hpp"
#include "core/wf_queue.hpp"
#include "measure.hpp"
#include "queue_bench.hpp"

namespace kpqbench {
namespace {

// A round whose workers did not each have a CPU of their own for most of
// the window measured the scheduler, not the queue: it is re-run, never
// recorded.
constexpr double min_overlap = 0.85;
constexpr int max_rejected = 6;

// Rounds of about a second: the host's speed drifts from round to round,
// so a run reports interquartile means over many short rounds, each set up
// afresh (set-up time: the median).
// The untraced run spends 90% of its seconds in measured rounds and 10% in
// one footprint round; the traced run cycles untraced, traced and ms_queue
// rounds.
constexpr double round_s = 1.0;
int measured_rounds(double seconds) {
  return std::max(3, static_cast<int>(seconds * 0.9 / round_s));
}
int traced_cycles(double seconds) {
  return std::max(1, static_cast<int>(seconds / (3.0 * round_s)));
}

using opt_queue = kpq::wf_queue_opt<std::uint64_t>;
using opt_stats_queue =
    kpq::wf_queue<std::uint64_t, kpq::help_one, kpq::fetch_add_phase,
                  kpq::hp_domain, kpq::wf_options_stats>;
using lf_queue = kpq::ms_queue<std::uint64_t>;

using broker_opt = kpq::wf_queue_opt<broker_request*>;
using broker_stats =
    detail::traced_inner<kpq::wf_queue<broker_request*, kpq::help_one,
                                       kpq::fetch_add_phase, kpq::hp_domain,
                                       kpq::wf_options_stats>>;
using broker_lf = kpq::ms_queue<broker_request*>;

// ------------------------------------------------------------------ input

struct input {
  std::map<std::string, std::vector<std::string>> kv;

  const std::vector<std::string>& at(const std::string& k) const {
    auto it = kv.find(k);
    if (it == kv.end() || it->second.empty()) {
      throw std::runtime_error("input lacks '" + k + "'");
    }
    return it->second;
  }
  std::string str(const std::string& k) const { return at(k)[0]; }
  std::uint64_t u64(const std::string& k) const {
    return std::stoull(at(k)[0]);
  }
  double real(const std::string& k) const { return std::stod(at(k)[0]); }
  std::vector<std::uint64_t> u64s(const std::string& k) const {
    std::vector<std::uint64_t> v;
    for (const auto& s : at(k)) v.push_back(std::stoull(s, nullptr, 0));
    return v;
  }
};

input read_input(const char* path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error(std::string("cannot open ") + path);
  input in;
  std::string line;
  while (std::getline(f, line)) {
    std::istringstream ls(line);
    std::string key, tok;
    if (!(ls >> key)) continue;
    auto& vals = in.kv[key];
    while (ls >> tok) vals.push_back(tok);
  }
  return in;
}

// ----------------------------------------------------------------- output

struct metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o + "\"";
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto p = line.find(':');
      if (p != std::string::npos) return line.substr(p + 2);
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// ---------------------------------------------------------------- rounds

/// Runs rounds on one pool. A single-worker pool moves to the next allowed
/// CPU every round: the CPUs of the host run at different and drifting
/// speeds, so a run samples all of them alike instead of one.
struct round_runner {
  worker_pool& pool;
  const std::vector<int>& cpus;
  int rejected = 0;
  std::size_t next_cpu = 0;

  /// Runs `count` accepted rounds of `fn`, re-running any round whose
  /// workers overlapped too little. Every round's window must bracket its
  /// workers' own stamps.
  template <typename Fn>
  auto rounds(int count, Fn&& fn) -> std::vector<decltype(fn())> {
    std::vector<decltype(fn())> out;
    std::uint64_t failed = 0;
    while (static_cast<int>(out.size()) < count) {
      if (pool.size() == 1) {
        const int cpu = cpus[next_cpu++ % cpus.size()];
        pool.each([cpu](std::uint32_t) {
          if (!pin_self(cpu)) throw std::runtime_error("cannot pin worker");
        });
      }
      auto r = fn();
      if (!r.window.brackets()) {
        throw std::runtime_error("window does not bracket the workers' stamps");
      }
      if (r.window.overlap() < min_overlap) {
        std::fprintf(stderr, "round rejected: worker overlap %.3f < %.2f\n",
                     r.window.overlap(), min_overlap);
        failed += r.failed;
        if (++rejected > max_rejected) {
          throw std::runtime_error("workers kept sharing CPUs; no result");
        }
        continue;
      }
      std::fprintf(stderr,
                   "round: setup %.4f s, window %.3f s, %.0f ops/s, overlap "
                   "%.3f, failed %llu\n",
                   r.setup_s, r.window.seconds(), r.throughput(),
                   r.window.overlap(), static_cast<unsigned long long>(r.failed));
      r.failed += failed;  // a rejected round's check still counts
      failed = 0;
      out.push_back(std::move(r));
    }
    return out;
  }
};

struct totals {
  std::uint64_t attempted = 0, failed = 0;
  double min_overlap = 1e9;
  template <typename R>
  void add(const std::vector<R>& rounds) {
    for (const auto& r : rounds) {
      attempted += r.attempted;
      failed += r.failed;
      min_overlap = std::min(min_overlap, r.window.overlap());
    }
  }
};

template <typename R>
double round_throughput(const std::vector<R>& rounds) {
  std::vector<double> v;
  for (const auto& r : rounds) v.push_back(r.throughput());
  return interquartile_mean(v);
}

template <typename R>
double median_setup(const std::vector<R>& a, const std::vector<R>& b) {
  std::vector<double> v;
  for (const auto& r : a) v.push_back(r.setup_s);
  for (const auto& r : b) v.push_back(r.setup_s);
  return median_of(v);
}

/// Self time of every span (duration minus its children's), summed per
/// layer; plus each span name's mean duration. Span ids are unique within
/// a round, so children are matched round by round.
std::string self_time_json(const std::vector<std::vector<span>>& rounds) {
  std::map<std::string, std::uint64_t> layer_self;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> name;
  for (const auto& spans : rounds) {
    std::map<std::uint64_t, std::uint64_t> child_ns;
    for (const auto& s : spans) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    for (const auto& s : spans) {
      const std::uint64_t dur = s.end_ns - s.start_ns;
      const auto kid = child_ns.find(s.id);
      const std::uint64_t kids = kid == child_ns.end() ? 0 : kid->second;
      const std::string n = s.name;
      layer_self[n.substr(0, n.find('.'))] += dur > kids ? dur - kids : 0;
      auto& nm = name[n];
      nm.first += dur;
      ++nm.second;
    }
  }
  std::string o = "{\"self_ns_by_layer\":{";
  bool first = true;
  for (const auto& [k, v] : layer_self) {
    o += (first ? "" : ",") + json_str(k) + ":" + std::to_string(v);
    first = false;
  }
  o += "},\"mean_ns_by_span\":{";
  first = true;
  for (const auto& [k, v] : name) {
    o += (first ? "" : ",") + json_str(k) + ":" +
         fmt(static_cast<double>(v.first) / static_cast<double>(v.second));
    first = false;
  }
  return o + "}}";
}

void write_spans(const std::string& path,
                 const std::vector<std::vector<span>>& rounds) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    for (const auto& s : rounds[r]) {
      std::fprintf(f,
                   "{\"round\":%zu,\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                   "\"start_ns\":%llu,\"end_ns\":%llu,\"rid\":%llu}\n",
                   r, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(s.rid));
    }
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

struct outcome {
  std::vector<metric> metrics;
  totals t;
  int rejected = 0;
  std::string extra;  // JSON members: sample counts, trace summary
};

double per(double a, double b) { return b == 0 ? 0.0 : a / b; }

void add_core_layers(std::vector<metric>& m, const loglin_hist& enq,
                     const loglin_hist& deq, const kpq::wf_counters& c,
                     double calls, double allocs, double retired, double freed,
                     double pending_max, double live_per_item) {
  m.push_back({"core.enqueue_ns.p50", enq.quantile(0.50), "ns"});
  m.push_back({"core.enqueue_ns.p99", enq.quantile(0.99), "ns"});
  m.push_back({"core.dequeue_ns.p50", deq.quantile(0.50), "ns"});
  m.push_back({"core.dequeue_ns.p99", deq.quantile(0.99), "ns"});
  m.push_back({"core.allocs_per_op", per(allocs, calls), "count"});
  m.push_back({"core.helped_per_op",
               per(static_cast<double>(c.helped_enq_completions +
                                       c.helped_deq_completions),
                   calls),
               "count"});
  m.push_back({"core.link_cas_fail_per_op",
               per(static_cast<double>(c.link_cas_failures), calls), "count"});
  m.push_back({"core.desc_cas_fail_per_op",
               per(static_cast<double>(c.desc_cas_failures), calls), "count"});
  m.push_back({"core.empty_deq_frac",
               per(static_cast<double>(c.empty_deqs),
                   static_cast<double>(c.deq_ops)),
               "ratio"});
  m.push_back({"reclaim.retired_per_op", per(retired, calls), "count"});
  m.push_back({"reclaim.freed_frac", per(freed, retired), "ratio"});
  m.push_back({"reclaim.pending_max", pending_max, "count"});
  m.push_back({"storage.live_bytes_per_item", live_per_item, "bytes"});
}

/// The layers a queue workload does not use report their idle value.
void add_idle_async_layers(std::vector<metric>& m) {
  m.push_back({"scale.shard_skew", 1.0, "ratio"});  // one queue, one shard
  for (const char* n : {"sync.hub_parks_per_req", "sync.hub_resume_ns.mean",
                        "async.co_enqueue_ns.p50", "async.co_enqueue_ns.p99",
                        "async.co_dequeue_ns.p50", "async.co_dequeue_ns.p99",
                        "async.ready_lag_ns.mean", "async.ready_lag_ns.max",
                        "async.max_ready_depth", "async.resumes_per_req"}) {
    const std::string s = n;
    const bool time = s.find("_ns") != std::string::npos;
    m.push_back({s, 0.0, time ? "ns" : "count"});
  }
}

/// End-to-end metrics of the untraced run. Throughput and each latency
/// percentile are the interquartile mean over the rounds of the round's own
/// value (a percentile exact from the round's kept samples), so a round
/// that a host hiccup hit moves its own tail, not the run's.
template <typename R>
void add_e2e(outcome& o, std::vector<R>& plain, const std::vector<R>& foot) {
  std::vector<double> op50, op99, rtt50, rtt99;
  std::size_t n_op = 0, n_rtt = 0, min_op = ~std::size_t{0},
              min_rtt = ~std::size_t{0};
  for (auto& r : plain) {
    op50.push_back(exact_quantile(r.op_ns, 0.50));
    op99.push_back(exact_quantile(r.op_ns, 0.99));
    rtt50.push_back(exact_quantile(r.rtt_ns, 0.50) * 1e-3);
    rtt99.push_back(exact_quantile(r.rtt_ns, 0.99) * 1e-3);
    n_op += r.op_ns.size();
    n_rtt += r.rtt_ns.size();
    min_op = std::min(min_op, r.op_ns.size());
    min_rtt = std::min(min_rtt, r.rtt_ns.size());
  }
  o.metrics.push_back({"throughput_ops_s", round_throughput(plain), "1/s"});
  o.metrics.push_back({"op_p50_ns", interquartile_mean(op50), "ns"});
  o.metrics.push_back({"op_p99_ns", interquartile_mean(op99), "ns"});
  o.metrics.push_back({"rtt_p50_us", interquartile_mean(rtt50), "us"});
  o.metrics.push_back({"rtt_p99_us", interquartile_mean(rtt99), "us"});
  o.metrics.push_back(
      {"peak_live_bytes", static_cast<double>(foot.at(0).peak_live), "bytes"});
  o.metrics.push_back({"setup_s", median_setup(plain, foot), "s"});
  o.extra += ",\"samples\":{\"rounds\":" + std::to_string(plain.size()) +
             ",\"op\":" + std::to_string(n_op) +
             ",\"op_min_per_round\":" + std::to_string(min_op) +
             ",\"rtt\":" + std::to_string(n_rtt) +
             ",\"rtt_min_per_round\":" + std::to_string(min_rtt) + "}";
}

void finish_traced(outcome& o, double plain_thr, double traced_thr,
                   double lf_thr, const std::vector<std::vector<span>>& spans,
                   std::uint64_t dropped, const std::string& spans_path) {
  o.metrics.push_back({"baseline.lf_ops_s", lf_thr, "1/s"});
  o.metrics.push_back({"obs.trace_overhead_frac",
                       (plain_thr - traced_thr) / plain_thr, "ratio"});
  o.metrics.push_back({"bench.worker_overlap", o.t.min_overlap, "ratio"});
  o.metrics.push_back(
      {"bench.fail_ratio",
       per(static_cast<double>(o.t.failed), static_cast<double>(o.t.attempted)),
       "ratio"});
  std::size_t kept = 0;
  for (const auto& r : spans) kept += r.size();
  o.extra += ",\"span_summary\":" + self_time_json(spans) +
             ",\"spans_kept\":" + std::to_string(kept) +
             ",\"spans_dropped\":" + std::to_string(dropped);
  write_spans(spans_path, spans);
}

/// The untraced run: measured rounds of about a second, then one footprint
/// round (memory counters on); fills the end-to-end metrics.
template <typename Plain, typename Foot>
outcome untraced_run(round_runner& run, double seconds, Plain&& plain,
                     Foot&& foot) {
  outcome o;
  const int rounds = measured_rounds(seconds);
  const double w = seconds * 0.9 / rounds;
  auto p = run.rounds(rounds, [&] { return plain(w); });
  auto f = run.rounds(1, [&] { return foot(seconds * 0.1); });
  o.t.add(p);
  o.t.add(f);
  add_e2e(o, p, f);
  o.rejected = run.rejected;
  return o;
}

/// The traced run's rounds: an untraced round (the overhead's base), a
/// traced round on the wf_options_stats twin and an ms_queue round, cycled.
template <typename R, typename Plain, typename Traced, typename Lf>
void traced_rounds(round_runner& run, outcome& o, double seconds,
                   std::vector<R>& plain, std::vector<R>& tr,
                   std::vector<R>& lf, Plain&& p, Traced&& t, Lf&& l) {
  const int cycles = traced_cycles(seconds);
  const double w = seconds / (3.0 * cycles);
  for (int i = 0; i < cycles; ++i) {
    plain.push_back(std::move(run.rounds(1, [&] { return p(w); })[0]));
    tr.push_back(std::move(run.rounds(1, [&] { return t(w); })[0]));
    lf.push_back(std::move(run.rounds(1, [&] { return l(w); })[0]));
  }
  o.t.add(plain);
  o.t.add(tr);
  o.t.add(lf);
}

// --------------------------------------------------------------- workloads

outcome run_queue(const input& in, const std::vector<int>& cpus,
                  double seconds, bool traced, const std::string& spans_path) {
  queue_inputs qi;
  qi.workers = static_cast<std::uint32_t>(in.u64("workers"));
  if (qi.workers > cpus.size()) {
    throw std::runtime_error("more workers than CPUs to pin them to");
  }
  qi.prefill = in.u64("prefill");
  qi.warmup_ops = in.u64("warmup_ops");
  qi.pairs = in.u64("pairs") != 0;
  qi.offset = in.u64s("offsets");
  for (std::uint32_t w = 0; w < qi.workers; ++w) {
    const std::string bits = in.str("pattern" + std::to_string(w));
    if (bits.empty() || (bits.size() & (bits.size() - 1)) != 0) {
      throw std::runtime_error("op pattern length is not a power of two");
    }
    std::vector<std::uint8_t> p;
    for (char c : bits) p.push_back(c == '1' ? 1 : 0);
    qi.pattern.push_back(std::move(p));
  }
  if (qi.offset.size() != qi.workers) throw std::runtime_error("offsets");
  worker_pool pool(qi.workers, cpus);
  round_runner run{pool, cpus};

  if (!traced) {
    return untraced_run(
        run, seconds,
        [&](double w) { return run_round<opt_queue, mode::plain>(pool, qi, w); },
        [&](double w) {
          return run_round<opt_queue, mode::footprint>(pool, qi, w);
        });
  }
  outcome o;
  std::vector<round_result> plain, tr, lf;
  traced_rounds(
      run, o, seconds, plain, tr, lf,
      [&](double w) { return run_round<opt_queue, mode::plain>(pool, qi, w); },
      [&](double w) {
        return run_round<opt_stats_queue, mode::traced>(pool, qi, w);
      },
      [&](double w) { return run_round<lf_queue, mode::lf>(pool, qi, w); });
  loglin_hist enq, deq;
  kpq::wf_counters c;
  double calls = 0, allocs = 0, retired = 0, freed = 0, pending = 0, live = 0;
  std::vector<std::vector<span>> spans;
  std::uint64_t dropped = 0;
  for (auto& r : tr) {
    enq.merge(r.enq_h);
    deq.merge(r.deq_h);
    c += r.counters;
    calls += static_cast<double>(r.counters.enq_ops + r.counters.deq_ops);
    allocs += static_cast<double>(r.allocs);
    retired += static_cast<double>(r.retired);
    freed += static_cast<double>(r.freed);
    pending = std::max(pending, static_cast<double>(r.pending_max));
    live = r.live_per_item;
    spans.push_back(std::move(r.spans));
    dropped += r.spans_dropped;
  }
  add_core_layers(o.metrics, enq, deq, c, calls, allocs, retired, freed,
                  pending, live);
  add_idle_async_layers(o.metrics);
  finish_traced(o, round_throughput(plain), round_throughput(tr),
                round_throughput(lf), spans, dropped, spans_path);
  o.rejected = run.rejected;
  return o;
}

outcome run_broker(const input& in, const std::vector<int>& cpus,
                   double seconds, bool traced, const std::string& spans_path) {
  broker_inputs bi;
  bi.shards = static_cast<std::uint32_t>(in.u64("shards"));
  bi.workers = static_cast<std::uint32_t>(in.u64("echo_workers"));
  bi.warmup_requests = in.u64("warmup_requests");
  bi.keys = in.u64s("keys");
  bi.payloads = in.u64s("payloads");
  if (bi.keys.empty() || bi.keys.size() != bi.payloads.size() ||
      bi.shards == 0) {
    throw std::runtime_error("broker input: keys/payloads/shards");
  }
  worker_pool pool(1, cpus);
  round_runner run{pool, cpus};

  if (!traced) {
    return untraced_run(
        run, seconds,
        [&](double w) {
          return run_broker_round<broker_opt, mode::plain>(pool, bi, w);
        },
        [&](double w) {
          return run_broker_round<broker_opt, mode::footprint>(pool, bi, w);
        });
  }
  outcome o;
  std::vector<broker_result> plain, tr, lf;
  traced_rounds(
      run, o, seconds, plain, tr, lf,
      [&](double w) {
        return run_broker_round<broker_opt, mode::plain>(pool, bi, w);
      },
      [&](double w) {
        return run_broker_round<broker_stats, mode::traced>(pool, bi, w);
      },
      [&](double w) {
        return run_broker_round<broker_lf, mode::lf>(pool, bi, w);
      });
  loglin_hist enq, deq, co_enq, co_deq;
  kpq::wf_counters c;
  double calls = 0, allocs = 0, retired = 0, freed = 0, pending = 0, live = 0;
  double reqs = 0, parks = 0, hub_resumes = 0, hub_ns = 0, lag_total = 0,
         lag_max = 0, depth = 0, loop_resumes = 0, skew = 0;
  std::vector<std::vector<span>> spans;
  std::uint64_t dropped = 0;
  for (auto& r : tr) {
    enq.merge(r.enq_h);
    deq.merge(r.deq_h);
    co_enq.merge(r.co_enq_h);
    co_deq.merge(r.co_deq_h);
    c += r.counters;
    calls += static_cast<double>(r.core_calls);
    allocs += static_cast<double>(r.allocs);
    retired += static_cast<double>(r.retired);
    freed += static_cast<double>(r.freed);
    pending = std::max(pending, static_cast<double>(r.pending_max));
    live = r.live_per_item;
    reqs += static_cast<double>(r.requests);
    parks += static_cast<double>(r.hub_parks);
    hub_resumes += static_cast<double>(r.hub_resumes);
    hub_ns += static_cast<double>(r.hub_resume_ns);
    lag_total += static_cast<double>(r.loop.ready_lag_ns_total);
    loop_resumes += static_cast<double>(r.loop.resumes);
    lag_max = std::max(lag_max, static_cast<double>(r.loop.ready_lag_ns_max));
    depth = std::max(depth, static_cast<double>(r.loop.max_ready_depth));
    std::uint64_t mx = 0, sum = 0;
    for (auto n : r.per_shard) {
      mx = std::max(mx, n);
      sum += n;
    }
    skew = std::max(skew, per(static_cast<double>(mx) *
                                  static_cast<double>(r.per_shard.size()),
                              static_cast<double>(sum)));
    spans.push_back(std::move(r.spans));
    dropped += r.spans_dropped;
  }
  add_core_layers(o.metrics, enq, deq, c, calls, allocs, retired, freed,
                  pending, live);
  o.metrics.push_back({"scale.shard_skew", skew, "ratio"});
  o.metrics.push_back({"sync.hub_parks_per_req", per(parks, reqs), "count"});
  o.metrics.push_back({"sync.hub_resume_ns.mean", per(hub_ns, hub_resumes), "ns"});
  o.metrics.push_back({"async.co_enqueue_ns.p50", co_enq.quantile(0.50), "ns"});
  o.metrics.push_back({"async.co_enqueue_ns.p99", co_enq.quantile(0.99), "ns"});
  o.metrics.push_back({"async.co_dequeue_ns.p50", co_deq.quantile(0.50), "ns"});
  o.metrics.push_back({"async.co_dequeue_ns.p99", co_deq.quantile(0.99), "ns"});
  o.metrics.push_back({"async.ready_lag_ns.mean", per(lag_total, loop_resumes), "ns"});
  o.metrics.push_back({"async.ready_lag_ns.max", lag_max, "ns"});
  o.metrics.push_back({"async.max_ready_depth", depth, "count"});
  o.metrics.push_back({"async.resumes_per_req", per(loop_resumes, reqs), "count"});
  finish_traced(o, round_throughput(plain), round_throughput(tr),
                round_throughput(lf), spans, dropped, spans_path);
  o.rejected = run.rejected;
  return o;
}

}  // namespace
}  // namespace kpqbench

int main(int argc, char** argv) {
  using namespace kpqbench;
  if (argc < 2) {
    std::fprintf(stderr, "usage: kpqbench INPUT [--spans PATH]\n");
    return 2;
  }
  std::string spans_path;
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--spans") spans_path = argv[i + 1];
  }
  try {
    const input in = read_input(argv[1]);
    const std::string workload = in.str("workload");
    const double seconds = in.real("seconds");
    const bool traced = in.u64("trace") != 0;
    const std::vector<int> cpus = allowed_cpus();
    if (cpus.empty()) throw std::runtime_error("no CPU to pin to");

    outcome o = workload == "broker"
                    ? run_broker(in, cpus, seconds, traced, spans_path)
                    : run_queue(in, cpus, seconds, traced, spans_path);

    // Several workers take the first allowed CPUs, one each; a single
    // worker (solo, the broker's loop) rotates over all of them by round.
    const std::uint64_t workers =
        workload == "broker" ? 1 : in.u64("workers");
    std::string pinned = workers == 1 ? "rotating:" : "";
    for (std::size_t i = 0; i < (workers == 1 ? cpus.size() : workers); ++i) {
      pinned += (i ? "," : "") + std::to_string(cpus[i]);
    }
    std::string out = "{\"correct\":";
    out += o.t.failed == 0 ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(o.t.attempted);
    out += ",\"failed\":" + std::to_string(o.t.failed);
    out += ",\"metrics\":{";
    for (std::size_t i = 0; i < o.metrics.size(); ++i) {
      const metric& m = o.metrics[i];
      out += (i ? "," : "") + json_str(m.name) + ":{\"value\":" + fmt(m.value) +
             ",\"unit\":" + json_str(m.unit) + "}";
    }
    out += "},\"host\":{\"nproc\":" + std::to_string(cpus.size()) +
           ",\"cpu_model\":" + json_str(cpu_model()) +
           ",\"pinned_cpus\":" + json_str(pinned) +
           ",\"compiler\":" + json_str(compiler()) +
           ",\"build_type\":" + json_str(KPQBENCH_BUILD_TYPE) +
#if defined(KPQ_TRACE)
           ",\"kpq_trace\":1" +
#else
           ",\"kpq_trace\":0" +
#endif
           ",\"seed\":" + std::to_string(in.u64("seed")) + "}";
    out += ",\"worker_overlap\":" + fmt(o.t.min_overlap);
    out += ",\"rejected_rounds\":" + std::to_string(o.rejected);
    out += o.extra + "}";
    std::printf("%s\n", out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kpqbench: %s\n", e.what());
    return 1;
  }
}
