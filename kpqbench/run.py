#!/usr/bin/env python3
"""Benchmark of the Kogan-Petrank wait-free queue.

Builds the benchmark program from source (kpqbench/ + src/), generates the
workload's inputs from the seed, runs it, checks its metrics against
BENCHMARK.json and prints every metric by name and unit. The last line of
standard output is the result object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

  python3 kpqbench/run.py --workload pairs --seed 1 --seconds 10 --trace 0
  python3 kpqbench/run.py --all [--seed 1] [--seconds 10]   # every workload
  python3 kpqbench/run.py --selftest                         # own tests
  python3 kpqbench/run.py --compare OLD.json NEW.json        # two records

Run from the root of the repository. Results, with the host fingerprint,
are kept in .bench_results/<workload>.trace<0|1>.json, and the spans of the
traced run in .bench_results/<workload>.spans.jsonl.
"""
import argparse
import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "kpqbench")
RESULTS = os.path.join(ROOT, ".bench_results")
RUN_TIMEOUT_S = 170

# Why each workload exists is recorded in BENCHMARK.json and README.md.
PATTERN_LEN = 1 << 16   # deep: per-worker op pattern, cycled
DEEP_PREFILL = 1 << 18  # 8 MiB of nodes: four times a 2 MiB per-core L2
WARMUP_OPS = 20000      # per worker, part of set-up
BROKER_SESSIONS = 256
BROKER_SHARDS = 4
BROKER_ECHO_WORKERS = 2
BROKER_WARMUP = 200     # requests per session, part of set-up


def fail(msg):
    print("kpqbench: " + msg, file=sys.stderr)
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def hash64(x):
    """kpq::hash64 (src/harness/workload.hpp), which key_hash_shards uses."""
    m = (1 << 64) - 1
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & m
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & m
    return x ^ (x >> 31)


def broker_keys(rng):
    """Seeded keys with session i routed to shard i % shards, so every seed
    loads the shards alike and only the key values and payloads vary."""
    keys = []
    for i in range(BROKER_SESSIONS):
        while True:
            k = rng.getrandbits(64)
            if hash64(k) % BROKER_SHARDS == i % BROKER_SHARDS:
                keys.append(k)
                break
    return keys


def make_input(workload, seed, seconds, trace):
    """The generated inputs: the program sees only these."""
    rng = random.Random(seed)
    lines = ["workload " + workload, "seed %d" % seed,
             "seconds %r" % float(seconds), "trace %d" % trace]
    if workload == "broker":
        lines += ["shards %d" % BROKER_SHARDS,
                  "echo_workers %d" % BROKER_ECHO_WORKERS,
                  "warmup_requests %d" % BROKER_WARMUP,
                  "keys " + " ".join(map(str, broker_keys(rng))),
                  "payloads " + " ".join(str(rng.getrandbits(64))
                                         for _ in range(BROKER_SESSIONS))]
        return "\n".join(lines) + "\n"
    workers = 1 if workload == "solo" else nproc()
    lines += ["workers %d" % workers,
              "prefill %d" % (DEEP_PREFILL if workload == "deep" else 0),
              "warmup_ops %d" % WARMUP_OPS,
              "pairs %d" % (0 if workload == "deep" else 1)]
    offsets = []
    for w in range(workers):
        if workload == "deep":
            # Exactly half enqueues per cycle, so the depth does not drift.
            ops = [1] * (PATTERN_LEN // 2) + [0] * (PATTERN_LEN // 2)
            rng.shuffle(ops)
            lines.append("pattern%d %s" % (w, "".join(map(str, ops))))
            offsets.append(rng.randrange(PATTERN_LEN))
        else:
            lines.append("pattern%d 10" % w)
            offsets.append(0)
    lines.append("offsets " + " ".join(map(str, offsets)))
    return "\n".join(lines) + "\n"


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json is missing")
    with open(path) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the library sources (src/) are missing; run from a checkout")
    steps = [["cmake", "--build", BUILD, "-j", str(max(1, nproc()))]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        # Configured once; the build step re-configures when a CMake file
        # changes.
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def run_workload(spec, workload, seed, seconds, trace):
    """Runs one workload; returns the program's full record."""
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        fail("unknown workload %r (have %s)" % (workload, ", ".join(names)))
    os.makedirs(RESULTS, exist_ok=True)
    inp = os.path.join(BUILD, "%s.input" % workload)
    with open(inp, "w") as f:
        f.write(make_input(workload, seed, seconds, trace))
    cmd = [os.path.join(BUILD, "kpqbench"), inp]
    if trace:
        cmd += ["--spans", os.path.join(RESULTS, workload + ".spans.jsonl")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s: no result within %d s" % (workload, RUN_TIMEOUT_S))
    if r.returncode != 0 or not r.stdout.strip():
        fail("%s: the benchmark program failed (exit %d)"
             % (workload, r.returncode))
    record = json.loads(r.stdout.strip().splitlines()[-1])

    # Every declared metric, and nothing else, with its declared unit.
    want = spec["per_layer" if trace else "end_to_end"]
    got = record["metrics"]
    if sorted(got) != sorted(m["name"] for m in want):
        fail("%s: metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            workload, sorted(set(m["name"] for m in want) - set(got)),
            sorted(set(got) - set(m["name"] for m in want))))
    for m in want:
        if got[m["name"]]["unit"] != m["unit"]:
            fail("%s: unit of %s is %s, not %s" % (
                workload, m["name"], got[m["name"]]["unit"], m["unit"]))
    record["workload"] = workload
    record["trace"] = trace
    with open(os.path.join(RESULTS, "%s.trace%d.json" % (workload, trace)),
              "w") as f:
        json.dump(record, f, indent=1)
    return record


def show(record, spec):
    want = spec["per_layer" if record["trace"] else "end_to_end"]
    print("== %s (trace %d)  host: %s" % (
        record["workload"], record["trace"], json.dumps(record["host"])))
    for m in want:
        v = record["metrics"][m["name"]]
        print("  %-28s %16.6g %s" % (m["name"], v["value"], v["unit"]))
    attempted, failed = record["attempted"], record["failed"]
    print("  %-28s %16.6g ratio (%d of %d ops failed)" % (
        "fail_ratio", failed / attempted, failed, attempted))
    if not record["trace"]:
        print("  %-28s %16.6g ratio" % ("bench.worker_overlap",
                                         record["worker_overlap"]))
    print("  rounds rejected for overlap: %d" % record["rejected_rounds"])
    if "samples" in record:
        n = record["samples"]
        print("  samples: %d rounds; %d op (>= %d a round), %d rtt (>= %d a"
              " round)" % (n["rounds"], n["op"], n["op_min_per_round"],
                           n["rtt"], n["rtt_min_per_round"]))


def result_line(record):
    return json.dumps({k: record[k] for k in
                       ("correct", "attempted", "failed", "metrics")})


def selftest():
    r = subprocess.run([os.path.join(BUILD, "kpqbench_selftest")],
                       timeout=RUN_TIMEOUT_S)
    return r.returncode == 0


def fingerprint(record):
    return {k: v for k, v in record["host"].items() if k != "seed"}


def compare(old_path, new_path):
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    if fingerprint(old) != fingerprint(new):
        print("not comparable: host fingerprints differ\n  %s\n  %s" % (
            json.dumps(fingerprint(old)), json.dumps(fingerprint(new))))
        return 3
    if (old["workload"], old["trace"]) != (new["workload"], new["trace"]):
        print("not comparable: different workload or trace mode")
        return 3
    for name, m in old["metrics"].items():
        a, b = m["value"], new["metrics"][name]["value"]
        ratio = "%.4f" % (b / a) if a else "n/a"
        print("  %-28s %14.6g -> %14.6g %s  (x%s)" % (name, a, b, m["unit"],
                                                     ratio))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    spec = load_spec()
    build()
    if args.selftest:
        return 0 if selftest() else 1
    seconds = args.seconds or spec["run_seconds"]
    if seconds < 1:
        fail("--seconds must be at least 1")
    if args.all:
        if not selftest():
            return 1
        ok = True
        for w in spec["workloads"]:
            for trace in (0, 1):
                rec = run_workload(spec, w["name"], args.seed, seconds, trace)
                show(rec, spec)
                ok = ok and rec["correct"]
        return 0 if ok else 1
    if not args.workload:
        fail("give --workload NAME, --all, --selftest or --compare")
    rec = run_workload(spec, args.workload, args.seed, seconds, args.trace)
    show(rec, spec)
    print(result_line(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
