#!/usr/bin/env python3
"""Convert a raw kpq trace dump (JSONL) to Chrome/Perfetto timeline JSON.

The raw form is what obs::dump_trace_jsonl and the crash flight recorder
write (src/obs/timeline.hpp documents it):

    {"kpq_trace_raw":1,"tick_hz":<hz>,"dropped":<n>,"reason":"<why>"}
    {"ts":<ticks>,"tid":<t>,"kind":<k>,"kind_name":"<n>","phase":<p>,"aux":<a>}
    ...
    {"metric":"<name>","value":<v>}          (registry lines, optional)

This script is the project's one trace-timeline converter: publish/complete
pairs become "X" slices, help episodes become "X" slices with an "s"/"f"
flow arrow to the victim operation's completion, everything else becomes a
thread-scoped instant. Open the output at
https://ui.perfetto.dev or chrome://tracing.

Usage:
    trace_view.py DUMP [-o OUT.json] [--summary]

With --summary, also prints per-kind event counts, per-thread totals, the
registry lines, and the flow-arrow count to stderr. Stdlib only. The
conversion rules are tested by tests/obs_trace_view_test.py.
"""

import argparse
import collections
import json
import sys

SCHEMA = "kpq-trace-1"

# Kind families the converter pairs into slices; everything else is a point.
OP_PAIRS = {
    "enq_publish": ("enq", "enqueue"),
    "deq_publish": ("deq", "dequeue"),
    "enq_complete": ("enq", "enqueue"),
    "deq_complete": ("deq", "dequeue"),
}


def read_dump(path):
    header, events, metrics = None, [], []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                # A crash dump's final line may be torn mid-write; tolerate.
                print(f"warning: skipping unparseable line {lineno}",
                      file=sys.stderr)
                continue
            if obj.get("kpq_trace_raw") == 1:
                header = obj
            elif "kind_name" in obj:
                events.append(obj)
            elif "metric" in obj:
                metrics.append(obj)
    if header is None:
        sys.exit(f"error: {path} has no kpq_trace_raw header line")
    events.sort(key=lambda e: e["ts"])
    return header, events, metrics


def convert(header, events):
    tick_hz = float(header.get("tick_hz", 1e9)) or 1e9
    base = events[0]["ts"] if events else 0

    def to_us(ticks):
        return (ticks - base) / tick_hz * 1e6

    out = []
    out.append({"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
                "args": {"name": "kpq"}})
    for tid in sorted({e["tid"] for e in events}):
        out.append({"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                    "args": {"name": f"worker {tid}"}})

    # Pass 1: completions (flow targets) and help episodes. Per-tid ops are
    # sequential, so one pending slot per (tid, family) pairs the points.
    completions, episodes = [], []
    pending_help = {}
    for e in events:
        kind = e["kind_name"]
        if kind == "help_start":
            pending_help[e["tid"]] = e
        elif kind == "help_finish":
            start = pending_help.pop(e["tid"], None)
            if start is not None:
                episodes.append({"helper": e["tid"], "victim": e["aux"],
                                 "victim_phase": e["phase"],
                                 "start": start["ts"], "finish": e["ts"]})
        elif kind in ("enq_complete", "deq_complete"):
            completions.append(e)

    # Pass 2: slices and instants.
    pending = {}
    for e in events:
        kind = e["kind_name"]
        if kind in ("enq_publish", "deq_publish"):
            pending[(e["tid"], OP_PAIRS[kind][0])] = e
        elif kind in ("enq_complete", "deq_complete"):
            fam, name = OP_PAIRS[kind]
            pub = pending.pop((e["tid"], fam), None)
            if pub is None:
                continue
            ev = {"name": name, "ph": "X", "pid": 0, "tid": e["tid"],
                  "ts": to_us(pub["ts"]),
                  "dur": max(to_us(e["ts"]) - to_us(pub["ts"]), 0.0),
                  "cat": "op", "args": {"phase": e["phase"]}}
            if kind == "deq_complete":
                ev["args"]["hit"] = e["aux"] != 0
            out.append(ev)
        elif kind == "help_start":
            pending[(e["tid"], "help")] = e
        elif kind == "help_finish":
            start = pending.pop((e["tid"], "help"), None)
            if start is None:
                continue
            out.append({"name": "help", "ph": "X", "pid": 0, "tid": e["tid"],
                        "ts": to_us(start["ts"]),
                        "dur": max(to_us(e["ts"]) - to_us(start["ts"]), 0.0),
                        "cat": "help",
                        "args": {"victim": e["aux"],
                                 "victim_phase": e["phase"]}})
        else:
            out.append({"name": kind, "ph": "i", "pid": 0, "tid": e["tid"],
                        "ts": to_us(e["ts"]), "s": "t", "cat": "event",
                        "args": {"phase": e["phase"], "aux": e["aux"]}})

    # Flow arrows: helper's finished episode -> the victim operation's first
    # completion with the episode's phase at or after the help began.
    flow_id = 1
    for ep in episodes:
        target = next((c for c in completions
                       if c["tid"] == ep["victim"]
                       and c["phase"] == ep["victim_phase"]
                       and c["ts"] >= ep["start"]), None)
        if target is None:
            continue
        out.append({"name": "helped", "ph": "s", "pid": 0,
                    "tid": ep["helper"], "ts": to_us(ep["finish"]),
                    "cat": "help_flow", "id": flow_id})
        out.append({"name": "helped", "ph": "f", "pid": 0,
                    "tid": target["tid"], "ts": to_us(target["ts"]),
                    "cat": "help_flow", "id": flow_id, "bp": "e"})
        flow_id += 1

    return {
        "kpqTraceSchema": SCHEMA,
        "displayTimeUnit": "ns",
        "otherData": {
            "tick_hz": tick_hz,
            "dropped_events": header.get("dropped", 0),
            "event_count": len(events),
            "reason": str(header.get("reason", "")),
        },
        "traceEvents": out,
    }, flow_id - 1


def summarize(header, events, metrics, flows):
    by_kind = collections.Counter(e["kind_name"] for e in events)
    by_tid = collections.Counter(e["tid"] for e in events)
    print(f"reason: {header.get('reason', '?')}  "
          f"tick_hz: {header.get('tick_hz', '?')}  "
          f"dropped: {header.get('dropped', 0)}", file=sys.stderr)
    print(f"events: {len(events)} across {len(by_tid)} threads, "
          f"{flows} helper->helped flow arrow(s)", file=sys.stderr)
    for kind, n in sorted(by_kind.items(), key=lambda kv: -kv[1]):
        print(f"  {kind:>16}: {n}", file=sys.stderr)
    for tid, n in sorted(by_tid.items()):
        print(f"  worker {tid}: {n} events", file=sys.stderr)
    if metrics:
        print(f"registry snapshot ({len(metrics)} metrics):", file=sys.stderr)
        for m in metrics:
            print(f"  {m['metric']} = {m['value']}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("dump", help="raw trace dump (JSONL)")
    parser.add_argument("-o", "--output", default=None,
                        help="timeline JSON path (default: stdout)")
    parser.add_argument("--summary", action="store_true",
                        help="print per-kind/per-thread counts to stderr")
    args = parser.parse_args()

    header, events, metrics = read_dump(args.dump)
    doc, flows = convert(header, events)
    text = json.dumps(doc, indent=1)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    if args.summary:
        summarize(header, events, metrics, flows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
