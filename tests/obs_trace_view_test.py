"""Conversion rules of scripts/trace_view.py: raw trace dump -> timeline.

The raw JSONL form (obs::dump_trace_jsonl, the crash flight recorder) is
the only trace format the C++ side emits; trace_view.py is the one
converter to the Chrome/Perfetto timeline. Every case writes a raw dump to
a temporary file and goes through the script's own reader, so the JSONL
parsing and ts ordering are exercised too. Covers: publish/complete
slices, helper->helped flow arrows, an arrow needing a phase-matched victim
completion, instants for point kinds, thread metadata, and the dropped
count. Registered in ctest as ObsTraceView; run directly with
`python3 -m unittest discover -s tests -p 'obs_trace_view_test.py'`.
Stdlib only.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "scripts"))

import trace_view  # noqa: E402


def ev(ts, kind, tid, phase, aux=0):
    return {"ts": ts, "tid": tid, "kind_name": kind, "phase": phase,
            "aux": aux}


def convert(events, dropped=0, tick_hz=1e9):
    """Raw dump (1 tick == 1 ns by default) -> (timeline doc, flow count)."""
    header = {"kpq_trace_raw": 1, "tick_hz": tick_hz, "dropped": dropped,
              "reason": "test"}
    with tempfile.NamedTemporaryFile("w", suffix=".jsonl",
                                     delete=False) as f:
        f.write(json.dumps(header) + "\n")
        for e in events:
            f.write(json.dumps(e) + "\n")
        path = f.name
    try:
        return trace_view.convert(*trace_view.read_dump(path)[:2])
    finally:
        os.unlink(path)


def of_phase(doc, ph):
    return [e for e in doc["traceEvents"] if e["ph"] == ph]


class TraceViewConversion(unittest.TestCase):
    def test_empty_trace_still_emits_valid_document(self):
        doc, flows = convert([])
        self.assertEqual(doc["kpqTraceSchema"], "kpq-trace-1")
        self.assertEqual(doc["otherData"]["event_count"], 0)
        self.assertEqual(flows, 0)
        self.assertEqual(of_phase(doc, "X"), [])

    def test_publish_complete_pairs_become_complete_slices(self):
        doc, _ = convert([
            ev(1000, "enq_publish", 0, 7),
            ev(3000, "enq_complete", 0, 7),
            ev(2000, "deq_publish", 1, 9),
            ev(6000, "deq_complete", 1, 9, aux=1),
        ])
        slices = {e["name"]: e for e in of_phase(doc, "X")}
        self.assertEqual(set(slices), {"enqueue", "dequeue"})
        # 2000 ticks at 1 GHz == 2 us for the enqueue slice.
        self.assertAlmostEqual(slices["enqueue"]["dur"], 2.0)
        self.assertEqual(slices["enqueue"]["args"], {"phase": 7})
        self.assertIs(slices["dequeue"]["args"]["hit"], True)

    def test_orphan_publish_leaves_no_open_slice(self):
        doc, _ = convert([
            ev(1000, "enq_publish", 0, 7),
            ev(2000, "deq_publish", 1, 9),
            ev(3000, "deq_complete", 1, 9),
        ])
        self.assertEqual([e["name"] for e in of_phase(doc, "X")],
                         ["dequeue"])

    def test_help_episode_produces_slice_and_flow_arrow(self):
        # Thread 2 stalls mid-dequeue at phase 9; thread 1 helps it through.
        doc, flows = convert([
            ev(1000, "deq_publish", 2, 9),
            ev(1500, "help_start", 1, 9, aux=2),
            ev(2500, "help_finish", 1, 9, aux=2),
            ev(3000, "deq_complete", 2, 9, aux=1),
        ])
        helps = [e for e in of_phase(doc, "X") if e["name"] == "help"]
        self.assertEqual(len(helps), 1)
        self.assertEqual(helps[0]["args"], {"victim": 2, "victim_phase": 9})
        # One arrow: "s" at the helper, "f" (bp:"e") at the victim's
        # completion, sharing an id.
        self.assertEqual(flows, 1)
        (start,), (finish,) = of_phase(doc, "s"), of_phase(doc, "f")
        self.assertEqual((start["tid"], finish["tid"]), (1, 2))
        self.assertEqual(start["id"], finish["id"])
        self.assertEqual(finish["bp"], "e")
        self.assertEqual(start["cat"], "help_flow")

    def test_flow_arrow_needs_a_matching_victim_completion(self):
        # The victim never completes at the helped phase: a completion at a
        # DIFFERENT phase must not match, so an episode slice but no arrow.
        doc, flows = convert([
            ev(1500, "help_start", 1, 9, aux=2),
            ev(2500, "help_finish", 1, 9, aux=2),
            ev(3000, "deq_complete", 2, 8, aux=1),
        ])
        self.assertEqual([e["name"] for e in of_phase(doc, "X")], ["help"])
        self.assertEqual(flows, 0)
        self.assertEqual(of_phase(doc, "s") + of_phase(doc, "f"), [])

    def test_point_kinds_become_instants(self):
        doc, _ = convert([
            ev(100, "waiter_park", 3, 0, aux=42),
            ev(200, "waiter_resume", 3, 0, aux=42),
            ev(300, "tuner_decision", 0, 1, aux=4),
        ])
        instants = of_phase(doc, "i")
        self.assertEqual([e["name"] for e in instants],
                         ["waiter_park", "waiter_resume", "tuner_decision"])
        self.assertTrue(all(e["s"] == "t" for e in instants))
        self.assertEqual(instants[2]["args"], {"phase": 1, "aux": 4})

    def test_thread_metadata_names_every_seen_tid(self):
        doc, _ = convert([ev(100, "retire", 0, 0), ev(200, "retire", 5, 0)])
        meta = of_phase(doc, "M")
        self.assertEqual(meta[0]["name"], "process_name")
        threads = [e for e in meta if e["name"] == "thread_name"]
        self.assertEqual([e["args"]["name"] for e in threads],
                         ["worker 0", "worker 5"])

    def test_dropped_count_surfaces_in_other_data(self):
        doc, _ = convert([], dropped=17)
        self.assertEqual(doc["otherData"]["dropped_events"], 17)


if __name__ == "__main__":
    unittest.main()
