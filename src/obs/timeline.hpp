// Raw trace dump: drained trace rings -> line-oriented JSONL.
//
// This is the one trace format the C++ side writes. The flight recorder
// writes it with async-signal-safe primitives (flight_recorder.cpp), and
// scripts/trace_view.py converts it offline into a Chrome/Perfetto
// trace-event timeline: publish -> complete pairs and help episodes become
// "X" slices, helper -> helped causality becomes "s"/"f" flow arrows, and
// point-like kinds become instants (schema "kpq-trace-1", validated by
// scripts/validate_trace_json.py; conversion rules tested by
// tests/obs_trace_view_test.py).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/trace_ring.hpp"

namespace kpq::obs {

// ------------------------------------------------------------ raw dump form
// Line-oriented format shared by the flight recorder and
// scripts/trace_view.py:
//
//   {"kpq_trace_raw":1,"tick_hz":<hz>,"dropped":<n>,"reason":"<why>"}
//   {"ts":<ticks>,"tid":<t>,"kind":<k>,"kind_name":"<name>","phase":<p>,"aux":<a>}
//   ...
//   {"metric":"<name>","value":<v>}          (registry lines, optional)

inline std::string dump_trace_jsonl(const std::vector<trace_event>& events,
                                    double tick_hz, std::uint64_t dropped,
                                    const std::string& reason = "drain") {
  json_writer hdr;
  hdr.begin_object();
  hdr.key("kpq_trace_raw").value(1);
  hdr.key("tick_hz").value(tick_hz);
  hdr.key("dropped").value(static_cast<std::uint64_t>(dropped));
  hdr.key("reason").value(reason);
  hdr.end_object();
  std::string out = std::move(hdr).take();
  out += '\n';
  for (const trace_event& e : events) {
    json_writer w;
    w.begin_object();
    w.key("ts").value(static_cast<std::uint64_t>(e.ts));
    w.key("tid").value(static_cast<std::uint64_t>(e.tid));
    w.key("kind").value(static_cast<std::uint64_t>(e.kind));
    w.key("kind_name").value(trace_kind_name(e.kind));
    w.key("phase").value(static_cast<std::int64_t>(e.phase));
    w.key("aux").value(static_cast<std::uint64_t>(e.aux));
    w.end_object();
    out += std::move(w).take();
    out += '\n';
  }
  return out;
}

}  // namespace kpq::obs
