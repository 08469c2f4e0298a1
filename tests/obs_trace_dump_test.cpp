// Raw trace dump form (obs/timeline.hpp): the JSONL the flight recorder and
// scripts/trace_view.py share. Checks the header and per-event lines for
// synthetic events and for a real drained domain. The conversion of this
// form into a timeline is tested on the script (tests/obs_trace_view_test.py).
#include "obs/timeline.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace_ring.hpp"

namespace kpq::obs {
namespace {

trace_event ev(std::uint64_t ts, trace_kind k, std::uint32_t tid,
               std::int64_t phase, std::uint32_t aux = 0) {
  trace_event e;
  e.ts = ts;
  e.kind = k;
  e.tid = tid;
  e.phase = phase;
  e.aux = aux;
  return e;
}

std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(ObsTraceDump, RawDumpFormRoundTrips) {
  std::vector<trace_event> events;
  events.push_back(ev(123, trace_kind::enq_publish, 0, 1));
  events.push_back(ev(456, trace_kind::enq_complete, 0, 1));

  const std::string raw = dump_trace_jsonl(events, 1e9, 3, "test");
  // Header line + one line per event.
  EXPECT_EQ(count_of(raw, "\n"), 3u);
  EXPECT_NE(raw.find("\"kpq_trace_raw\":1"), std::string::npos);
  EXPECT_NE(raw.find("\"dropped\":3"), std::string::npos);
  EXPECT_NE(raw.find("\"reason\":\"test\""), std::string::npos);
  EXPECT_NE(raw.find("\"kind_name\":\"enq_publish\""), std::string::npos);
  EXPECT_NE(raw.find("\"ts\":456"), std::string::npos);
}

TEST(ObsTraceDump, RealDrainedTraceDumps) {
  // Dump a drain from a real domain (owner-recorded events) rather than
  // synthetic structs, so field conventions stay honest.
  trace_domain domain(2, 1024);
  domain.record(0, trace_kind::enq_publish, 1, 0);
  domain.record(0, trace_kind::enq_complete, 1, 0);
  domain.record(1, trace_kind::deq_publish, 2, 0);
  domain.record(1, trace_kind::deq_complete, 2, 1);

  std::uint64_t dropped = 0;
  const std::vector<trace_event> events = domain.drain_all(&dropped);
  ASSERT_EQ(events.size(), 4u);

  const std::string raw = dump_trace_jsonl(events, 1e9, dropped);
  EXPECT_EQ(count_of(raw, "\n"), 5u);
  EXPECT_NE(raw.find("\"reason\":\"drain\""), std::string::npos);
  EXPECT_EQ(count_of(raw, "\"kind_name\":\"deq_complete\""), 1u);
  EXPECT_NE(raw.find("\"tid\":1,\"kind\":3,\"kind_name\":\"deq_complete\","
                     "\"phase\":2,\"aux\":1"),
            std::string::npos);
}

}  // namespace
}  // namespace kpq::obs
