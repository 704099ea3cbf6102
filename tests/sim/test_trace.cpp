#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "util/json.hpp"

namespace mad::sim {
namespace {

TEST(Trace, DisabledRecordsNothing) {
  TraceSink trace;
  trace.span_here(0, 10, "cat");
  trace.instant_here("cat");
  EXPECT_TRUE(trace.events().empty());
}

TEST(Trace, EnabledRecordsIntervals) {
  TraceSink trace;
  trace.enable();
  trace.span_here(5, 15, "gw.recv", "paquet=0");
  trace.span_here(15, 30, "gw.send", "paquet=0");
  const std::vector<TraceEvent> events = trace.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceEventKind::Span);
  EXPECT_EQ(events[0].duration(), 10);
  EXPECT_EQ(events[0].detail, "paquet=0");
  EXPECT_EQ(events[1].duration(), 15);
  EXPECT_EQ(events[1].track, "main");  // recorded outside any actor
}

TEST(Trace, ByNameFilters) {
  TraceSink trace;
  trace.enable();
  trace.span_here(0, 1, "a");
  trace.span_here(1, 2, "b");
  trace.span_here(2, 3, "a");
  const std::vector<TraceEvent> a = trace.by_name("a");
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0].begin, 0);  // recording order
  EXPECT_EQ(a[1].begin, 2);
  EXPECT_EQ(trace.by_name("b").size(), 1u);
  EXPECT_EQ(trace.by_name("c").size(), 0u);
}

TEST(Trace, RecordAlsoEmitsSpanOnActorTrack) {
  Engine eng;
  TraceSink trace;
  eng.set_trace(&trace);
  trace.enable();
  eng.spawn("relay", [&] {
    Engine* e = Engine::current();
    const Time begin = e->now();
    e->sleep_for(microseconds(4));
    trace.span_here(begin, e->now(), "gw.recv", "paquet=0");
  });
  eng.run();
  const std::vector<TraceEvent> spans = trace.by_name("gw.recv");
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].kind, TraceEventKind::Span);
  EXPECT_EQ(spans[0].track, "relay");
  EXPECT_EQ(spans[0].duration(), microseconds(4));
}

TEST(Trace, ChromeJsonExportParsesAndIsOrdered) {
  TraceSink trace;
  trace.enable();
  // Deliberately out of timestamp order: the writer must sort.
  trace.span("gw", microseconds(10), microseconds(30), "gw.recv",
             "paquet=0");
  trace.instant("net:myri0", microseconds(5), "pkt.tx", "bytes=64");
  trace.span("gw", microseconds(35), microseconds(40), "gw.send");

  std::ostringstream os;
  trace.write_chrome_json(os);
  bool ok = false;
  std::string error;
  const util::JsonValue doc = util::parse_json(os.str(), &error, &ok);
  ASSERT_TRUE(ok) << error;
  const util::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  int metadata = 0;
  int spans = 0;
  int instants = 0;
  double last_ts = -1.0;
  for (const util::JsonValue& event : events->array) {
    const std::string ph = event.find("ph")->string;
    if (ph == "M") {
      EXPECT_EQ(event.find("name")->string, "thread_name");
      ++metadata;
      continue;
    }
    const double ts = event.find("ts")->number;
    EXPECT_GE(ts, last_ts) << "events not sorted by timestamp";
    last_ts = ts;
    if (ph == "X") {
      EXPECT_GT(event.find("dur")->number, 0.0);
      ++spans;
    } else if (ph == "i") {
      EXPECT_EQ(event.find("s")->string, "t");
      ++instants;
    }
  }
  EXPECT_EQ(metadata, 2);  // one tid per track: "gw" and "net:myri0"
  EXPECT_EQ(spans, 2);
  EXPECT_EQ(instants, 1);
}

TEST(Trace, ClearEmpties) {
  TraceSink trace;
  trace.enable();
  trace.span_here(0, 1, "x");
  trace.clear();
  EXPECT_TRUE(trace.events().empty());
  EXPECT_TRUE(trace.by_name("x").empty());
}

TEST(Trace, RingCapacityKeepsNewestAndCountsDrops) {
  TraceSink trace;
  trace.enable();
  trace.set_capacity(4);
  for (int i = 0; i < 10; ++i) {
    trace.instant("t", i, "e" + std::to_string(i));
  }
  EXPECT_EQ(trace.dropped(), 6u);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first recording order, newest 4 retained.
  EXPECT_EQ(events[0].name, "e6");
  EXPECT_EQ(events[3].name, "e9");
  EXPECT_EQ(trace.by_name("e2").size(), 0u);  // evicted
  EXPECT_EQ(trace.by_name("e8").size(), 1u);
}

TEST(Trace, ShrinkingCapacityEvictsOldestImmediately) {
  TraceSink trace;
  trace.enable();
  for (int i = 0; i < 6; ++i) {
    trace.instant("t", i, "e" + std::to_string(i));
  }
  trace.set_capacity(2);
  EXPECT_EQ(trace.dropped(), 4u);
  const auto events = trace.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "e4");
  EXPECT_EQ(events[1].name, "e5");
}

TEST(Trace, DroppedCounterSurfacesInChromeJson) {
  TraceSink trace;
  trace.enable();
  trace.set_capacity(2);
  for (int i = 0; i < 5; ++i) {
    trace.instant("t", i, "e");
  }
  std::ostringstream out;
  trace.write_chrome_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"trace.dropped\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":3"), std::string::npos);

  // A complete trace stays free of the truncation marker.
  TraceSink whole;
  whole.enable();
  whole.instant("t", 0, "e");
  std::ostringstream out2;
  whole.write_chrome_json(out2);
  EXPECT_EQ(out2.str().find("trace.dropped"), std::string::npos);
}

TEST(Trace, ClearResetsDroppedCounter) {
  TraceSink trace;
  trace.enable();
  trace.set_capacity(1);
  trace.instant("t", 0, "a");
  trace.instant("t", 1, "b");
  EXPECT_EQ(trace.dropped(), 1u);
  trace.clear();
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_TRUE(trace.events().empty());
}

}  // namespace
}  // namespace mad::sim
