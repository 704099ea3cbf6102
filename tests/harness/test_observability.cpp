// End-to-end smoke of the observability subsystem — the Python-free ctest
// equivalent of "run a cluster-of-clusters scenario with tracing on, load
// the artifacts, check they make sense". A PaperWorld forwards one message
// with both the trace sink and the metrics registry enabled; the emitted
// Chrome trace JSON and metrics JSON are parsed back with util::parse_json
// and schema-checked in C++.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/json_report.hpp"
#include "harness/pingpong.hpp"
#include "harness/report.hpp"
#include "harness/scenario.hpp"
#include "net/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace mad::harness {
namespace {

struct TracedRun {
  sim::TraceSink trace;
  util::JsonValue trace_doc;
  util::JsonValue metrics_doc;
};

/// One forwarded 256 KB message m0 -> s0 with tracing + metrics on;
/// returns both emitted documents parsed back.
TracedRun run_traced_forward() {
  TracedRun run;
  run.trace.enable();
  fwd::VcOptions options;
  options.paquet_size = 32 * 1024;
  options.trace = &run.trace;
  PaperWorld world(options);
  world.fabric->metrics().enable();
  measure_vc_oneway(world.engine, *world.vc, world.myri_node(),
                    world.sci_node(), 256 * 1024, /*repeats=*/1,
                    /*warmup=*/0);

  std::ostringstream trace_os;
  run.trace.write_chrome_json(trace_os);
  std::ostringstream metrics_os;
  world.fabric->metrics().write_json(metrics_os);

  bool ok = false;
  std::string error;
  run.trace_doc = util::parse_json(trace_os.str(), &error, &ok);
  EXPECT_TRUE(ok) << "trace JSON: " << error;
  run.metrics_doc = util::parse_json(metrics_os.str(), &error, &ok);
  EXPECT_TRUE(ok) << "metrics JSON: " << error;
  return run;
}

TEST(Observability, ChromeTraceIsWellFormedAndMonotonic) {
  const TracedRun run = run_traced_forward();
  const util::JsonValue* events = run.trace_doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array.empty());

  int gw_recv = 0;
  int gw_switch = 0;
  int gw_send = 0;
  int packets = 0;
  double last_ts = -1.0;
  for (const util::JsonValue& event : events->array) {
    const util::JsonValue* ph = event.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string == "M") {
      continue;  // metadata has no timestamp ordering guarantee
    }
    const util::JsonValue* ts = event.find("ts");
    ASSERT_NE(ts, nullptr);
    EXPECT_GE(ts->number, last_ts) << "trace not sorted by timestamp";
    last_ts = ts->number;
    const std::string& name = event.find("name")->string;
    if (ph->string == "X") {
      EXPECT_GE(event.find("dur")->number, 0.0);
      if (name == "gw.recv") {
        ++gw_recv;
      } else if (name == "gw.switch") {
        ++gw_switch;
      } else if (name == "gw.send") {
        ++gw_send;
      }
    }
    if (name == "pkt.tx" || name == "pkt.rx") {
      ++packets;
    }
  }
  // 256 KB / 32 KB paquets = 8 fragments through the gateway pipeline.
  EXPECT_GE(gw_recv, 8) << "gateway recv spans missing";
  EXPECT_GE(gw_switch, 8) << "gateway switch spans missing";
  EXPECT_GE(gw_send, 8) << "gateway send spans missing";
  EXPECT_GT(packets, 0) << "wire-level packet events missing";
}

TEST(Observability, MetricsReportQuantilesAndGatewayPhases) {
  const TracedRun run = run_traced_forward();
  const util::JsonValue* counters = run.metrics_doc.find("counters");
  const util::JsonValue* histograms = run.metrics_doc.find("histograms");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(histograms, nullptr);
  ASSERT_FALSE(counters->array.empty());
  ASSERT_FALSE(histograms->array.empty());

  std::uint64_t net_packets = 0;
  for (const util::JsonValue& counter : counters->array) {
    if (counter.find("name")->string == "net.packets") {
      net_packets +=
          static_cast<std::uint64_t>(counter.find("value")->number);
    }
  }
  EXPECT_GT(net_packets, 0u);

  bool recv_phase = false;
  bool switch_phase = false;
  bool send_phase = false;
  for (const util::JsonValue& h : histograms->array) {
    const double p50 = h.find("p50_us")->number;
    const double p95 = h.find("p95_us")->number;
    const double p99 = h.find("p99_us")->number;
    const double max = h.find("max_us")->number;
    EXPECT_LE(p50, p95) << h.find("name")->string;
    EXPECT_LE(p95, p99) << h.find("name")->string;
    EXPECT_LE(p99, max) << h.find("name")->string;
    if (h.find("name")->string == "gw.phase_us") {
      const std::string& labels = h.find("labels")->string;
      EXPECT_GT(h.find("count")->number, 0.0);
      recv_phase |= labels.find("phase=recv") != std::string::npos;
      switch_phase |= labels.find("phase=switch") != std::string::npos;
      send_phase |= labels.find("phase=send") != std::string::npos;
    }
  }
  EXPECT_TRUE(recv_phase);
  EXPECT_TRUE(switch_phase);
  EXPECT_TRUE(send_phase);
}

TEST(Observability, JsonReportBundlesTablesMetricsAndNote) {
  ReportTable table("t", "size", {"MB/s"});
  table.add_row("64 KB", {42.5});
  sim::MetricsRegistry metrics;
  metrics.enable();
  metrics.add("net.packets", "network=x", 2);

  JsonReport report("smoke");
  report.set_note("hello \"world\"");
  report.add_table(table);
  report.add_metrics(metrics);
  std::ostringstream os;
  report.write(os);

  bool ok = false;
  std::string error;
  const util::JsonValue doc = util::parse_json(os.str(), &error, &ok);
  ASSERT_TRUE(ok) << error;
  EXPECT_EQ(doc.find("bench")->string, "smoke");
  EXPECT_EQ(doc.find("note")->string, "hello \"world\"");
  const util::JsonValue* tables = doc.find("tables");
  ASSERT_NE(tables, nullptr);
  ASSERT_EQ(tables->array.size(), 1u);
  const util::JsonValue& t = tables->array[0];
  EXPECT_EQ(t.find("title")->string, "t");
  EXPECT_EQ(t.find("row_header")->string, "size");
  ASSERT_EQ(t.find("series")->array.size(), 1u);
  EXPECT_EQ(t.find("series")->array[0].string, "MB/s");
  ASSERT_EQ(t.find("rows")->array.size(), 1u);
  EXPECT_EQ(t.find("rows")->array[0].find("label")->string, "64 KB");
  EXPECT_DOUBLE_EQ(t.find("rows")->array[0].find("values")->array[0].number,
                   42.5);
  ASSERT_NE(doc.find("metrics"), nullptr);
  EXPECT_FALSE(doc.find("metrics")->find("counters")->array.empty());
}

TEST(Observability, ReliabilityTotalsEqualPerNodeSums) {
  // The "total" row printed by print_reliability comes from
  // reliability_totals: check it really is the member-wise sum after a
  // lossy reliable run that exercised several counters.
  fwd::VcOptions options;
  options.paquet_size = 16 * 1024;
  options.reliable.enabled = true;
  PaperWorld world(options);
  net::FaultPlan plan;
  plan.seed = 11;
  plan.drop_rate = 0.02;
  plan.duplicate_rate = 0.02;
  world.sci->set_fault_plan(plan);
  measure_vc_oneway(world.engine, *world.vc, world.myri_node(),
                    world.sci_node(), 1 << 20, /*repeats=*/1, /*warmup=*/0);

  fwd::ReliabilityStats expected;
  for (NodeRank rank = 0;
       static_cast<std::size_t>(rank) < world.domain->node_count(); ++rank) {
    if (!world.vc->is_member(rank)) {
      continue;
    }
    const fwd::ReliabilityStats& r =
        world.vc->gateway_stats(rank).reliability;
    expected.paquets_acked += r.paquets_acked;
    expected.retransmits += r.retransmits;
    expected.timeouts += r.timeouts;
    expected.dup_drops += r.dup_drops;
    expected.corrupt_drops += r.corrupt_drops;
    expected.failovers += r.failovers;
    expected.peers_declared_dead += r.peers_declared_dead;
  }
  const fwd::ReliabilityStats total = reliability_totals(*world.vc);
  EXPECT_EQ(total.paquets_acked, expected.paquets_acked);
  EXPECT_EQ(total.retransmits, expected.retransmits);
  EXPECT_EQ(total.timeouts, expected.timeouts);
  EXPECT_EQ(total.dup_drops, expected.dup_drops);
  EXPECT_EQ(total.corrupt_drops, expected.corrupt_drops);
  EXPECT_EQ(total.failovers, expected.failovers);
  EXPECT_EQ(total.peers_declared_dead, expected.peers_declared_dead);
  // The run must actually have exercised the counters, or the sum check
  // proves nothing.
  EXPECT_GT(total.paquets_acked, 0u);
  EXPECT_GT(total.retransmits, 0u);

  // And the JSON report's reliability block mirrors the same totals.
  JsonReport report("rel");
  report.add_reliability(*world.vc);
  std::ostringstream os;
  report.write(os);
  bool ok = false;
  std::string error;
  const util::JsonValue doc = util::parse_json(os.str(), &error, &ok);
  ASSERT_TRUE(ok) << error;
  const util::JsonValue* reliability = doc.find("reliability");
  ASSERT_NE(reliability, nullptr);
  ASSERT_FALSE(reliability->find("nodes")->array.empty());
  EXPECT_DOUBLE_EQ(
      reliability->find("total")->find("retransmits")->number,
      static_cast<double>(total.retransmits));
  // Every counter is in the block, under its field's name.
  for (const ReliabilityField& field : kReliabilityFields) {
    const util::JsonValue* value =
        reliability->find("total")->find(field.key);
    ASSERT_NE(value, nullptr) << field.key;
    EXPECT_DOUBLE_EQ(value->number, static_cast<double>(total.*field.member))
        << field.key;
  }
}

TEST(Reliability, RegistryCountersMatchStats) {
  // Every ReliabilityStats field has a rel.* registry counter that must
  // count the same events. A lossy adaptive-window run through two
  // gateways, one of which dies mid-message, moves most of them at once.
  fwd::VcOptions options;
  options.paquet_size = 16 * 1024;
  options.reliable.enabled = true;
  options.reliable.window = 16;
  options.reliable.adaptive = true;
  DualGatewayWorld world(options);
  world.fabric->metrics().enable();
  net::FaultPlan myri_plan;
  myri_plan.seed = 21;
  myri_plan.drop_rate = 0.02;
  myri_plan.duplicate_rate = 0.02;
  myri_plan.corrupt_rate = 0.01;
  myri_plan.crashes.push_back({/*nic_index=*/1, sim::milliseconds(6)});
  world.myri->set_fault_plan(myri_plan);
  net::FaultPlan sci_plan = myri_plan;
  sci_plan.seed = 22;
  sci_plan.crashes = {{/*nic_index=*/0, sim::milliseconds(6)}};
  world.sci->set_fault_plan(sci_plan);
  util::Rng rng(23);
  const auto payload = rng.bytes(2 << 20);
  std::vector<std::byte> out(payload.size());
  world.engine.spawn("s", [&] {
    auto msg = world.ep(world.src_node()).begin_packing(world.dst_node());
    msg.pack(payload);
    msg.end_packing();
  });
  world.engine.spawn("r", [&] {
    auto msg = world.ep(world.dst_node()).begin_unpacking();
    msg.unpack(out);
    msg.end_unpacking();
  });
  world.engine.run();
  ASSERT_EQ(out, payload);

  const sim::MetricsRegistry& metrics = world.fabric->metrics();
  const auto counter = [&](const std::string& name) {
    std::uint64_t sum = 0;
    for (const auto& [key, value] : metrics.counters()) {
      if (key.first == name) {
        sum += value.value;
      }
    }
    return sum;
  };
  using Field = std::uint64_t fwd::ReliabilityStats::*;
  const std::pair<const char*, Field> fields[] = {
      {"rel.paquets_acked", &fwd::ReliabilityStats::paquets_acked},
      {"rel.retransmits", &fwd::ReliabilityStats::retransmits},
      {"rel.fast_retransmits", &fwd::ReliabilityStats::fast_retransmits},
      {"rel.timeouts", &fwd::ReliabilityStats::timeouts},
      {"rel.congestion_marks", &fwd::ReliabilityStats::congestion_marks},
      {"rel.window_decreases", &fwd::ReliabilityStats::window_decreases},
      {"rel.flow_rejects", &fwd::ReliabilityStats::flow_rejects},
      {"rel.dup_drops", &fwd::ReliabilityStats::dup_drops},
      {"rel.corrupt_drops", &fwd::ReliabilityStats::corrupt_drops},
      {"rel.stale_drops", &fwd::ReliabilityStats::stale_drops},
      {"rel.failovers", &fwd::ReliabilityStats::failovers},
      {"rel.dead_peers", &fwd::ReliabilityStats::peers_declared_dead},
  };
  const fwd::ReliabilityStats total = reliability_totals(*world.vc);
  for (const auto& [name, field] : fields) {
    EXPECT_EQ(counter(name), total.*field) << name;
  }
  // The run must have moved the counters, or equality proves nothing.
  EXPECT_GT(total.paquets_acked, 0u);
  EXPECT_GT(total.retransmits, 0u);
  EXPECT_GT(total.fast_retransmits, 0u);
  EXPECT_GT(total.timeouts, 0u);
  EXPECT_GT(total.window_decreases, 0u);
  EXPECT_GT(total.dup_drops, 0u);
  EXPECT_GT(total.corrupt_drops, 0u);
  EXPECT_GT(total.failovers, 0u);
  EXPECT_GT(total.peers_declared_dead, 0u);
}

}  // namespace
}  // namespace mad::harness
