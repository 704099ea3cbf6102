// The trace's per-packet record: every NIC send is one `pkt.tx` instant on
// its network's track, and every fault verdict one `pkt.fault` beside it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "sim/trace.hpp"

namespace mad::net {
namespace {

std::vector<sim::TraceEvent> on_track(const sim::TraceSink& trace,
                                      const std::string& name,
                                      const std::string& track) {
  std::vector<sim::TraceEvent> out;
  for (const sim::TraceEvent& event : trace.by_name(name)) {
    if (event.track == track) {
      out.push_back(event);
    }
  }
  return out;
}

std::string wire(const Nic& src, const Nic& dst, int bytes) {
  return "nic" + std::to_string(src.index()) + "->nic" +
         std::to_string(dst.index()) + " bytes=" + std::to_string(bytes);
}

TEST(Trace, EveryNicSendIsOnePacketInstant) {
  sim::Engine engine;
  Fabric fabric(engine);
  sim::TraceSink trace;
  trace.enable();
  fabric.set_trace(&trace);
  Network& myri = fabric.add_network("myri", bip_myrinet());
  Network& sci = fabric.add_network("sci", sisci_sci());
  Host& a = fabric.add_host("a");
  Nic& a0 = a.add_nic(myri);
  Nic& a1 = a.add_nic(sci);
  Host& b = fabric.add_host("b");
  Nic& b0 = b.add_nic(myri);
  Nic& b1 = b.add_nic(sci);
  // Every faultable packet on sci drops; control-sized ones are exempt.
  FaultPlan plan;
  plan.drop_rate = 1.0;
  sci.set_fault_plan(plan);

  engine.spawn("s", [&] {
    std::vector<std::byte> small(100, std::byte{1});
    for (int i = 0; i < 3; ++i) {
      a0.send(b0.index(), 7, util::ByteSpan(small));
    }
    a1.send(b1.index(), 7, util::ByteSpan(small));
    std::vector<std::byte> large(512, std::byte{2});
    a1.send(b1.index(), 7, util::ByteSpan(large));
  });
  engine.spawn("r", [&] {
    std::vector<std::byte> out(100);
    for (int i = 0; i < 3; ++i) {
      b0.recv_into(7, util::MutByteSpan(out));
    }
    b1.recv_into(7, util::MutByteSpan(out));
  });
  engine.run();

  const auto myri_tx = on_track(trace, "pkt.tx", "net:myri");
  ASSERT_EQ(myri_tx.size(), 3u);
  for (std::size_t i = 0; i < myri_tx.size(); ++i) {
    EXPECT_EQ(myri_tx[i].kind, sim::TraceEventKind::Instant);
    EXPECT_EQ(myri_tx[i].detail, wire(a0, b0, 100));
    if (i > 0) {
      EXPECT_LE(myri_tx[i - 1].begin, myri_tx[i].begin);
    }
  }
  EXPECT_TRUE(on_track(trace, "pkt.fault", "net:myri").empty());

  // The second network's packets land on its own track, the dropped one
  // included, and only the drop carries a fault instant.
  const auto sci_tx = on_track(trace, "pkt.tx", "net:sci");
  ASSERT_EQ(sci_tx.size(), 2u);
  EXPECT_EQ(sci_tx[0].detail, wire(a1, b1, 100));
  EXPECT_EQ(sci_tx[1].detail, wire(a1, b1, 512));
  EXPECT_EQ(trace.by_name("pkt.tx").size(), 5u);

  const auto faults = trace.by_name("pkt.fault");
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].track, "net:sci");
  EXPECT_EQ(faults[0].begin, sci_tx[1].begin);
  EXPECT_EQ(faults[0].detail, wire(a1, b1, 512) + " verdict=DROP");
  EXPECT_EQ(sci.fault_injector()->stats().dropped, 1u);
}

}  // namespace
}  // namespace mad::net
