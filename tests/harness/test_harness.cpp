#include <gtest/gtest.h>

#include "harness/pingpong.hpp"
#include "harness/report.hpp"
#include "harness/scenario.hpp"

namespace mad::harness {
namespace {

TEST(Scenario, PaperWorldForwardsAcrossClusters) {
  PaperWorld world;
  const auto result = measure_vc_oneway(world.engine, *world.vc,
                                        world.myri_node(), world.sci_node(),
                                        64 * 1024);
  EXPECT_GT(result.mbps, 10.0);
  EXPECT_GT(result.one_way, 0);
}

TEST(Scenario, ConfigWorldFromText) {
  const auto config = topo::parse_topo_config(R"(
network myri0 BIP/Myrinet
network sci0 SISCI/SCI
node m0 myri0
node gw myri0 sci0
node s0 sci0
)");
  ConfigWorld world(config);
  EXPECT_EQ(world.rank_of("m0"), 0);
  EXPECT_EQ(world.rank_of("gw"), 1);
  EXPECT_EQ(world.rank_of("s0"), 2);
  EXPECT_TRUE(world.vc->is_gateway(1));
  const auto result =
      measure_vc_oneway(world.engine, *world.vc, 0, 2, 32 * 1024);
  EXPECT_GT(result.mbps, 5.0);
}

TEST(Pingpong, NativeCrossoverNearSixteenKb) {
  // §3.2.2: SCI wins small messages, Myrinet wins large ones, roughly
  // equal at 16 KB.
  auto native = [](const char* protocol, std::size_t bytes) {
    sim::Engine engine;
    net::Fabric fabric(engine);
    net::Network& network =
        fabric.add_network("n", net::nic_model_by_name(protocol));
    net::Host& a = fabric.add_host("a");
    a.add_nic(network);
    net::Host& b = fabric.add_host("b");
    b.add_nic(network);
    Domain domain(fabric);
    domain.add_node(a);
    domain.add_node(b);
    const ChannelId ch = domain.create_channel("main", network);
    return measure_native_oneway(engine, domain.endpoint(ch, 0),
                                 domain.endpoint(ch, 1), 0, 1, bytes);
  };
  // Small: SCI clearly faster.
  EXPECT_LT(native("SISCI/SCI", 64).one_way,
            native("BIP/Myrinet", 64).one_way);
  // Large: Myrinet at least as fast.
  EXPECT_LE(native("BIP/Myrinet", 1024 * 1024).one_way,
            native("SISCI/SCI", 1024 * 1024).one_way);
  // 16 KB: within 15% of each other, both near the 270 µs anchor.
  const auto sci = native("SISCI/SCI", 16 * 1024);
  const auto myri = native("BIP/Myrinet", 16 * 1024);
  const double ratio = sim::to_seconds(sci.one_way) /
                       sim::to_seconds(myri.one_way);
  EXPECT_GT(ratio, 0.85);
  EXPECT_LT(ratio, 1.18);
}

TEST(Pingpong, RepeatsAverageConsistently) {
  PaperWorld w1;
  const auto once = measure_vc_oneway(w1.engine, *w1.vc, w1.myri_node(),
                                      w1.sci_node(), 32 * 1024,
                                      /*repeats=*/1, /*warmup=*/1);
  PaperWorld w2;
  const auto many = measure_vc_oneway(w2.engine, *w2.vc, w2.myri_node(),
                                      w2.sci_node(), 32 * 1024,
                                      /*repeats=*/5, /*warmup=*/1);
  // Serialized pings: the average must match a single steady ping closely.
  EXPECT_NEAR(sim::to_seconds(once.one_way), sim::to_seconds(many.one_way),
              sim::to_seconds(once.one_way) * 0.05);
}

TEST(Report, TablePrintsAllRowsAndCsv) {
  ReportTable table("demo", "msg", {"a", "b"});
  table.add_row("1 KB", {1.5, 2.5});
  table.add_row("2 KB", {3.0, 4.0});
  testing::internal::CaptureStdout();
  table.print();
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("1 KB"), std::string::npos);
}

TEST(Report, MismatchedRowRejected) {
  ReportTable table("demo", "msg", {"a", "b"});
  EXPECT_THROW(table.add_row("x", {1.0}), util::PanicError);
}

TEST(Report, SizeLabels) {
  EXPECT_EQ(size_label(8 * 1024), "8.0 KB");
  EXPECT_EQ(size_label(1024 * 1024), "1.00 MB");
}

}  // namespace
}  // namespace mad::harness
