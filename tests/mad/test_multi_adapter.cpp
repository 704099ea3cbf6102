// Multi-rail: several adapters per network per node ("Madeleine is able
// to ... manage multiple network adapters (NIC) for each of these
// protocols", paper §2.1.2), plus the channel counters.
#include <gtest/gtest.h>

#include "mad/madeleine.hpp"
#include "sim/metrics.hpp"
#include "util/rng.hpp"

namespace mad {
namespace {

struct DualRailRig {
  DualRailRig() : fabric(engine), network(fabric.add_network("myri", net::bip_myrinet())) {
    a = &fabric.add_host("a");
    a->add_nic(network);
    a->add_nic(network);  // second adapter
    b = &fabric.add_host("b");
    b->add_nic(network);
    b->add_nic(network);
    domain.emplace(fabric);
    domain->add_node(*a);
    domain->add_node(*b);
  }
  sim::Engine engine;
  net::Fabric fabric;
  net::Network& network;
  net::Host* a = nullptr;
  net::Host* b = nullptr;
  std::optional<Domain> domain;
};

TEST(MultiAdapter, HostReportsAdapters) {
  DualRailRig rig;
  EXPECT_EQ(rig.a->adapters_on(rig.network), 2);
  EXPECT_NE(rig.a->nic_on(rig.network, 0), nullptr);
  EXPECT_NE(rig.a->nic_on(rig.network, 1), nullptr);
  EXPECT_NE(rig.a->nic_on(rig.network, 0), rig.a->nic_on(rig.network, 1));
  EXPECT_EQ(rig.a->nic_on(rig.network, 2), nullptr);
}

TEST(MultiAdapter, ChannelsOnDistinctAdaptersUseDistinctNics) {
  DualRailRig rig;
  const ChannelId rail0 = rig.domain->create_channel("rail0", rig.network, 0);
  const ChannelId rail1 = rig.domain->create_channel("rail1", rig.network, 1);
  Channel& c0 = rig.domain->endpoint(rail0, 0);
  Channel& c1 = rig.domain->endpoint(rail1, 0);
  EXPECT_EQ(c0.adapter(), 0);
  EXPECT_EQ(c1.adapter(), 1);
  EXPECT_NE(&c0.tm().nic(), &c1.tm().nic());
}

TEST(MultiAdapter, ChannelOnMissingAdapterRejected) {
  DualRailRig rig;
  EXPECT_THROW(rig.domain->create_channel("rail9", rig.network, 9),
               util::PanicError);
}

TEST(MultiAdapter, DataFlowsOnBothRails) {
  DualRailRig rig;
  const ChannelId rail0 = rig.domain->create_channel("rail0", rig.network, 0);
  const ChannelId rail1 = rig.domain->create_channel("rail1", rig.network, 1);
  util::Rng rng(1);
  const auto p0 = rng.bytes(10'000);
  const auto p1 = rng.bytes(20'000);
  std::vector<std::byte> r0(10'000), r1(20'000);
  rig.engine.spawn("sender", [&] {
    auto m0 = rig.domain->endpoint(rail0, 0).begin_packing(1);
    m0.pack(p0);
    m0.end_packing();
    auto m1 = rig.domain->endpoint(rail1, 0).begin_packing(1);
    m1.pack(p1);
    m1.end_packing();
  });
  rig.engine.spawn("receiver", [&] {
    auto m1 = rig.domain->endpoint(rail1, 1).begin_unpacking();
    m1.unpack(r1);
    m1.end_unpacking();
    auto m0 = rig.domain->endpoint(rail0, 1).begin_unpacking();
    m0.unpack(r0);
    m0.end_unpacking();
  });
  rig.engine.run();
  EXPECT_EQ(r0, p0);
  EXPECT_EQ(r1, p1);
}

TEST(MultiAdapter, TwoRailsBeatOneOnAggregateBandwidth) {
  // Two concurrent streams on separate adapters share only the PCI bus
  // (115 MB/s), not a single NIC flow (66 MB/s).
  const std::size_t bytes = 4 * 1024 * 1024;
  auto aggregate_time = [bytes](bool dual_rail) {
    DualRailRig rig;
    const ChannelId rail0 =
        rig.domain->create_channel("rail0", rig.network, 0);
    const ChannelId rail1 =
        rig.domain->create_channel("rail1", rig.network, dual_rail ? 1 : 0);
    int done = 0;
    sim::Time finish = 0;
    for (const ChannelId rail : {rail0, rail1}) {
      rig.engine.spawn("s" + std::to_string(rail), [&rig, rail, bytes] {
        std::vector<std::byte> data(64 * 1024, std::byte{1});
        auto msg = rig.domain->endpoint(rail, 0).begin_packing(1);
        for (std::size_t sent = 0; sent < bytes; sent += data.size()) {
          msg.pack(data, SendMode::Cheaper, RecvMode::Express);
        }
        msg.end_packing();
      });
      rig.engine.spawn("r" + std::to_string(rail),
                       [&rig, rail, bytes, &done, &finish] {
                         std::vector<std::byte> out(64 * 1024);
                         auto msg =
                             rig.domain->endpoint(rail, 1).begin_unpacking();
                         for (std::size_t got = 0; got < bytes;
                              got += out.size()) {
                           msg.unpack(out, SendMode::Cheaper,
                                      RecvMode::Express);
                         }
                         msg.end_unpacking();
                         ++done;
                         finish = rig.engine.now();
                       });
    }
    rig.engine.run();
    EXPECT_EQ(done, 2);
    return finish;
  };
  const sim::Time dual = aggregate_time(true);
  const sim::Time single = aggregate_time(false);
  EXPECT_LT(sim::to_seconds(dual), 0.75 * sim::to_seconds(single));
}

TEST(ChannelMetrics, CountsMessagesAndBytes) {
  DualRailRig rig;
  rig.fabric.metrics().enable();
  const ChannelId ch = rig.domain->create_channel("main", rig.network, 0);
  util::Rng rng(2);
  const auto payload = rng.bytes(5'000);
  rig.engine.spawn("s", [&] {
    for (int i = 0; i < 3; ++i) {
      auto msg = rig.domain->endpoint(ch, 0).begin_packing(1);
      msg.pack(payload);
      msg.end_packing();
    }
  });
  rig.engine.spawn("r", [&] {
    std::vector<std::byte> out(5'000);
    for (int i = 0; i < 3; ++i) {
      auto msg = rig.domain->endpoint(ch, 1).begin_unpacking();
      msg.unpack(out);
      msg.end_unpacking();
    }
  });
  rig.engine.run();
  // Both endpoints share the channel name, so each direction is one
  // counter pair: the sender's messages under tx, the receiver's under rx.
  sim::MetricsRegistry& metrics = rig.fabric.metrics();
  EXPECT_EQ(metrics.counter("chan.messages", "channel=main,direction=tx").value,
            3u);
  EXPECT_EQ(metrics.counter("chan.bytes", "channel=main,direction=tx").value,
            15'000u);
  EXPECT_EQ(metrics.counter("chan.messages", "channel=main,direction=rx").value,
            3u);
  EXPECT_EQ(metrics.counter("chan.bytes", "channel=main,direction=rx").value,
            15'000u);
}

TEST(ChannelTimedWait, TimesOutWhenIdle) {
  DualRailRig rig;
  const ChannelId ch = rig.domain->create_channel("main", rig.network, 0);
  rig.engine.spawn("r", [&] {
    Channel& channel = rig.domain->endpoint(ch, 1);
    EXPECT_FALSE(channel.has_incoming());
    EXPECT_FALSE(channel.wait_incoming_until(sim::microseconds(500)));
    EXPECT_EQ(rig.engine.now(), sim::microseconds(500));
  });
  rig.engine.run();
}

TEST(ChannelTimedWait, SeesMessageBeforeDeadline) {
  DualRailRig rig;
  const ChannelId ch = rig.domain->create_channel("main", rig.network, 0);
  rig.engine.spawn("s", [&] {
    rig.engine.sleep_for(sim::microseconds(100));
    const std::byte b{7};
    auto msg = rig.domain->endpoint(ch, 0).begin_packing(1);
    msg.pack(util::ByteSpan(&b, 1), SendMode::Safer, RecvMode::Express);
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    Channel& channel = rig.domain->endpoint(ch, 1);
    EXPECT_TRUE(channel.wait_incoming_until(sim::milliseconds(10)));
    EXPECT_TRUE(channel.has_incoming());
    std::byte b{0};
    auto msg = channel.begin_unpacking();
    msg.unpack(util::MutByteSpan(&b, 1), SendMode::Safer, RecvMode::Express);
    msg.end_unpacking();
    EXPECT_EQ(static_cast<int>(b), 7);
  });
  rig.engine.run();
}

}  // namespace
}  // namespace mad
