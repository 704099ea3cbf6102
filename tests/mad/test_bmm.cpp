// Buffer-management behaviour: copy accounting and packet shaping.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "support/mad_rig.hpp"
#include "util/rng.hpp"

namespace mad {
namespace {

using testsupport::SingleNetRig;

class BmmCopyTest : public ::testing::Test {
 protected:
  void SetUp() override { copy_stats().reset(); }
};

void round_trip(SingleNetRig& rig, std::size_t bytes, SendMode smode,
                RecvMode rmode) {
  util::Rng rng(11);
  const auto payload = rng.bytes(bytes);
  std::vector<std::byte> out(bytes);
  rig.engine.spawn("s", [&, smode, rmode] {
    auto msg = rig.channel(0).begin_packing(1);
    msg.pack(payload, smode, rmode);
    msg.end_packing();
  });
  rig.engine.spawn("r", [&, smode, rmode] {
    auto msg = rig.channel(1).begin_unpacking();
    msg.unpack(out, smode, rmode);
    msg.end_unpacking();
  });
  rig.engine.run();
  ASSERT_EQ(out, payload);
}

TEST_F(BmmCopyTest, DynamicCheaperIsZeroCopy) {
  SingleNetRig rig(net::bip_myrinet(), 2);
  round_trip(rig, 100'000, SendMode::Cheaper, RecvMode::Cheaper);
  EXPECT_EQ(copy_stats().copies, 0u);
  EXPECT_EQ(copy_stats().bytes, 0u);
}

TEST_F(BmmCopyTest, DynamicSaferCopiesOnceOnSender) {
  SingleNetRig rig(net::bip_myrinet(), 2);
  round_trip(rig, 100'000, SendMode::Safer, RecvMode::Cheaper);
  EXPECT_EQ(copy_stats().copies, 1u);
  EXPECT_EQ(copy_stats().bytes, 100'000u);
}

TEST_F(BmmCopyTest, StaticProtocolCopiesOncePerSide) {
  SingleNetRig rig(net::sbp(), 2);
  const std::size_t bytes = 10'000;  // fits one static buffer
  round_trip(rig, bytes, SendMode::Cheaper, RecvMode::Cheaper);
  EXPECT_EQ(copy_stats().copies, 2u);  // copy-in on tx + copy-out on rx
  EXPECT_EQ(copy_stats().bytes, 2 * bytes);
}

TEST_F(BmmCopyTest, SciEagerCheaperIsZeroCopy) {
  SingleNetRig rig(net::sisci_sci(), 2);
  round_trip(rig, 50'000, SendMode::Cheaper, RecvMode::Cheaper);
  EXPECT_EQ(copy_stats().copies, 0u);
}

TEST(BmmShape, AggregatingGroupsSmallBlocksIntoOnePacket) {
  // BIP's aggregating BMM: many small Cheaper blocks = one wire packet.
  SingleNetRig rig(net::bip_myrinet(), 2);
  util::Rng rng(13);
  std::vector<std::vector<std::byte>> blocks;
  for (int i = 0; i < 10; ++i) {
    blocks.push_back(rng.bytes(64));
  }
  rig.engine.spawn("s", [&] {
    auto msg = rig.channel(0).begin_packing(1);
    for (auto& b : blocks) {
      msg.pack(b);
    }
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.channel(1).begin_unpacking();
    std::vector<std::vector<std::byte>> out(10, std::vector<std::byte>(64));
    for (auto& b : out) {
      msg.unpack(b);
    }
    msg.end_unpacking();
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(out[static_cast<std::size_t>(i)],
                blocks[static_cast<std::size_t>(i)]);
    }
  });
  rig.engine.run();
  const net::Nic& nic = *rig.hosts[0]->nics().front().get();
  EXPECT_EQ(nic.packets_sent(), 1u);
}

TEST(BmmShape, EagerSendsOnePacketTrainPerBlock) {
  // SISCI's eager BMM: every block leaves immediately.
  SingleNetRig rig(net::sisci_sci(), 2);
  util::Rng rng(14);
  std::vector<std::vector<std::byte>> blocks;
  for (int i = 0; i < 5; ++i) {
    blocks.push_back(rng.bytes(64));
  }
  rig.engine.spawn("s", [&] {
    auto msg = rig.channel(0).begin_packing(1);
    for (auto& b : blocks) {
      msg.pack(b);
    }
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.channel(1).begin_unpacking();
    std::vector<std::byte> out(64);
    for (int i = 0; i < 5; ++i) {
      msg.unpack(out);
    }
    msg.end_unpacking();
  });
  rig.engine.run();
  const net::Nic& nic = *rig.hosts[0]->nics().front().get();
  EXPECT_EQ(nic.packets_sent(), 5u);
}

TEST(BmmShape, ExpressForcesFlushMidMessage) {
  SingleNetRig rig(net::bip_myrinet(), 2);
  util::Rng rng(15);
  const auto b1 = rng.bytes(64);
  const auto b2 = rng.bytes(64);
  rig.engine.spawn("s", [&] {
    auto msg = rig.channel(0).begin_packing(1);
    msg.pack(b1, SendMode::Cheaper, RecvMode::Express);  // flush #1
    msg.pack(b2, SendMode::Cheaper, RecvMode::Cheaper);  // flush #2 at end
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.channel(1).begin_unpacking();
    std::vector<std::byte> out(64);
    msg.unpack(out, SendMode::Cheaper, RecvMode::Express);
    msg.unpack(out, SendMode::Cheaper, RecvMode::Cheaper);
    msg.end_unpacking();
  });
  rig.engine.run();
  const net::Nic& nic = *rig.hosts[0]->nics().front().get();
  EXPECT_EQ(nic.packets_sent(), 2u);
}

TEST(BmmShape, StaticBuffersBoundPacketSize) {
  // SBP's static buffers are 32 KB: a 100 KB block takes 4 packets.
  SingleNetRig rig(net::sbp(), 2);
  util::Rng rng(16);
  const auto payload = rng.bytes(100 * 1024);
  std::vector<std::byte> out(100 * 1024);
  rig.engine.spawn("s", [&] {
    auto msg = rig.channel(0).begin_packing(1);
    msg.pack(payload);
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.channel(1).begin_unpacking();
    msg.unpack(out);
    msg.end_unpacking();
  });
  rig.engine.run();
  EXPECT_EQ(out, payload);
  const net::Nic& nic = *rig.hosts[0]->nics().front().get();
  EXPECT_EQ(nic.packets_sent(), 4u);  // ceil(100K / 32K)
}

// Property test: random block shapes and flag pairs survive a round trip on
// every protocol. The protocol is a std::string, not a const char*, so the
// listed test name shows its text instead of the literal's run-dependent
// address.
class BmmProperty
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Seeds, BmmProperty,
    ::testing::Combine(::testing::Values(std::string("BIP/Myrinet"),
                                         std::string("SISCI/SCI"),
                                         std::string("TCP/FEth"),
                                         std::string("SBP"),
                                         std::string("VIA/GigaNet")),
                       ::testing::Range(0, 5)),
    [](const auto& info) {
      std::string n = std::get<0>(info.param);
      for (char& c : n) {
        if (c == '/') {
          c = '_';
        }
      }
      return n + "_seed" + std::to_string(std::get<1>(info.param));
    });

TEST_P(BmmProperty, RandomMessageShapesRoundTrip) {
  const auto [protocol, seed] = GetParam();
  SingleNetRig rig(net::nic_model_by_name(protocol), 2);
  util::Rng rng(static_cast<std::uint64_t>(seed) * 977 + 3);

  struct Block {
    std::vector<std::byte> data;
    SendMode smode;
    RecvMode rmode;
  };
  std::vector<Block> blocks;
  const int n_blocks = 1 + static_cast<int>(rng.next_below(12));
  for (int i = 0; i < n_blocks; ++i) {
    Block b;
    const std::size_t size = rng.next_bool(0.2)
                                 ? 0
                                 : rng.next_between(1, 80'000);
    b.data = rng.bytes(size);
    const auto s = rng.next_below(3);
    b.smode = s == 0   ? SendMode::Safer
              : s == 1 ? SendMode::Later
                       : SendMode::Cheaper;
    b.rmode = rng.next_bool(0.3) ? RecvMode::Express : RecvMode::Cheaper;
    blocks.push_back(std::move(b));
  }

  std::vector<std::vector<std::byte>> out;
  for (const auto& b : blocks) {
    out.emplace_back(b.data.size());
  }
  rig.engine.spawn("s", [&] {
    auto msg = rig.channel(0).begin_packing(1);
    for (const auto& b : blocks) {
      msg.pack(b.data, b.smode, b.rmode);
    }
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.channel(1).begin_unpacking();
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      msg.unpack(out[i], blocks[i].smode, blocks[i].rmode);
      if (blocks[i].rmode == RecvMode::Express) {
        EXPECT_EQ(out[i], blocks[i].data) << "express block " << i;
      }
    }
    msg.end_unpacking();
  });
  rig.engine.run();
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(out[i], blocks[i].data) << "block " << i;
  }
}

}  // namespace
}  // namespace mad
