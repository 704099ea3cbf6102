#include "fwd/generic_tm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "support/mad_rig.hpp"
#include "util/rng.hpp"

namespace mad::fwd {
namespace {

TEST(GenericTm, FragmentMath) {
  EXPECT_EQ(fragment_count(0, 8192), 0u);
  EXPECT_EQ(fragment_count(1, 8192), 1u);
  EXPECT_EQ(fragment_count(8192, 8192), 1u);
  EXPECT_EQ(fragment_count(8193, 8192), 2u);
  EXPECT_EQ(fragment_count(100 * 8192, 8192), 100u);

  EXPECT_EQ(fragment_size(8193, 8192, 0), 8192u);
  EXPECT_EQ(fragment_size(8193, 8192, 1), 1u);
  EXPECT_EQ(fragment_size(8192, 8192, 0), 8192u);
}

TEST(GenericTm, FragmentIndexOutOfRangeRejected) {
  EXPECT_THROW(fragment_size(8192, 8192, 1), util::PanicError);
}

TEST(GenericTm, ModeEncodingRoundTrips) {
  for (const SendMode mode :
       {SendMode::Safer, SendMode::Later, SendMode::Cheaper}) {
    EXPECT_EQ(decode_smode(encode(mode)), mode);
  }
  for (const RecvMode mode : {RecvMode::Express, RecvMode::Cheaper}) {
    EXPECT_EQ(decode_rmode(encode(mode)), mode);
  }
  EXPECT_THROW(decode_smode(99), util::PanicError);
  EXPECT_THROW(decode_rmode(99), util::PanicError);
}

TEST(GenericTm, BlockHeaderHelpers) {
  const auto h =
      block_header_for(1234, SendMode::Later, RecvMode::Express);
  EXPECT_EQ(h.size, 1234u);
  EXPECT_EQ(decode_smode(h.smode), SendMode::Later);
  EXPECT_EQ(decode_rmode(h.rmode), RecvMode::Express);
  EXPECT_EQ(h.end_of_message, 0);
  EXPECT_EQ(end_marker().end_of_message, 1);
}

TEST(GenericTm, RouteMtuIsMinOverNetworks) {
  sim::Engine engine;
  net::Fabric fabric(engine);
  net::Network& myri = fabric.add_network("m", net::bip_myrinet());
  net::Network& sci = fabric.add_network("s", net::sisci_sci());
  net::Network& sbp_net = fabric.add_network("b", net::sbp());
  Domain domain(fabric);
  // Myrinet 256K × SCI 128K → 128K.
  EXPECT_EQ(compute_route_mtu(domain, {&myri, &sci}, 0), 128u * 1024);
  // SBP static buffers (32K) bound the MTU.
  EXPECT_EQ(compute_route_mtu(domain, {&myri, &sci, &sbp_net}, 0),
            32u * 1024);
  // An explicit paquet size caps further.
  EXPECT_EQ(compute_route_mtu(domain, {&myri, &sci}, 8 * 1024), 8u * 1024);
  // But cannot exceed what the networks carry.
  EXPECT_EQ(compute_route_mtu(domain, {&sbp_net}, 1 << 20), 32u * 1024);
}

TEST(GenericTm, HeadersTravelThroughAChannel) {
  testsupport::SingleNetRig rig(net::bip_myrinet(), 2);
  GtmMsgHeader got_msg;
  GtmBlockHeader got_block;
  Preamble got_preamble;
  rig.engine.spawn("s", [&] {
    auto msg = rig.channel(0).begin_packing(1);
    write_preamble(msg, Preamble{7, 1});
    write_msg_header(msg, GtmMsgHeader{5, 7, 8192});
    write_block_header(msg,
                       block_header_for(99, SendMode::Safer,
                                        RecvMode::Cheaper));
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.channel(1).begin_unpacking();
    got_preamble = read_preamble(msg);
    got_msg = read_msg_header(msg);
    got_block = read_block_header(msg);
    msg.end_unpacking();
  });
  rig.engine.run();
  EXPECT_EQ(got_preamble.origin, 7u);
  EXPECT_EQ(got_preamble.forwarded, 1);
  EXPECT_EQ(got_msg.final_dst, 5u);
  EXPECT_EQ(got_msg.mtu, 8192u);
  EXPECT_EQ(got_block.size, 99u);
  EXPECT_EQ(decode_smode(got_block.smode), SendMode::Safer);
}

// The fault injector corrupts a paquet by XORing one byte with 1..255; the
// reliable path relies on every such change being caught.
TEST(GenericTm, ChecksumCatchesEverySingleByteCorruption) {
  util::Rng rng(18);
  const auto flips_caught = [](std::vector<std::byte>& payload,
                               std::size_t pos, std::uint32_t seq,
                               std::uint32_t epoch,
                               std::initializer_list<unsigned> masks) {
    const std::uint64_t clean = gtm_paquet_checksum(payload, seq, epoch);
    bool caught = true;
    for (const unsigned mask : masks) {
      payload[pos] ^= static_cast<std::byte>(mask);
      caught = caught && gtm_paquet_checksum(payload, seq, epoch) != clean;
      payload[pos] ^= static_cast<std::byte>(mask);
    }
    return caught;
  };
  std::vector<unsigned> every_mask(255);
  for (unsigned m = 1; m <= 255; ++m) {
    every_mask[m - 1] = m;
  }
  for (const std::size_t size :
       {0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100, 4096}) {
    std::vector<std::byte> payload = rng.bytes(size);
    const std::uint64_t clean = gtm_paquet_checksum(payload, 3, 1);
    for (std::size_t pos = 0; pos < size; ++pos) {
      for (const unsigned mask : every_mask) {
        payload[pos] ^= static_cast<std::byte>(mask);
        ASSERT_NE(gtm_paquet_checksum(payload, 3, 1), clean)
            << "size " << size << " pos " << pos << " mask " << mask;
        payload[pos] ^= static_cast<std::byte>(mask);
      }
    }
  }
  // A 128 KiB payload, and one that leaves three words and a byte tail
  // after its last 32-byte stripe: every lane, word and tail boundary.
  for (const std::size_t size : {128 * 1024, 128 * 1024 - 3}) {
    std::vector<std::byte> payload = rng.bytes(size);
    for (const std::size_t edge : {std::size_t{0}, (size / 2) & ~std::size_t{31},
                                   (size & ~std::size_t{31}) - 32,
                                   size & ~std::size_t{31}}) {
      for (std::size_t off = 0; off < 40 && edge + off < size; ++off) {
        EXPECT_TRUE(
            flips_caught(payload, edge + off, 9, 2, {0x01, 0x80, 0xFF}))
            << "size " << size << " pos " << edge + off;
      }
    }
    EXPECT_TRUE(flips_caught(payload, size - 1, 9, 2, {0x01, 0x80, 0xFF}));
  }
  // Every single-bit flip of seq and of epoch.
  const std::vector<std::byte> payload = rng.bytes(100);
  const std::uint32_t seq = 0x1234'5678;
  const std::uint32_t epoch = 0x9ABC'DEF0;
  const std::uint64_t clean = gtm_paquet_checksum(payload, seq, epoch);
  for (int bit = 0; bit < 32; ++bit) {
    EXPECT_NE(gtm_paquet_checksum(payload, seq ^ (1u << bit), epoch), clean);
    EXPECT_NE(gtm_paquet_checksum(payload, seq, epoch ^ (1u << bit)), clean);
  }
}

TEST(GenericTm, ChecksumMixesOrderLengthAndPairs) {
  util::Rng rng(7);
  // Swapping two distinct 8-byte words: same stripe, same lane in another
  // stripe, and the leftover words after the last stripe.
  const std::vector<std::byte> payload = rng.bytes(100);
  const std::uint64_t clean = gtm_paquet_checksum(payload, 0, 0);
  for (std::size_t a = 0; a + 8 <= payload.size(); a += 8) {
    for (std::size_t b = a + 8; b + 8 <= payload.size(); b += 8) {
      std::vector<std::byte> swapped = payload;
      std::memcpy(swapped.data() + a, payload.data() + b, 8);
      std::memcpy(swapped.data() + b, payload.data() + a, 8);
      EXPECT_NE(gtm_paquet_checksum(swapped, 0, 0), clean)
          << "words at " << a << " and " << b;
    }
  }
  // Appending a zero byte.
  for (std::size_t size = 0; size <= 65; ++size) {
    std::vector<std::byte> grown = rng.bytes(size);
    const std::uint64_t before = gtm_paquet_checksum(grown, 0, 0);
    grown.push_back(std::byte{0});
    EXPECT_NE(gtm_paquet_checksum(grown, 0, 0), before) << "size " << size;
  }
  // Every pair of single-bit flips in a 64-byte payload (two stripes, so
  // each lane takes two words), over random and all-zero data.
  for (std::vector<std::byte> bytes : {rng.bytes(64),
                                       std::vector<std::byte>(64)}) {
    const std::uint64_t base = gtm_paquet_checksum(bytes, 5, 5);
    std::size_t missed = 0;
    for (std::size_t i = 0; i < 64 * 8; ++i) {
      bytes[i / 8] ^= static_cast<std::byte>(1u << (i % 8));
      for (std::size_t j = i + 1; j < 64 * 8; ++j) {
        bytes[j / 8] ^= static_cast<std::byte>(1u << (j % 8));
        missed += gtm_paquet_checksum(bytes, 5, 5) == base ? 1 : 0;
        bytes[j / 8] ^= static_cast<std::byte>(1u << (j % 8));
      }
      bytes[i / 8] ^= static_cast<std::byte>(1u << (i % 8));
    }
    EXPECT_EQ(missed, 0u);
  }
}

TEST(GenericTm, VerifiedTrailerChecksTheWireTrailer) {
  util::Rng rng(3);
  std::vector<std::byte> wire = rng.bytes(40);
  const GtmPaquetTrailer trailer = make_paquet_trailer(wire, 11, 4);
  wire.resize(wire.size() + kGtmTrailerBytes);
  std::memcpy(wire.data() + 40, &trailer, kGtmTrailerBytes);
  const auto got = verified_trailer(wire);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->seq, 11u);
  EXPECT_EQ(got->epoch, 4u);
  // A trailer field counts as covered bytes: flipping seq fails the check.
  wire[40] ^= std::byte{1};
  EXPECT_FALSE(verified_trailer(wire).has_value());
  wire[40] ^= std::byte{1};
  wire[3] ^= std::byte{0x40};
  EXPECT_FALSE(verified_trailer(wire).has_value());
  EXPECT_FALSE(
      verified_trailer(util::ByteSpan(wire.data(), kGtmTrailerBytes - 1))
          .has_value());
}

TEST(GenericTm, CopyChecksumEqualsChecksumAndCopies) {
  // Every size through several stripes and every byte tail, plus both
  // paquet sizes, at every source and destination alignment: the fused
  // pass returns exactly the plain checksum, copies every byte and writes
  // nothing on either side of the destination.
  constexpr std::size_t kLargest = 128 * 1024 + 13;
  constexpr std::size_t kGuard = 16;
  constexpr std::byte kFill{0xA5};
  std::vector<std::size_t> sizes;
  for (std::size_t size = 0; size <= 257; ++size) {
    sizes.push_back(size);
  }
  sizes.push_back(8 * 1024);
  sizes.push_back(kLargest);
  const std::vector<std::byte> source = util::Rng(9).bytes(kLargest + 7);
  std::vector<std::byte> dest(kGuard + 7 + kLargest + kGuard);
  std::uint32_t seq = 0;
  for (const std::size_t size : sizes) {
    for (std::size_t src_at = 0; src_at < 8; ++src_at) {
      for (std::size_t dst_at = 0; dst_at < 8; ++dst_at) {
        ++seq;
        const util::ByteSpan src(source.data() + src_at, size);
        const util::MutByteSpan dst(dest.data() + kGuard + dst_at, size);
        std::fill(dst.data() - kGuard, dst.data(), kFill);
        std::fill(dst.data() + size, dst.data() + size + kGuard, kFill);
        ASSERT_EQ(gtm_copy_checksum(dst, src, seq, 7),
                  gtm_paquet_checksum(src, seq, 7))
            << "size " << size << " src+" << src_at << " dst+" << dst_at;
        ASSERT_TRUE(std::equal(src.begin(), src.end(), dst.begin()))
            << "size " << size << " src+" << src_at << " dst+" << dst_at;
        for (std::size_t i = 1; i <= kGuard; ++i) {
          ASSERT_EQ(*(dst.data() - i), kFill)
              << "wrote before the destination: size " << size;
          ASSERT_EQ(*(dst.data() + size + i - 1), kFill)
              << "wrote past the destination: size " << size;
        }
      }
    }
  }
}

}  // namespace
}  // namespace mad::fwd
