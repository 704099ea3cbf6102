// One buffer per reliable paquet on the wire (fwd/reliable.hpp, net/nic.hpp):
// a two-sided reliable sender fills a fresh network buffer for every
// transmission from a view of the caller's bytes, the NIC adopts it, and
// the receiver verifies it where it arrived. These tests pin the view
// contract (every retransmission carries the bytes the caller packed) and
// the host copies the NICs still make (Network::snapshot_bytes and
// scatter_bytes). The plain relay sends each paquet on in the network
// buffer it arrived in; its tests pin that buffer's way back to the pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "fwd/generic_tm.hpp"
#include "mad/connection.hpp"
#include "mad/copy_stats.hpp"
#include "net/fault.hpp"
#include "sim/trace.hpp"
#include "support/coc_rig.hpp"
#include "util/rng.hpp"

namespace mad::fwd {
namespace {

using testsupport::PaperRig;

constexpr std::size_t kBlock = 256 * 1024;

/// The paquet seq a rel.* trace detail names ("peer=P seq=S ...").
std::uint32_t seq_of(const std::string& detail) {
  const std::size_t at = detail.find("seq=");
  return static_cast<std::uint32_t>(std::stoul(detail.substr(at + 4)));
}

/// Every retransmission by the actor on `track` of a paquet in
/// [first, last], at or after `since`.
std::size_t resends(const sim::TraceSink& trace, const std::string& track,
                    std::uint32_t first, std::uint32_t last,
                    sim::Time since = 0) {
  std::size_t n = 0;
  for (const char* name :
       {"rel.retransmit", "rel.fast_retransmit", "rel.sack_retransmit"}) {
    for (const sim::TraceEvent& event : trace.by_name(name)) {
      const std::uint32_t seq = seq_of(event.detail);
      if (event.track == track && event.begin >= since && seq >= first &&
          seq <= last) {
        ++n;
      }
    }
  }
  return n;
}

TEST(WireBuffers, RetransmitsCarryThePackedBytes) {
  // Window 16 with seeded drops on both hops. The origin packs a Safer
  // block and scribbles over its source as soon as pack() returns, then a
  // Cheaper block it leaves alone until end_packing returns; the gateway
  // relays both from its stored fragments. Every retransmission re-copies
  // its payload from the sender's view, under the trailer sealed by the
  // first transmission: a view of the wrong bytes would fail the
  // receiver's checksum on every attempt until the hop was declared dead.
  sim::TraceSink trace;
  trace.enable();
  VcOptions options;
  options.paquet_size = 16 * 1024;
  options.reliable.enabled = true;
  options.reliable.window = 16;
  options.trace = &trace;
  PaperRig rig(options);
  net::FaultPlan plan;
  plan.seed = 4;
  plan.drop_rate = 0.05;
  rig.myri.set_fault_plan(plan);
  rig.sci.set_fault_plan(plan);

  const std::vector<std::byte> safer = util::Rng(61).bytes(kBlock);
  const std::vector<std::byte> cheaper = util::Rng(62).bytes(kBlock);
  std::vector<std::byte> safer_src = safer;
  std::vector<std::byte> cheaper_src = cheaper;
  std::vector<std::byte> safer_out(kBlock);
  std::vector<std::byte> cheaper_out(kBlock);
  sim::Time safer_packed = 0;
  rig.engine.spawn("s", [&] {
    auto msg = rig.ep(rig.myri_node()).begin_packing(rig.sci_node());
    msg.pack(safer_src, SendMode::Safer, RecvMode::Cheaper);
    safer_packed = rig.engine.now();
    std::fill(safer_src.begin(), safer_src.end(), std::byte{0xEE});
    msg.pack(cheaper_src, SendMode::Cheaper, RecvMode::Cheaper);
    msg.end_packing();
    std::fill(cheaper_src.begin(), cheaper_src.end(), std::byte{0xDD});
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.ep(rig.sci_node()).begin_unpacking();
    msg.unpack(safer_out, SendMode::Safer, RecvMode::Cheaper);
    msg.unpack(cheaper_out, SendMode::Cheaper, RecvMode::Cheaper);
    msg.end_unpacking();
  });
  rig.engine.run();
  EXPECT_EQ(safer_out, safer);
  EXPECT_EQ(cheaper_out, cheaper);
  for (NodeRank rank = 0; rank < 3; ++rank) {
    const ReliabilityStats& r = rig.vc->gateway_stats(rank).reliability;
    EXPECT_EQ(r.corrupt_drops, 0u) << "node " << rank;
    EXPECT_EQ(r.failovers, 0u) << "node " << rank;
  }

  // The run covers all three views. Paquet seqs on each hop: the Safer
  // block's header is 0 and its fragments 1..k, the Cheaper block's
  // header k + 1 and its fragments k + 2..2k + 1.
  const auto k =
      static_cast<std::uint32_t>(fragment_count(kBlock, rig.vc->mtu()));
  EXPECT_GT(resends(trace, "s", 1, k, safer_packed), 0u)
      << "no Safer fragment was resent after its source was scribbled";
  EXPECT_GT(resends(trace, "s", k + 2, 2 * k + 1), 0u)
      << "no Cheaper fragment was resent";
  std::size_t gateway_resends = 0;
  for (const sim::TraceEvent& event : trace.by_name("rel.retransmit")) {
    gateway_resends += event.track != "s" ? 1 : 0;
  }
  for (const sim::TraceEvent& event : trace.by_name("rel.fast_retransmit")) {
    gateway_resends += event.track != "s" ? 1 : 0;
  }
  EXPECT_GT(gateway_resends, 0u)
      << "the gateway never resent a stored fragment";
}

/// Seeded 5% drops on each of `networks`.
void drop_five_percent(const std::vector<net::Network*>& networks) {
  net::FaultPlan plan;
  plan.seed = 4;
  plan.drop_rate = 0.05;
  for (net::Network* network : networks) {
    network->set_fault_plan(plan);
  }
}

/// Sends one Later block from `src` to `dst`, scribbling over its source
/// right after pack() (before end_packing, which Later allows), and checks
/// that the block crosses as packed: a reliable hop reads a Later block at
/// pack(), so its retransmissions must carry those bytes too. Returns the
/// time pack() returned.
template <typename Rig>
sim::Time send_scribbled_later_block(Rig& rig, NodeRank src, NodeRank dst,
                                     NodeRank nodes) {
  const std::vector<std::byte> later = util::Rng(64).bytes(kBlock);
  std::vector<std::byte> later_src = later;
  std::vector<std::byte> later_out(kBlock);
  sim::Time packed = 0;
  rig.engine.spawn("s", [&] {
    auto msg = rig.ep(src).begin_packing(dst);
    msg.pack(later_src, SendMode::Later, RecvMode::Cheaper);
    packed = rig.engine.now();
    std::fill(later_src.begin(), later_src.end(), std::byte{0xCC});
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.ep(dst).begin_unpacking();
    msg.unpack(later_out, SendMode::Later, RecvMode::Cheaper);
    msg.end_unpacking();
  });
  rig.engine.run();
  EXPECT_EQ(later_out, later);
  for (NodeRank rank = 0; rank < nodes; ++rank) {
    const ReliabilityStats& r = rig.vc->gateway_stats(rank).reliability;
    EXPECT_EQ(r.corrupt_drops, 0u) << "node " << rank;
    EXPECT_EQ(r.failovers, 0u) << "node " << rank;
  }
  return packed;
}

TEST(WireBuffers, LaterBlockChangedBeforeEndPackingCrossesAsPacked) {
  // The origin keeps a Later block for its retransmissions: the caller
  // may change the buffer once pack() returns, and the trailer sealed by
  // the first transmission covers the bytes as packed.
  sim::TraceSink trace;
  trace.enable();
  VcOptions options;
  options.paquet_size = 16 * 1024;
  options.reliable.enabled = true;
  options.reliable.window = 16;
  options.trace = &trace;
  PaperRig rig(options);
  drop_five_percent({&rig.myri, &rig.sci});
  const sim::Time packed = send_scribbled_later_block(
      rig, rig.myri_node(), rig.sci_node(), /*nodes=*/3);
  // Paquet 0 is the block header, 1..k its fragments.
  const auto k =
      static_cast<std::uint32_t>(fragment_count(kBlock, rig.vc->mtu()));
  EXPECT_GT(resends(trace, "s", 1, k, packed), 0u)
      << "no Later fragment was resent after its source was scribbled";
}

TEST(WireBuffers, StripedLaterBlockChangedBeforeEndPackingCrossesAsPacked) {
  // Same for the striper, whose rail actors send after pack() returns.
  sim::TraceSink trace;
  trace.enable();
  VcOptions options;
  options.paquet_size = 16 * 1024;
  options.reliable.enabled = true;
  options.reliable.window = 16;
  options.max_rails = 2;
  options.trace = &trace;
  testsupport::DisjointRailRig rig(options);
  drop_five_percent({&rig.myri_a, &rig.myri_b, &rig.sci});
  const sim::Time packed =
      send_scribbled_later_block(rig, /*src=*/0, /*dst=*/3, /*nodes=*/4);
  std::size_t rail_resends = 0;
  for (const char* name : {"rel.retransmit", "rel.fast_retransmit",
                           "rel.sack_retransmit"}) {
    for (const sim::TraceEvent& event : trace.by_name(name)) {
      rail_resends += event.track.find(".rail") != std::string::npos &&
                              event.begin >= packed
                          ? 1
                          : 0;
    }
  }
  EXPECT_GT(rail_resends, 0u)
      << "no rail resent a paquet after the source was scribbled";
}

/// The bytes each network's NICs copied into packets (snapshots) and out
/// of them (scatters), Myrinet first, the bytes the run passed through
/// the checksum loop, those of them the loop also copied, and the bytes
/// charged virtual copy time (mad::copy_stats).
struct HostCopies {
  std::vector<std::uint64_t> snapshots;
  std::vector<std::uint64_t> scatters;
  std::uint64_t checksummed = 0;
  std::uint64_t checksum_copied = 0;
  std::uint64_t charged = 0;
};

/// Relays one 1 MiB Cheaper block from m0 to s0 (m1 only widens the
/// Myrinet channel so that it announces messages) and returns the host
/// copies its NICs made and the bytes it checksummed.
HostCopies host_copies_of_one_relay(bool reliable) {
  VcOptions options;
  options.reliable.enabled = reliable;
  options.reliable.window = 16;
  PaperRig rig(options, /*myri_endpoints=*/2);
  const std::vector<std::byte> payload = util::Rng(63).bytes(1 << 20);
  std::vector<std::byte> out(payload.size());
  rig.engine.spawn("s", [&] {
    auto msg = rig.ep(rig.myri_node()).begin_packing(rig.sci_node());
    msg.pack(payload);
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.ep(rig.sci_node()).begin_unpacking();
    msg.unpack(out);
    msg.end_unpacking();
  });
  const std::uint64_t checksummed_before = gtm_checksum_bytes();
  const std::uint64_t copied_before = gtm_copy_bytes();
  const std::uint64_t charged_before = copy_stats().bytes;
  rig.engine.run();
  EXPECT_EQ(out, payload);
  return {{rig.myri.snapshot_bytes(), rig.sci.snapshot_bytes()},
          {rig.myri.scatter_bytes(), rig.sci.scatter_bytes()},
          gtm_checksum_bytes() - checksummed_before,
          gtm_copy_bytes() - copied_before,
          copy_stats().bytes - charged_before};
}

TEST(WireBuffers, ReliableRelaySnapshotsOnlyItsFraming) {
  // Without faults, every host copy a NIC makes into a packet of the
  // reliable relay is unreliable framing: the Myrinet channel's announce,
  // and on each hop the preamble and the GTM message header. Every
  // reliable paquet (block header, fragments, end marker) crosses in the
  // buffer its sender filled.
  const std::uint64_t framing = sizeof(Preamble) + sizeof(GtmMsgHeader);
  EXPECT_EQ(host_copies_of_one_relay(/*reliable=*/true).snapshots,
            (std::vector<std::uint64_t>{sizeof(AnnouncePacket) + framing,
                                        framing}));
}

TEST(WireBuffers, ReliableRelayChecksumsEachPayloadByteThrice) {
  // Without faults nothing is resent, so each reliable paquet meets the
  // checksum loop where it is first filled and where it is verified. A
  // payload fragment does so three times: the origin fills it, the
  // gateway verifies it into its stored fragment, the final receiver
  // verifies it into user memory. The gateway's egress seals its trailers
  // from the digest its ingress computed, so its fill is a plain copy.
  // The block header and the end marker are filled and verified on each
  // hop: four passes each. The stream-head parse on each hop also tests
  // the GTM message header as a possible late data paquet, digesting what
  // would be its body. The plain relay checksums nothing.
  const std::uint64_t headers = 2 * sizeof(GtmBlockHeader);
  const std::uint64_t head_probe = sizeof(GtmMsgHeader) - kGtmTrailerBytes;
  EXPECT_EQ(host_copies_of_one_relay(/*reliable=*/true).checksummed,
            3 * (std::uint64_t{1} << 20) + 4 * headers + 2 * head_probe);
  EXPECT_EQ(host_copies_of_one_relay(/*reliable=*/false).checksummed, 0u);
}

TEST(WireBuffers, ReliableRelayGatewayVerifiesInPlace) {
  // Of the three checksum passes over a payload byte, two also copy it:
  // the origin's fill and the final receiver's verification into user
  // memory. The gateway verifies each paquet in the network buffer it
  // arrived in and keeps that buffer as its stored fragment, so its pass
  // only reads. The block header and the end marker are copied by each
  // fill and each verification: four times each. The stream-head probe
  // only reads.
  const std::uint64_t headers = 2 * sizeof(GtmBlockHeader);
  EXPECT_EQ(host_copies_of_one_relay(/*reliable=*/true).checksum_copied,
            2 * (std::uint64_t{1} << 20) + 4 * headers);
  EXPECT_EQ(host_copies_of_one_relay(/*reliable=*/false).checksum_copied, 0u);
}

TEST(WireBuffers, ReliableRelayChargesNoPayloadCopy) {
  // Without faults every reliable paquet arrives in order. The gateway
  // keeps each in the buffer it arrived in, and the final receiver is on
  // SCI, a dynamic-buffer NIC that places an in-order paquet in user
  // memory itself: its verification pass writes the body there on the
  // host, but that stands for the NIC's placement and is not charged. No
  // payload byte is charged virtual copy time; the charged bytes are the
  // Safer snapshots of each hop's framing (preamble and GTM message
  // header).
  const std::uint64_t framing = sizeof(Preamble) + sizeof(GtmMsgHeader);
  EXPECT_EQ(host_copies_of_one_relay(/*reliable=*/true).charged, 2 * framing);
}

TEST(WireBuffers, StaticFinalReceiverKeepsItsCopyCharge) {
  // On a static-buffer NIC (TCP/FEth) a reliable paquet lands in a
  // protocol buffer, the static shape copies it into a packet buffer, and
  // the receiver's verification writes it to user memory in the same
  // pass. Both are real copies, and each is charged; so is the gateway's
  // copy of each paquet into FEth's send buffers. The gateway's Myrinet
  // side charges nothing. Each hop copies and charges its framing once per
  // static side.
  VcOptions options;
  options.reliable.enabled = true;
  options.reliable.window = 16;
  // A 64 KB paquet holds the FEth wire for almost 6 ms: a deadline long
  // enough for a queued window keeps retransmissions out of the count.
  options.reliable.ack_timeout = sim::milliseconds(50);
  testsupport::TwoNetRig rig(net::bip_myrinet(), net::tcp_fast_ethernet(),
                             options);
  const std::vector<std::byte> payload = util::Rng(66).bytes(kBlock);
  std::vector<std::byte> out(payload.size());
  rig.engine.spawn("s", [&] {
    auto msg = rig.ep(0).begin_packing(2);
    msg.pack(payload);
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.ep(2).begin_unpacking();
    msg.unpack(out);
    msg.end_unpacking();
  });
  const std::uint64_t charged_before = copy_stats().bytes;
  rig.engine.run();
  EXPECT_EQ(out, payload);
  const std::uint64_t fragments = fragment_count(kBlock, rig.vc->mtu());
  const std::uint64_t framing = sizeof(Preamble) + sizeof(GtmMsgHeader);
  const std::uint64_t headers = 2 * sizeof(GtmBlockHeader);
  // The reliable paquets of the FEth hop, trailers included.
  const std::uint64_t wire =
      kBlock + headers + (fragments + 2) * kGtmTrailerBytes;
  for (NodeRank rank = 0; rank < 2; ++rank) {
    EXPECT_EQ(rig.vc->gateway_stats(rank).reliability.retransmits, 0u);
  }
  // Framing: the origin's Safer snapshots, the gateway's FEth send buffers
  // and the receiver's unpack from FEth receive buffers. Paquets: the
  // gateway's send buffers and the receiver's packet buffers hold whole
  // wire paquets; user memory and the header structs get their bodies.
  EXPECT_EQ(copy_stats().bytes - charged_before,
            3 * framing + 2 * wire + kBlock + headers);
}

TEST(WireBuffers, PlainRelayCopiesPayloadOnlyAtItsEnds) {
  // The plain relay copies each payload byte twice on the host: the
  // origin's NIC snapshots it from user memory and the final receiver's
  // NIC scatters it into user memory. The gateway sends every fragment on
  // in the Myrinet buffer it arrived in, so on the gateway's side of each
  // hop only the framing is copied: the preamble, the GTM message header,
  // one block header and the end marker.
  const std::uint64_t framing = sizeof(Preamble) + sizeof(GtmMsgHeader) +
                                2 * sizeof(GtmBlockHeader);
  const std::uint64_t stream = framing + (1 << 20);
  const HostCopies copies = host_copies_of_one_relay(/*reliable=*/false);
  EXPECT_EQ(copies.snapshots,
            (std::vector<std::uint64_t>{sizeof(AnnouncePacket) + stream,
                                        framing}));
  // The gateway's ingress scatters no payload byte; its announce is read
  // into an owned buffer, not scattered.
  EXPECT_EQ(copies.scatters, (std::vector<std::uint64_t>{framing, stream}));
}

/// Packets still queued at the NICs of `network`: each holds a buffer of
/// the fabric's packet pool.
std::size_t queued_packets(const net::Network& network) {
  std::size_t packets = 0;
  for (int i = 0; i < static_cast<int>(network.size()); ++i) {
    packets += network.nic(i).queued();
  }
  return packets;
}

/// Buffers of the fabric's packet pool that are neither idle nor held by
/// a queued packet.
std::uint64_t buffers_out(const PaperRig& rig) {
  const util::BufferPool& pool = rig.myri.buffer_pool();
  return pool.takes() - pool.reuses() - pool.idle() -
         queued_packets(rig.myri) - queued_packets(rig.sci);
}

TEST(WireBuffers, ReliableReceiveSurvivesFinalHopFaults) {
  // Seeded drops, duplicates and corruptions on the final network of an
  // 8 KB SCI -> Myrinet relay at window 16: the final receiver verifies
  // each paquet in the buffer it arrived in, and must drop, re-ack or park
  // each corrupt, duplicate or out-of-order one (a parked paquet is later
  // copied out, and charged). Every multi-block message, Cheaper and
  // Express blocks mixed, arrives once with the bytes packed, and every
  // buffer of the fabric's pool is back once the run is over.
  VcOptions options;
  options.paquet_size = 8 * 1024;
  options.reliable.enabled = true;
  options.reliable.window = 16;
  PaperRig rig(options);
  net::FaultPlan plan;
  plan.seed = 9;
  plan.drop_rate = 0.04;
  plan.duplicate_rate = 0.04;
  plan.corrupt_rate = 0.04;
  rig.myri.set_fault_plan(plan);
  struct Block {
    std::size_t size;
    RecvMode mode;
  };
  // A sub-fragment Express block, a many-fragment Cheaper one, an Express
  // block just over one fragment, a one-byte Cheaper block.
  const std::vector<Block> blocks = {{100, RecvMode::Express},
                                     {200 * 1024, RecvMode::Cheaper},
                                     {8 * 1024, RecvMode::Express},
                                     {1, RecvMode::Cheaper}};
  constexpr int kMessages = 4;
  const auto bytes_of = [](int message, std::size_t block, std::size_t size) {
    return util::Rng(70 + 10 * static_cast<std::uint64_t>(message) + block)
        .bytes(size);
  };
  const NodeRank src = rig.sci_node();
  const NodeRank dst = rig.myri_node();
  rig.engine.spawn("s", [&] {
    for (int m = 0; m < kMessages; ++m) {
      std::vector<std::vector<std::byte>> kept;
      auto msg = rig.ep(src).begin_packing(dst);
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        kept.push_back(bytes_of(m, b, blocks[b].size));
        msg.pack(kept.back(), SendMode::Cheaper, blocks[b].mode);
      }
      msg.end_packing();
    }
  });
  int intact = 0;
  int extra = 0;
  rig.engine.spawn("r", [&] {
    for (int m = 0; m < kMessages; ++m) {
      auto msg = rig.ep(dst).begin_unpacking();
      bool same = true;
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        std::vector<std::byte> got(blocks[b].size);
        msg.unpack(got, SendMode::Cheaper, blocks[b].mode);
        same = same && got == bytes_of(m, b, blocks[b].size);
      }
      msg.end_unpacking();
      intact += same ? 1 : 0;
    }
    // A stray second copy of any message would arrive within a second.
    if (rig.ep(dst).begin_unpacking_until(rig.engine.now() +
                                          sim::seconds(1))) {
      ++extra;
    }
  });
  rig.engine.run();
  EXPECT_EQ(intact, kMessages);
  EXPECT_EQ(extra, 0);
  // Every fault reached the final receiver, and the gateway's
  // sender recovered from parked paquets behind a hole.
  const ReliabilityStats& rx = rig.vc->gateway_stats(dst).reliability;
  EXPECT_GT(rx.corrupt_drops, 0u);
  EXPECT_GT(rx.dup_drops, 0u);
  const ReliabilityStats& gw =
      rig.vc->gateway_stats(rig.gateway_rank).reliability;
  EXPECT_GT(gw.fast_retransmits, 0u);
  EXPECT_EQ(buffers_out(rig), 0u);
}

TEST(WireBuffers, PlainRelayBuffersReturnToThePool) {
  // The plain relay hands each paquet's network buffer from the ingress
  // NIC to the egress NIC, across networks, so one pool serves both. In
  // both directions, at pipeline depth 1 and 2, every buffer must be back
  // once the run is over, and a second identical batch must make none.
  for (const bool sci_first : {false, true}) {
    for (const int depth : {1, 2}) {
      SCOPED_TRACE(std::string(sci_first ? "SciToMyri" : "MyriToSci") +
                   " depth " + std::to_string(depth));
      VcOptions options;
      options.pipeline_depth = depth;
      PaperRig rig(options);
      ASSERT_EQ(&rig.myri.buffer_pool(), &rig.sci.buffer_pool());
      const NodeRank src = sci_first ? rig.sci_node() : rig.myri_node();
      const NodeRank dst = sci_first ? rig.myri_node() : rig.sci_node();
      util::Rng rng(65);
      const std::vector<std::vector<std::byte>> batch = {rng.bytes(1 << 20),
                                                         rng.bytes(100)};
      const auto send_batch = [&] {
        for (const std::vector<std::byte>& payload : batch) {
          auto msg = rig.ep(src).begin_packing(dst);
          msg.pack(payload);
          msg.end_packing();
        }
      };
      int intact = 0;
      const auto receive_batch = [&] {
        for (const std::vector<std::byte>& payload : batch) {
          std::vector<std::byte> out(payload.size());
          auto msg = rig.ep(dst).begin_unpacking();
          msg.unpack(out);
          msg.end_unpacking();
          intact += out == payload ? 1 : 0;
        }
      };
      const util::BufferPool& pool = rig.myri.buffer_pool();
      std::uint64_t made_by_first = 0;
      rig.engine.spawn("s", send_batch);
      rig.engine.spawn("r", [&] {
        receive_batch();
        made_by_first = pool.takes() - pool.reuses();
        rig.engine.spawn("s2", send_batch);
        receive_batch();
      });
      rig.engine.run();
      EXPECT_EQ(intact, 4);
      EXPECT_GT(made_by_first, 0u);
      EXPECT_EQ(pool.takes() - pool.reuses(), made_by_first);
      EXPECT_EQ(buffers_out(rig), 0u);
    }
  }
}

TEST(WireBuffers, PlainRelayBuffersReturnWhenTheUpstreamDies) {
  // The origin dies mid-message and every other actor unwinds, holding
  // whatever pool buffers it held: the buffers must all come back. Each
  // case holds `depth` buffers outside the NIC queues when the origin
  // dies. Free-running, the gateway is receiving a paquet (and, at depth
  // 2, sending the one before). With its egress stalled by a brownout,
  // the send actor holds one adopted paquet inside its send (and, at
  // depth 2, the next waits in the transfer's item queue).
  for (const bool sci_first : {false, true}) {
    for (const int depth : {1, 2}) {
      for (const bool stalled : {false, true}) {
        SCOPED_TRACE(std::string(sci_first ? "SciToMyri" : "MyriToSci") +
                     " depth " + std::to_string(depth) +
                     (stalled ? " stalled" : " free-running"));
        VcOptions options;
        options.pipeline_depth = depth;
        PaperRig rig(options);
        const NodeRank src = sci_first ? rig.sci_node() : rig.myri_node();
        const NodeRank dst = sci_first ? rig.myri_node() : rig.sci_node();
        if (stalled) {
          // From 1 ms, once the gateway is sending fragments, every packet
          // on the egress network stalls its sender for a second.
          net::FaultPlan plan;
          plan.degraded.push_back(
              {.from = sim::milliseconds(1),
               .extra_latency = sim::milliseconds(1000)});
          (sci_first ? rig.myri : rig.sci).set_fault_plan(plan);
        }
        const std::vector<std::byte> payload = util::Rng(66).bytes(1 << 20);
        std::uint64_t out_at_death = 0;
        rig.engine.spawn("s", [&] {
          auto msg = rig.ep(src).begin_packing(dst);
          msg.pack(payload);
          if (stalled) {
            rig.engine.sleep_until(sim::milliseconds(20));
          }
          out_at_death = buffers_out(rig);
          throw std::runtime_error("origin died mid-message");
        });
        rig.engine.spawn("r", [&] {
          std::vector<std::byte> out(payload.size());
          auto msg = rig.ep(dst).begin_unpacking();
          msg.unpack(out);
          msg.end_unpacking();
        });
        EXPECT_THROW(rig.engine.run(), std::runtime_error);
        EXPECT_EQ(out_at_death, static_cast<std::uint64_t>(depth));
        EXPECT_EQ(buffers_out(rig), 0u);
      }
    }
  }
}

}  // namespace
}  // namespace mad::fwd
