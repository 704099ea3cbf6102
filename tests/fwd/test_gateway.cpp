// Gateway engine: zero-copy matrix, pipelining, regulation, performance
// shapes from the paper's evaluation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "mad/copy_stats.hpp"
#include "net/fault.hpp"
#include "sim/metrics.hpp"
#include "support/coc_rig.hpp"
#include "util/rng.hpp"

namespace mad::fwd {
namespace {

using testsupport::ChainRig;
using testsupport::PaperRig;

/// One forwarded message of `bytes`; returns the one-way virtual time.
template <typename Rig>
sim::Time forward_once(Rig& rig, NodeRank src, NodeRank dst,
                       std::size_t bytes) {
  util::Rng rng(42);
  const auto payload = rng.bytes(bytes);
  std::vector<std::byte> out(bytes);
  sim::Time done = 0;
  rig.engine.spawn("fwd_s", [&rig, &payload, src, dst] {
    auto msg = rig.ep(src).begin_packing(dst);
    msg.pack(payload);
    msg.end_packing();
  });
  rig.engine.spawn("fwd_r", [&rig, &out, &payload, &done, dst] {
    auto msg = rig.ep(dst).begin_unpacking();
    msg.unpack(out);
    msg.end_unpacking();
    EXPECT_EQ(out, payload);
    done = rig.engine.now();
  });
  rig.engine.run();
  return done;
}

TEST(GatewayZeroCopy, DynamicToDynamicNeedsNoCopies) {
  // Myrinet (dynamic) → SCI (dynamic): the gateway receives into its
  // pipeline buffers and gathers straight out of them — zero software
  // copies anywhere on the path.
  copy_stats().reset();
  PaperRig rig;
  forward_once(rig, rig.myri_node(), rig.sci_node(), 300'000);
  // The only software copies on the whole path are the Safer snapshots of
  // the tiny GTM headers; none of the 300 KB payload is ever copied.
  EXPECT_LT(copy_stats().bytes, 1024u);
}

TEST(GatewayZeroCopy, DynamicToStaticReceivesIntoOutgoingBuffer) {
  // Myrinet (dynamic) → SBP (static tx) at the gateway: paper §2.3 — "ask
  // the outgoing TM for a static buffer which we use to receive data
  // into". Gateway copies = 0; the only payload copies are the final SBP
  // receiver's copy-outs. Headers add a small constant.
  copy_stats().reset();
  testsupport::TwoNetRig rig(net::bip_myrinet(), net::sbp());
  const std::size_t bytes = 64 * 1024;  // 2 SBP paquets (32 KB MTU)
  forward_once(rig, 0, 2, bytes);
  EXPECT_GE(copy_stats().bytes, bytes);        // receiver copy-out
  EXPECT_LT(copy_stats().bytes, bytes + 4096);  // nothing else but headers
}

TEST(GatewayZeroCopy, StaticToDynamicSendsFromIncomingBuffer) {
  // SBP (static) → Myrinet (dynamic) at the gateway: send directly from
  // the incoming protocol buffer. Copies: origin SBP copy-in only.
  copy_stats().reset();
  testsupport::TwoNetRig rig(net::sbp(), net::bip_myrinet());
  const std::size_t bytes = 64 * 1024;
  forward_once(rig, 0, 2, bytes);
  EXPECT_GE(copy_stats().bytes, bytes);        // origin copy-in
  EXPECT_LT(copy_stats().bytes, bytes + 4096);
}

TEST(GatewayZeroCopy, StaticToStaticPaysExactlyOneGatewayCopy) {
  // "an extra copy is unavoidable when both networks require static
  // buffers" (§2.3): origin copy-in + gateway copy + receiver copy-out.
  copy_stats().reset();
  testsupport::TwoNetRig rig(net::sbp(), net::sbp());
  const std::size_t bytes = 64 * 1024;
  forward_once(rig, 0, 2, bytes);
  EXPECT_GE(copy_stats().bytes, 3 * bytes);
  EXPECT_LT(copy_stats().bytes, 3 * bytes + 8192);
}

TEST(GatewayZeroCopy, DisablingZeroCopyAddsGatewayCopies) {
  // Ablation: with zero_copy off, the gateway pays a copy-out of the
  // incoming static buffer AND a copy-in to the outgoing static buffer.
  const std::size_t bytes = 64 * 1024;
  auto copied_bytes = [bytes](bool zero_copy) {
    copy_stats().reset();
    fwd::VcOptions options;
    options.zero_copy = zero_copy;
    testsupport::TwoNetRig rig(net::sbp(), net::sbp(), options);
    forward_once(rig, 0, 2, bytes);
    return copy_stats().bytes;
  };
  const auto with_zc = copied_bytes(true);
  const auto without_zc = copied_bytes(false);
  EXPECT_GE(without_zc, with_zc + bytes);
}

TEST(GatewayPipeline, DepthOneAndTwoDeliverIdentically) {
  util::Rng rng(5);
  const auto payload = rng.bytes(500'000);
  auto run = [&payload](int depth) {
    fwd::VcOptions options;
    options.pipeline_depth = depth;
    options.paquet_size = 16 * 1024;
    PaperRig rig(options);
    std::vector<std::byte> out(payload.size());
    rig.engine.spawn("s", [&] {
      auto msg = rig.ep(rig.myri_node()).begin_packing(rig.sci_node());
      msg.pack(payload);
      msg.end_packing();
    });
    sim::Time done = 0;
    rig.engine.spawn("r", [&] {
      auto msg = rig.ep(rig.sci_node()).begin_unpacking();
      msg.unpack(out);
      msg.end_unpacking();
      done = rig.engine.now();
    });
    rig.engine.run();
    EXPECT_EQ(out, payload) << "depth " << depth;
    return done;
  };
  const sim::Time t1 = run(1);
  const sim::Time t2 = run(2);
  const sim::Time t4 = run(4);
  // Pipelining must help: depth 2 strictly faster than store-and-forward.
  EXPECT_LT(t2, t1);
  // Returns diminish: depth 4 is not dramatically better than 2.
  EXPECT_LE(t4, t2);
}

TEST(GatewayPerformance, SciToMyrinetApproachesPciCeiling) {
  // Fig 6 shape: with large paquets the forwarded bandwidth approaches the
  // ~55-60 MB/s the gateway's PCI bus allows.
  fwd::VcOptions options;
  options.paquet_size = 128 * 1024;
  PaperRig rig(options);
  const std::size_t bytes = 8 * 1024 * 1024;
  const sim::Time t =
      forward_once(rig, rig.sci_node(), rig.myri_node(), bytes);
  const double mbps = sim::bandwidth_mbps(bytes, t);
  EXPECT_GT(mbps, 45.0);
  EXPECT_LT(mbps, 66.0);
}

TEST(GatewayPerformance, MyrinetToSciIsMuchWorse) {
  // Fig 7 shape: the PIO send is the victim of the DMA receive on the
  // gateway bus; bandwidth collapses versus the other direction.
  fwd::VcOptions options;
  options.paquet_size = 128 * 1024;
  const std::size_t bytes = 8 * 1024 * 1024;

  PaperRig rig_fwd(options);
  const sim::Time t_sci_to_myri =
      forward_once(rig_fwd, rig_fwd.sci_node(), rig_fwd.myri_node(), bytes);

  PaperRig rig_bwd(options);
  const sim::Time t_myri_to_sci =
      forward_once(rig_bwd, rig_bwd.myri_node(), rig_bwd.sci_node(), bytes);

  const double fwd_mbps = sim::bandwidth_mbps(bytes, t_sci_to_myri);
  const double bwd_mbps = sim::bandwidth_mbps(bytes, t_myri_to_sci);
  EXPECT_LT(bwd_mbps, fwd_mbps * 0.85);
  EXPECT_LT(bwd_mbps, 45.0);
}

TEST(GatewayPerformance, SmallPaquetsUnderperformLargeOnes) {
  // Fig 6: the 8 KB curve saturates well below the 128 KB curve.
  const std::size_t bytes = 4 * 1024 * 1024;
  auto bandwidth = [bytes](std::uint32_t paquet) {
    fwd::VcOptions options;
    options.paquet_size = paquet;
    PaperRig rig(options);
    const sim::Time t =
        forward_once(rig, rig.sci_node(), rig.myri_node(), bytes);
    return sim::bandwidth_mbps(bytes, t);
  };
  const double small = bandwidth(8 * 1024);
  const double large = bandwidth(128 * 1024);
  EXPECT_LT(small, large * 0.85);
}

TEST(GatewayRegulation, PacingCapsIncomingFlow) {
  // Paper §4 future work: a bandwidth-control mechanism regulating the
  // incoming flow on gateways. The pacer must enforce its rate cap and
  // degrade gracefully (the bench sweeps rates; see EXPERIMENTS.md for the
  // finding that under the fluid bus model pacing only caps throughput).
  const std::size_t bytes = 4 * 1024 * 1024;
  auto run = [bytes](double rate) {
    fwd::VcOptions options;
    options.paquet_size = 32 * 1024;
    options.regulation_rate = rate;
    PaperRig rig(options);
    const sim::Time t =
        forward_once(rig, rig.myri_node(), rig.sci_node(), bytes);
    return sim::bandwidth_mbps(bytes, t);
  };
  const double unregulated = run(0.0);
  const double capped_20 = run(20e6);
  const double capped_35 = run(35e6);
  EXPECT_LT(capped_20, 20.5);
  EXPECT_GT(capped_20, 15.0);
  EXPECT_LT(capped_20, capped_35);
  EXPECT_LE(capped_35, unregulated + 0.5);
}

TEST(GatewayExtension, SciDmaSendWorkaroundHelpsMyrinetToSci) {
  // §3.4.1: "we are currently investigating ... using the SCI DMA engine
  // instead of PIO operations to send buffers over SCI". With DMA sends
  // the outgoing flow is no longer the arbitration victim and the
  // Myrinet→SCI direction recovers most of the lost bandwidth.
  const std::size_t bytes = 4 * 1024 * 1024;
  fwd::VcOptions options;
  options.paquet_size = 32 * 1024;

  testsupport::TwoNetRig pio_rig(net::bip_myrinet(), net::sisci_sci(),
                                 options);
  const double pio_mbps = sim::bandwidth_mbps(
      bytes, forward_once(pio_rig, 0, 2, bytes));

  net::NicModelParams sci_dma = net::sisci_sci();
  sci_dma.tx_op = net::PciOp::Dma;
  testsupport::TwoNetRig dma_rig(net::bip_myrinet(), sci_dma, options);
  const double dma_mbps = sim::bandwidth_mbps(
      bytes, forward_once(dma_rig, 0, 2, bytes));

  EXPECT_GT(dma_mbps, pio_mbps * 1.1);
}

TEST(GatewayTrace, RecordsRecvSendSwitchIntervals) {
  sim::TraceSink trace;
  trace.enable();
  fwd::VcOptions options;
  options.paquet_size = 32 * 1024;
  options.trace = &trace;
  PaperRig rig(options);
  forward_once(rig, rig.myri_node(), rig.sci_node(), 256 * 1024);
  EXPECT_EQ(trace.by_name("gw.recv").size(), 8u);   // 256K / 32K
  EXPECT_EQ(trace.by_name("gw.send").size(), 8u);
  EXPECT_EQ(trace.by_name("gw.switch").size(), 8u);
  for (const auto& span : trace.by_name("gw.switch")) {
    EXPECT_EQ(span.kind, sim::TraceEventKind::Span);
    EXPECT_EQ(span.duration(), sim::microseconds(40));
  }
}

TEST(GatewayConcurrency, TwoSimultaneousStreamsThroughOneGateway) {
  // Two Myrinet nodes stream to two SCI nodes at once; the shared gateway
  // must keep the messages apart and deliver both intact.
  PaperRig rig({}, /*myri_endpoints=*/2, /*sci_endpoints=*/2);
  util::Rng rng(21);
  const auto p0 = rng.bytes(200'000);
  const auto p1 = rng.bytes(150'000);
  int delivered = 0;
  rig.engine.spawn("s0", [&] {
    auto msg = rig.ep(rig.myri_node(0)).begin_packing(rig.sci_node(0));
    msg.pack(p0);
    msg.end_packing();
  });
  rig.engine.spawn("s1", [&] {
    auto msg = rig.ep(rig.myri_node(1)).begin_packing(rig.sci_node(1));
    msg.pack(p1);
    msg.end_packing();
  });
  rig.engine.spawn("r0", [&] {
    auto msg = rig.ep(rig.sci_node(0)).begin_unpacking();
    std::vector<std::byte> out(p0.size());
    msg.unpack(out);
    msg.end_unpacking();
    EXPECT_EQ(out, p0);
    ++delivered;
  });
  rig.engine.spawn("r1", [&] {
    auto msg = rig.ep(rig.sci_node(1)).begin_unpacking();
    std::vector<std::byte> out(p1.size());
    msg.unpack(out);
    msg.end_unpacking();
    EXPECT_EQ(out, p1);
    ++delivered;
  });
  rig.engine.run();
  EXPECT_EQ(delivered, 2);
}

// ---- Relay matrix -------------------------------------------------------
//
// Every message crosses the gateway on one path, its listener handing it to
// a send actor; the options set the pipeline budget (unreliable, depth 1
// or 3), the reliable window (1 or 8; both cut through) and flow mode.
// Every row relays the same three-block message over the same route. The
// bytes and the gateway counters must not depend on the row, and each
// row's one-way virtual time is pinned: the simulator is deterministic, so
// any change in the relay's event order shows up here as a moved number.
// No reliable row is charged virtual copy time for a payload byte: the
// gateway keeps each paquet in the buffer it arrived in, and the final
// receiver's NIC places each in-order paquet in user memory.

struct RelayRow {
  const char* name;
  int pipeline_depth;
  bool reliable;
  int window;
  bool flow;
};

constexpr std::array<RelayRow, 6> kRelayRows{{
    {"unreliable_depth1", 1, false, 1, false},
    {"unreliable_depth3", 3, false, 1, false},
    {"reliable_window1", 2, true, 1, false},
    {"reliable_window1_flow", 2, true, 1, true},
    {"reliable_window8", 2, true, 8, false},
    {"reliable_window8_flow", 2, true, 8, true},
}};

enum class RelayTopo { SciToMyri, MyriToSci, TwoGatewayChain };

struct RelayCase {
  const char* name;
  RelayTopo topo;
  bool rdma;
  /// One-way virtual time per row of kRelayRows, in ns.
  std::array<sim::Time, kRelayRows.size()> expected_ns;
};

void PrintTo(const RelayCase& c, std::ostream* os) { *os << c.name; }

struct RelayResult {
  sim::Time one_way = 0;
  GatewayStats totals;
};

// A sub-MTU block, a two-paquet block below the rendezvous threshold and a
// five-paquet block above it. The paquet counts are the same at the
// unreliable MTU and at the reliable one (MTU minus the paquet trailer).
constexpr std::array<std::size_t, 3> kRelayBlocks{1000, 24'000, 72'000};

template <typename World>
RelayResult relay_once(World& world, NodeRank src, NodeRank dst,
                       const std::vector<NodeRank>& gateways) {
  util::Rng rng(7);
  std::vector<std::vector<std::byte>> sent;
  for (const std::size_t size : kRelayBlocks) {
    sent.push_back(rng.bytes(size));
  }
  std::vector<std::vector<std::byte>> got;
  for (const std::size_t size : kRelayBlocks) {
    got.emplace_back(size);
  }
  RelayResult result;
  world.engine.spawn("matrix_s", [&] {
    auto msg = world.ep(src).begin_packing(dst);
    for (const auto& block : sent) {
      msg.pack(block);
    }
    msg.end_packing();
  });
  world.engine.spawn("matrix_r", [&] {
    auto msg = world.ep(dst).begin_unpacking();
    for (auto& block : got) {
      msg.unpack(block);
    }
    msg.end_unpacking();
    result.one_way = world.engine.now();
    // A reliable relay counts its message once the last hop has acked the
    // end marker, after the receiver returns; stay up until it has.
    world.engine.sleep_for(sim::milliseconds(50));
  });
  world.engine.run();
  EXPECT_EQ(got, sent);
  for (const NodeRank gw : gateways) {
    const GatewayStats& stats = world.vc->gateway_stats(gw);
    result.totals.messages_forwarded += stats.messages_forwarded;
    result.totals.paquets_forwarded += stats.paquets_forwarded;
    result.totals.bytes_forwarded += stats.bytes_forwarded;
  }
  return result;
}

RelayResult relay_case(const RelayCase& c, const RelayRow& row) {
  VcOptions options;
  options.paquet_size = 16 * 1024;
  options.pipeline_depth = row.pipeline_depth;
  options.reliable.enabled = row.reliable;
  options.reliable.window = row.window;
  options.flow.enabled = row.flow;
  options.rdma.enabled = c.rdma;
  if (c.topo == RelayTopo::TwoGatewayChain) {
    const auto config = topo::parse_topo_config(R"(
network myri0 BIP/Myrinet
network sbp0  SBP
network sci0  SISCI/SCI
node m0  myri0
node gw1 myri0 sbp0
node gw2 sbp0 sci0
node s0  sci0
)");
    harness::ConfigWorld world(config, options);
    return relay_once(world, world.rank_of("m0"), world.rank_of("s0"),
                      {world.rank_of("gw1"), world.rank_of("gw2")});
  }
  harness::PaperWorld world(options);
  const bool sci_first = c.topo == RelayTopo::SciToMyri;
  return relay_once(world, sci_first ? world.sci_node() : world.myri_node(),
                    sci_first ? world.myri_node() : world.sci_node(),
                    {world.gateway_rank});
}

class GatewayRelayMatrix : public ::testing::TestWithParam<RelayCase> {};

TEST_P(GatewayRelayMatrix, EveryStartPolicyRelaysIdentically) {
  const RelayCase& c = GetParam();
  const std::size_t gateways = c.topo == RelayTopo::TwoGatewayChain ? 2 : 1;
  std::size_t total = 0;
  for (const std::size_t size : kRelayBlocks) {
    total += size;
  }
  std::optional<GatewayStats> first;
  for (std::size_t r = 0; r < kRelayRows.size(); ++r) {
    const RelayRow& row = kRelayRows[r];
    SCOPED_TRACE(row.name);
    const RelayResult result = relay_case(c, row);
    EXPECT_EQ(result.totals.messages_forwarded, gateways);
    EXPECT_EQ(result.totals.bytes_forwarded, gateways * total);
    if (!first) {
      first = result.totals;
    }
    EXPECT_EQ(result.totals.messages_forwarded, first->messages_forwarded);
    EXPECT_EQ(result.totals.paquets_forwarded, first->paquets_forwarded);
    EXPECT_EQ(result.totals.bytes_forwarded, first->bytes_forwarded);
    EXPECT_EQ(result.one_way, c.expected_ns[r]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GatewayRelayMatrix,
    ::testing::Values(
        RelayCase{"SciToMyri", RelayTopo::SciToMyri, false,
                  {3411415, 2270989, 2368874, 2368874, 2273994, 2273994}},
        RelayCase{"SciToMyriRdma", RelayTopo::SciToMyri, true,
                  {3457415, 2276853, 2417048, 2417048, 2300334, 2300334}},
        RelayCase{"MyriToSci", RelayTopo::MyriToSci, false,
                  {3561583, 2722616, 2816554, 2816554, 2722036, 2722036}},
        RelayCase{"MyriToSciRdma", RelayTopo::MyriToSci, true,
                  {3498360, 2516266, 2571203, 2571203, 2535416, 2535416}},
        RelayCase{"Chain", RelayTopo::TwoGatewayChain, false,
                  {3840213, 3046700, 4378116, 4378116, 3602533, 3602533}},
        RelayCase{"ChainRdma", RelayTopo::TwoGatewayChain, true,
                  {3776990, 2802784, 4379080, 4379080, 3669621, 3669621}}),
    [](const ::testing::TestParamInfo<RelayCase>& info) {
      return std::string(info.param.name);
    });

// ---- Origin egress matrix -----------------------------------------------
//
// The origin side of the relay matrix: the same three-block message leaves
// its origin directly, through a gateway as plain GTM, through a gateway
// under a reliable window of 1 and of 8, and striped over two
// node-disjoint gateways, plain and reliable. Each row runs with the
// one-sided egress off and on (the origin itself always sends two-sided;
// only the gateways cut RDMA blocks). One-way times and gateway totals are
// pinned, so a change in how an origin opens, feeds or closes its hop
// shows up as a moved number.

enum class OriginPath { Direct, Plain, Reliable, Striped };

struct OriginRow {
  const char* name;
  OriginPath path;
  bool reliable;
  int window;
};

constexpr std::array<OriginRow, 6> kOriginRows{{
    {"direct", OriginPath::Direct, false, 1},
    {"plain", OriginPath::Plain, false, 1},
    {"reliable_window1", OriginPath::Reliable, true, 1},
    {"reliable_window8", OriginPath::Reliable, true, 8},
    {"striped_plain", OriginPath::Striped, false, 1},
    {"striped_reliable", OriginPath::Striped, true, 8},
}};

/// m0 reaches m1 directly and s0 over two node-disjoint gateways (gw1 on
/// myri0, gw2 on myri1).
constexpr const char* kDisjointConfig = R"(
network myri0 BIP/Myrinet
network myri1 BIP/Myrinet
network sci0  SISCI/SCI
node m0  myri0 myri1
node m1  myri0
node gw1 myri0 sci0
node gw2 myri1 sci0
node s0  sci0
)";

struct OriginPin {
  sim::Time one_way_ns;
  std::uint64_t messages_forwarded;
  std::uint64_t paquets_forwarded;
  std::uint64_t bytes_forwarded;
};

struct OriginCase {
  const char* name;
  bool rdma;
  std::array<OriginPin, kOriginRows.size()> expected;
};

void PrintTo(const OriginCase& c, std::ostream* os) { *os << c.name; }

RelayResult origin_case(const OriginCase& c, const OriginRow& row) {
  VcOptions options;
  options.paquet_size = 16 * 1024;
  options.reliable.enabled = row.reliable;
  options.reliable.window = row.window;
  options.max_rails = row.path == OriginPath::Striped ? 2 : 1;
  options.rdma.enabled = c.rdma;
  harness::ConfigWorld world(topo::parse_topo_config(kDisjointConfig),
                             options);
  // The pinned totals tell the paths apart: no message crosses a gateway
  // on the direct path, one on a single-rail path, one per rail striped.
  return relay_once(world, world.rank_of("m0"),
                    world.rank_of(row.path == OriginPath::Direct ? "m1"
                                                                 : "s0"),
                    {world.rank_of("gw1"), world.rank_of("gw2")});
}

class OriginEgressMatrix : public ::testing::TestWithParam<OriginCase> {};

TEST_P(OriginEgressMatrix, EveryOriginPathIsPinned) {
  const OriginCase& c = GetParam();
  for (std::size_t r = 0; r < kOriginRows.size(); ++r) {
    const OriginRow& row = kOriginRows[r];
    SCOPED_TRACE(row.name);
    const RelayResult result = origin_case(c, row);
    const OriginPin& pin = c.expected[r];
    EXPECT_EQ(result.one_way, pin.one_way_ns);
    EXPECT_EQ(result.totals.messages_forwarded, pin.messages_forwarded);
    EXPECT_EQ(result.totals.paquets_forwarded, pin.paquets_forwarded);
    EXPECT_EQ(result.totals.bytes_forwarded, pin.bytes_forwarded);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, OriginEgressMatrix,
    ::testing::Values(
        OriginCase{"TwoSided", false,
                   {{{1516021, 0, 0, 0},
                     {2756088, 1, 8, 97000},
                     {2825676, 1, 8, 97000},
                     {2731158, 1, 8, 97000},
                     {1907978, 2, 8, 97000},
                     {2024357, 2, 8, 97000}}}},
        OriginCase{"Rdma", true,
                   {{{1516021, 0, 0, 0},
                     {2464960, 1, 8, 97000},
                     {2580325, 1, 8, 97000},
                     {2544538, 1, 8, 97000},
                     {1907978, 2, 8, 97000},
                     {2024357, 2, 8, 97000}}}}),
    [](const ::testing::TestParamInfo<OriginCase>& info) {
      return std::string(info.param.name);
    });

// ---- Recovery pins ------------------------------------------------------
//
// Every way a sender recovers from a failed hop, each in one scenario with
// its one-way time and its recovery counters pinned: an origin failing over
// around a crashed gateway, a striped rail repairing around one, a second
// origin rerouting proactively at a block boundary because the first
// origin's failover already condemned its next hop, and a gateway backing
// off after the NEXT gateway's admission gate refused its message.

/// One sender's traffic: `messages` messages of `blocks`, starting at
/// `start`. With `resume_at` set the sender pauses after each message's
/// first block until that virtual time.
struct Send {
  const char* src;
  const char* dst;
  int messages = 1;
  std::vector<std::size_t> blocks;
  sim::Time start = 0;
  sim::Time resume_at = 0;
  SendMode mode = SendMode::Safer;
  /// Overwrites each Safer block as soon as pack() returns, which Safer
  /// allows.
  bool scribble = false;
};

/// Crashes `node`'s NICs on every network at `at`.
void crash_node(harness::ConfigWorld& world, const char* node, sim::Time at) {
  const NodeRank rank = world.rank_of(node);
  for (net::Network* network : world.networks) {
    if (!world.domain->has_nic(rank, *network)) {
      continue;
    }
    net::FaultPlan plan;
    plan.crashes.push_back(
        {static_cast<int>(world.domain->nic_of(rank, *network).index()), at});
    network->set_fault_plan(plan);
  }
}

/// Runs every send to completion, checking each message's bytes; returns
/// the virtual time the last message was unpacked.
sim::Time run_sends(harness::ConfigWorld& world,
                    const std::vector<Send>& sends) {
  sim::Time last = 0;
  for (std::size_t i = 0; i < sends.size(); ++i) {
    const Send& send = sends[i];
    const NodeRank src = world.rank_of(send.src);
    const NodeRank dst = world.rank_of(send.dst);
    world.engine.spawn("tx" + std::to_string(i), [&world, &send, i, src,
                                                  dst] {
      world.engine.sleep_until(send.start);
      for (int m = 0; m < send.messages; ++m) {
        util::Rng rng(100 * i + static_cast<std::size_t>(m));
        auto msg = world.ep(src).begin_packing(dst);
        // Cheaper blocks stay unchanged until end_packing().
        std::vector<std::vector<std::byte>> kept;
        for (std::size_t b = 0; b < send.blocks.size(); ++b) {
          std::vector<std::byte> bytes = rng.bytes(send.blocks[b]);
          msg.pack(bytes, send.mode);
          if (send.mode == SendMode::Cheaper) {
            kept.push_back(std::move(bytes));
          } else if (send.scribble) {
            std::fill(bytes.begin(), bytes.end(), std::byte{0xEE});
          }
          if (b == 0 && send.resume_at > 0) {
            world.engine.sleep_until(send.resume_at);
          }
        }
        msg.end_packing();
      }
    });
    world.engine.spawn("rx" + std::to_string(i), [&world, &send, &last, i,
                                                  dst] {
      for (int m = 0; m < send.messages; ++m) {
        util::Rng rng(100 * i + static_cast<std::size_t>(m));
        auto msg = world.ep(dst).begin_unpacking();
        for (const std::size_t size : send.blocks) {
          std::vector<std::byte> got(size);
          msg.unpack(got, send.mode);
          EXPECT_EQ(got, rng.bytes(size)) << "send " << i << " message " << m;
        }
        msg.end_unpacking();
      }
      last = std::max(last, world.engine.now());
    });
  }
  world.engine.run();
  return last;
}

std::uint64_t counter_total(const sim::MetricsRegistry& metrics,
                            const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& [key, counter] : metrics.counters()) {
    if (key.first == name) {
      total += counter.value;
    }
  }
  return total;
}

enum class Recovery { OriginFailover, OriginFailoverSafer,
                      OriginFailoverCheaper, StripeRepair,
                      StripeRepairBeforeRailZero, ProactiveReroute,
                      GatewayReject };

struct RecoveryCase {
  const char* name;
  Recovery scenario;
  sim::Time one_way_ns;
  std::uint64_t dead_peers;
  std::uint64_t failovers;
  std::uint64_t reroutes;
  std::uint64_t stripe_repairs;
  std::uint64_t reject_retries;
};

void PrintTo(const RecoveryCase& c, std::ostream* os) { *os << c.name; }

/// Two gateways bridge myri0 and sci0; m0/m1 and s0/s1 are end nodes.
constexpr const char* kDualConfig = R"(
network myri0 BIP/Myrinet
network sci0  SISCI/SCI
node m0  myri0
node m1  myri0
node gw1 myri0 sci0
node gw2 myri0 sci0
node s0  sci0
node s1  sci0
)";

/// m0 -myri- gw1 -sbp- gw2 -eth- e0, plus x0 on sbp: x0's traffic meets
/// m0's at gw2 only.
constexpr const char* kRejectChainConfig = R"(
network myri0 BIP/Myrinet
network sbp0  SBP
network eth0  TCP/FEth
node m0  myri0
node gw1 myri0 sbp0
node x0  sbp0
node gw2 sbp0 eth0
node e0  eth0
node e1  eth0
)";

class EgressRecoveryMatrix : public ::testing::TestWithParam<RecoveryCase> {};

TEST_P(EgressRecoveryMatrix, EveryRecoveryPathIsPinned) {
  const RecoveryCase& c = GetParam();
  VcOptions options;
  options.paquet_size = 16 * 1024;
  options.reliable.enabled = true;
  options.reliable.window = 4;
  const char* config = kDualConfig;
  std::vector<Send> sends;
  switch (c.scenario) {
    case Recovery::OriginFailover:
      sends.push_back({"m0", "s0", 1, {512 * 1024}});
      break;
    case Recovery::OriginFailoverSafer:
    case Recovery::OriginFailoverCheaper: {
      // m0 starts after gw1 crashed. Its first block fits the window, so
      // pack() returns before any ack is due; the second exhausts gw1's
      // retry budget and the failover replays the first from what the
      // origin kept: a snapshot of the Safer buffer, which the test has
      // scribbled over by then, or the Cheaper buffer itself.
      Send send{"m0", "s0", 1, {32 * 1024, 480 * 1024}, sim::milliseconds(5)};
      if (c.scenario == Recovery::OriginFailoverSafer) {
        send.scribble = true;
      } else {
        send.mode = SendMode::Cheaper;
      }
      sends.push_back(send);
      break;
    }
    case Recovery::StripeRepair:
    case Recovery::StripeRepairBeforeRailZero:
      config = kDisjointConfig;
      options.max_rails = 2;
      sends.push_back({"m0", "s0", 1, {512 * 1024}});
      break;
    case Recovery::ProactiveReroute:
      // m1 opens its message toward gw1 after the crash but long before
      // m0's retry budget condemns gw1; it pauses after its first block
      // and finds the next hop dead when it resumes.
      sends.push_back({"m0", "s0", 1, {512 * 1024}});
      sends.push_back({"m1", "s1", 1, {32 * 1024, 32 * 1024},
                       sim::milliseconds(5), sim::seconds(1)});
      break;
    case Recovery::GatewayReject:
      // x0's messages hold gw2's one-message bulk budget, so gw2 refuses
      // what gw1 relays for m0. A reliable relay keeps every block it
      // received, so every refusal is retried from the stored copy.
      config = kRejectChainConfig;
      options.reliable.window = 1;
      options.reliable.ack_timeout = sim::milliseconds(120);
      options.reliable.max_attempts = 10;
      options.flow.enabled = true;
      options.flow.admission.enabled = true;
      options.flow.admission.message_budget[traffic_class_index(
          TrafficClass::Bulk)] = 1;
      sends.push_back({"x0", "e1", 3, {256 * 1024}});
      sends.push_back({"m0", "e0", 3, {256 * 1024}, sim::microseconds(10)});
      break;
  }
  harness::ConfigWorld world(topo::parse_topo_config(config), options);
  world.fabric->metrics().enable();
  if (c.scenario == Recovery::StripeRepairBeforeRailZero) {
    // gw1 is down before rail 0's first paquet crosses it, so rail 1
    // reaches s0 first and waits there unclaimed.
    crash_node(world, "gw1", 0);
  } else if (c.scenario != Recovery::GatewayReject) {
    crash_node(world, "gw1", sim::milliseconds(4));
  }
  const sim::Time one_way = run_sends(world, sends);
  const sim::MetricsRegistry& metrics = world.fabric->metrics();
  EXPECT_EQ(one_way, c.one_way_ns);
  EXPECT_EQ(counter_total(metrics, "rel.dead_peers"), c.dead_peers);
  EXPECT_EQ(counter_total(metrics, "rel.failovers"), c.failovers);
  EXPECT_EQ(counter_total(metrics, "health.reroutes"), c.reroutes);
  EXPECT_EQ(counter_total(metrics, "stripe.repairs"), c.stripe_repairs);
  EXPECT_EQ(counter_total(metrics, "flow.reject_retries"), c.reject_retries);
  if (c.scenario == Recovery::StripeRepair ||
      c.scenario == Recovery::StripeRepairBeforeRailZero) {
    // s0 holds rail 1 while it does not read it: unclaimed until the
    // repaired rail 0 arrives, or claimed but idle until the app unpacks
    // on. gw2 spends no retry budget meanwhile.
    const NodeRank gw2 = world.rank_of("gw2");
    EXPECT_EQ(world.vc->gateway_stats(gw2).reliability.timeouts, 0u);
  }
  if (c.scenario == Recovery::GatewayReject) {
    // The refusal happened gateway to gateway: gw2 rejected, gw1 (not an
    // origin) saw the reject and backed off.
    const NodeRank gw1 = world.rank_of("gw1");
    const NodeRank gw2 = world.rank_of("gw2");
    EXPECT_EQ(world.vc->gateway_stats(gw2).admission_rejects, 6u);
    EXPECT_EQ(world.vc->gateway_stats(gw1).reliability.flow_rejects, 6u);
    EXPECT_EQ(world.vc->gateway_stats(gw1).admission_rejects, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EgressRecoveryMatrix,
    ::testing::Values(
        RecoveryCase{"OriginFailover", Recovery::OriginFailover, 601229107,
                     1, 1, 0, 0, 0},
        RecoveryCase{"OriginFailoverSafer", Recovery::OriginFailoverSafer,
                     601291130, 1, 1, 0, 0, 0},
        RecoveryCase{"OriginFailoverCheaper", Recovery::OriginFailoverCheaper,
                     601291130, 1, 1, 0, 0, 0},
        RecoveryCase{"StripeRepair", Recovery::StripeRepair, 594558784, 1,
                     1, 0, 1, 0},
        RecoveryCase{"StripeRepairBeforeRailZero",
                     Recovery::StripeRepairBeforeRailZero, 595000927, 1, 1, 0,
                     1, 0},
        RecoveryCase{"ProactiveReroute", Recovery::ProactiveReroute,
                     1001895478, 1, 1, 1, 0, 0},
        RecoveryCase{"GatewayReject", Recovery::GatewayReject, 253177673, 0,
                     0, 0, 0, 6}),
    [](const ::testing::TestParamInfo<RecoveryCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace mad::fwd
