// Multi-rail striping (fwd/stripe.hpp): credit windows, the deterministic
// chunk schedule, rail planning over disjoint routes, and end-to-end striped
// transfers — plain, reliable-lossy, and reliable with a gateway crash
// mid-stripe (the repair rail).
#include "fwd/stripe.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fwd/regulation.hpp"
#include "fwd/virtual_channel.hpp"
#include "net/fault.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "support/coc_rig.hpp"
#include "util/panic.hpp"
#include "util/rng.hpp"

namespace mad {
namespace {

using testsupport::DisjointRailRig;
using testsupport::PaperRig;

TEST(CreditWindow, BlocksWhenExhaustedAndWakesOnRelease) {
  sim::Engine engine;
  fwd::CreditWindow window(engine, 2, "win");
  std::vector<int> order;
  engine.spawn("producer", [&] {
    window.acquire();
    window.acquire();
    order.push_back(1);
    window.acquire();  // blocks until the consumer frees a credit
    order.push_back(3);
  });
  engine.spawn("consumer", [&] {
    engine.sleep_for(sim::microseconds(10));
    order.push_back(2);
    window.release();
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(window.total(), 2u);
  EXPECT_EQ(window.in_flight(), 2u);  // 3 acquired, 1 released
}

TEST(StripeSchedule, WeightedRoundRobinPersistsAcrossBlocks) {
  fwd::StripeSchedule schedule({2, 1});
  const std::uint32_t mtu = 4;
  std::uint64_t remaining = 20;
  std::vector<std::pair<std::size_t, std::uint64_t>> chunks;
  while (remaining > 0) {
    const auto c = schedule.next(remaining, mtu);
    chunks.push_back({c.rail, c.bytes});
    remaining -= c.bytes;
  }
  // Rail 0 owns two consecutive paquets per round, rail 1 one.
  EXPECT_EQ(chunks, (std::vector<std::pair<std::size_t, std::uint64_t>>{
                        {0, 8}, {1, 4}, {0, 8}}));
  // The 20-byte block ended exactly on rail 0's share boundary, so the
  // next block starts at rail 1 — state persists across blocks, and an
  // empty block charges the current rail without consuming share.
  const auto empty = schedule.next(0, mtu);
  EXPECT_EQ(empty.rail, 1u);
  EXPECT_EQ(empty.bytes, 0u);
  const auto next = schedule.next(4, mtu);
  EXPECT_EQ(next.rail, 1u);
  EXPECT_EQ(next.bytes, 4u);
  // A short tail takes only what is left, not a full paquet.
  EXPECT_EQ(schedule.next(2, mtu).bytes, 2u);
}

TEST(Stripe, PlanRailsFindsDisjointGateways) {
  fwd::VcOptions options;
  options.max_rails = 2;
  DisjointRailRig rig(options);
  const auto plans = fwd::plan_rails(*rig.vc, 0, 3, 2);
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_EQ(plans[0].route[0].node, 1);  // primary via gw1
  EXPECT_EQ(plans[1].route[0].node, 2);  // second rail via gw2
  EXPECT_GE(plans[0].share, 1u);
  EXPECT_GE(plans[1].share, 1u);
}

TEST(Stripe, SingleGatewayTopologyFallsBackToOneRail) {
  // Only one route exists on the paper testbed: the writer must not stripe
  // and the transfer must behave exactly as before.
  fwd::VcOptions options;
  options.max_rails = 2;
  PaperRig rig(options);
  util::Rng rng(11);
  const auto payload = rng.bytes(64 * 1024);
  std::vector<std::byte> out(payload.size());
  rig.engine.spawn("s", [&] {
    auto msg = rig.ep(rig.myri_node()).begin_packing(rig.sci_node());
    EXPECT_FALSE(msg.striped());
    msg.pack(payload);
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.ep(rig.sci_node()).begin_unpacking();
    EXPECT_FALSE(msg.striped());
    msg.unpack(out);
    msg.end_unpacking();
  });
  rig.engine.run();
  EXPECT_EQ(out, payload);
}

TEST(Stripe, ForwardedTransferStripesAcrossDisjointGateways) {
  fwd::VcOptions options;
  options.max_rails = 2;
  DisjointRailRig rig(options);
  rig.fabric.metrics().enable();
  util::Rng rng(7);
  const auto big = rng.bytes(256 * 1024);
  const auto small = rng.bytes(37);
  std::vector<std::byte> big_out(big.size());
  std::vector<std::byte> small_out(small.size());
  std::size_t rx_rails = 0;
  std::uint64_t rail_paquets[2] = {0, 0};
  rig.engine.spawn("s", [&] {
    auto msg = rig.ep(0).begin_packing(3);
    EXPECT_TRUE(msg.striped());
    msg.pack(big);
    msg.pack({});  // empty blocks ride the schedule too
    msg.pack(small, SendMode::Safer);
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.ep(3).begin_unpacking();
    EXPECT_TRUE(msg.striped());
    EXPECT_EQ(msg.source(), 0);
    msg.unpack(big_out);
    msg.unpack(util::MutByteSpan{});
    msg.unpack(small_out, SendMode::Safer);
    const fwd::Reassembler& ra = msg.reassembler();
    rx_rails = ra.rails();
    rail_paquets[0] = ra.rail_paquets(0);
    rail_paquets[1] = ra.rail_paquets(1);
    msg.end_unpacking();
  });
  rig.engine.run();
  EXPECT_EQ(big_out, big);
  EXPECT_EQ(small_out, small);
  EXPECT_EQ(rx_rails, 2u);
  EXPECT_GT(rail_paquets[0], 0u) << "rail 0 carried nothing";
  EXPECT_GT(rail_paquets[1], 0u) << "rail 1 carried nothing";
  // Both gateways forwarded one rail each.
  EXPECT_EQ(rig.vc->gateway_stats(1).messages_forwarded, 1u);
  EXPECT_EQ(rig.vc->gateway_stats(2).messages_forwarded, 1u);
  // Per-rail counters land in the metrics registry with rail labels.
  sim::MetricsRegistry& metrics = rig.fabric.metrics();
  EXPECT_EQ(metrics.counter("stripe.tx_paquets", "node=0,rail=0").value,
            rail_paquets[0]);
  EXPECT_EQ(metrics.counter("stripe.tx_paquets", "node=0,rail=1").value,
            rail_paquets[1]);
  EXPECT_EQ(metrics.counter("stripe.rx_paquets", "node=3,rail=0").value,
            rail_paquets[0]);
  EXPECT_EQ(metrics.counter("stripe.rx_paquets", "node=3,rail=1").value,
            rail_paquets[1]);
}

TEST(Stripe, RailWeightsSkewTheSplit) {
  fwd::VcOptions options;
  options.paquet_size = 16 * 1024;  // 256 KiB payload = 16 paquets
  options.max_rails = 2;
  options.rail_weights = {3, 1};
  DisjointRailRig rig(options);
  util::Rng rng(13);
  const auto payload = rng.bytes(256 * 1024);
  std::vector<std::byte> out(payload.size());
  std::uint64_t rail_paquets[2] = {0, 0};
  rig.engine.spawn("s", [&] {
    auto msg = rig.ep(0).begin_packing(3);
    msg.pack(payload);
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.ep(3).begin_unpacking();
    msg.unpack(out);
    rail_paquets[0] = msg.reassembler().rail_paquets(0);
    rail_paquets[1] = msg.reassembler().rail_paquets(1);
    msg.end_unpacking();
  });
  rig.engine.run();
  EXPECT_EQ(out, payload);
  // 3:1 weighting: rail 0 carries three paquets for each one on rail 1.
  EXPECT_EQ(rail_paquets[0], 3 * rail_paquets[1]);
}

TEST(Stripe, ReliableStripedTransferSurvivesPaquetLoss) {
  fwd::VcOptions options;
  options.paquet_size = 16 * 1024;
  options.reliable.enabled = true;
  options.max_rails = 2;
  DisjointRailRig rig(options);
  net::FaultPlan plan;
  plan.seed = 5;
  plan.drop_rate = 0.05;
  rig.sci.set_fault_plan(plan);  // both rails cross the lossy SCI segment
  util::Rng rng(17);
  const std::size_t bytes = 1 << 20;
  const auto payload = rng.bytes(bytes);
  std::vector<std::byte> out(bytes);
  rig.engine.spawn("s", [&] {
    auto msg = rig.ep(0).begin_packing(3);
    EXPECT_TRUE(msg.striped());
    msg.pack(payload);
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.ep(3).begin_unpacking();
    msg.unpack(out);
    msg.end_unpacking();
  });
  rig.engine.run();
  EXPECT_EQ(out, payload);
  EXPECT_GT(rig.sci.fault_injector()->stats().dropped, 0u)
      << "plan never dropped anything: the test proves nothing";
  const std::uint64_t retransmits =
      rig.vc->gateway_stats(1).reliability.retransmits +
      rig.vc->gateway_stats(2).reliability.retransmits;
  EXPECT_GT(retransmits, 0u);
}

/// The acceptance fault scenario: paquet loss on the SCI segment AND the
/// gateway of one rail (gw1 = node 1 carries rail 0, gw2 = node 2 rail 1)
/// crashing mid-stripe, after it relayed part of its rail. That rail's
/// sender actor must declare the gateway dead and replay its chunks via the
/// other gateway (the repair rail) while the other rail streams on. The
/// message goes in 32 KB blocks, so the receiver adopts the repaired rail
/// and skips the chunks it consumed across its earlier unpack calls: it
/// sees every byte exactly once.
void crash_mid_stripe(NodeRank gateway) {
  fwd::VcOptions options;
  options.paquet_size = 16 * 1024;
  options.reliable.enabled = true;
  options.max_rails = 2;
  DisjointRailRig rig(options);
  rig.fabric.metrics().enable();
  const int rail = gateway - 1;
  net::FaultPlan sci_plan;
  sci_plan.seed = 29;
  sci_plan.drop_rate = 0.02;
  const sim::Time crash_at = sim::milliseconds(4);
  sci_plan.crashes.push_back({/*nic_index=*/rail, crash_at});
  rig.sci.set_fault_plan(sci_plan);
  net::FaultPlan myri_plan;
  myri_plan.crashes.push_back({/*nic_index=*/1, crash_at});
  (gateway == 1 ? rig.myri_a : rig.myri_b).set_fault_plan(myri_plan);
  util::Rng rng(19);
  const std::size_t bytes = 1 << 20;
  const std::size_t piece = 32 * 1024;
  const auto payload = rng.bytes(bytes);
  std::vector<std::byte> out(bytes);
  std::uint64_t rail_paquets[2] = {0, 0};
  rig.engine.spawn("s", [&] {
    auto msg = rig.ep(0).begin_packing(3);
    EXPECT_TRUE(msg.striped());
    for (std::size_t offset = 0; offset < bytes; offset += piece) {
      msg.pack(util::ByteSpan(payload).subspan(offset, piece));
    }
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.ep(3).begin_unpacking();
    for (std::size_t offset = 0; offset < bytes; offset += piece) {
      msg.unpack(util::MutByteSpan(out).subspan(offset, piece));
    }
    rail_paquets[0] = msg.reassembler().rail_paquets(0);
    rail_paquets[1] = msg.reassembler().rail_paquets(1);
    msg.end_unpacking();
  });
  rig.engine.run();
  EXPECT_EQ(out, payload) << "repair rail lost or duplicated bytes";
  EXPECT_TRUE(rig.vc->is_dead(gateway));
  EXPECT_FALSE(rig.vc->is_dead(3 - gateway));
  sim::MetricsRegistry& metrics = rig.fabric.metrics();
  // The crashed gateway had sent part of its rail on, so the receiver
  // adopted the repaired rail mid-stream.
  EXPECT_GT(metrics
                .histogram("gw.phase_us", "gateway=" +
                                              std::to_string(gateway) +
                                              ",phase=send")
                .count(),
            0u);
  const fwd::ReliabilityStats& sender = rig.vc->gateway_stats(0).reliability;
  EXPECT_GE(sender.peers_declared_dead, 1u);
  EXPECT_GE(sender.failovers, 1u);
  EXPECT_GE(metrics
                .counter("stripe.repairs",
                         "node=0,rail=" + std::to_string(rail))
                .value,
            1u);
  // Every paquet of each rail's stream was delivered exactly once: the
  // reassembler's per-rail counts add up to the fragments of every piece.
  // (vc->mtu() is the reliable-mode payload size — the trailer is carved
  // from the configured paquet size.)
  const std::uint64_t mtu = rig.vc->mtu();
  EXPECT_EQ(rail_paquets[0] + rail_paquets[1],
            (bytes / piece) * ((piece + mtu - 1) / mtu));
}

TEST(Stripe, GatewayCrashMidStripeRepairsOntoSurvivingRoute) {
  for (const NodeRank gateway : {1, 2}) {
    SCOPED_TRACE("gw" + std::to_string(gateway) + " crashes");
    crash_mid_stripe(gateway);
  }
}

TEST(Stripe, ReliableRailRelaysCutThrough) {
  // A reliable striped rail runs the same relay as every other stream:
  // each rail's gateway sends paquet k while paquet k+1 arrives (paper
  // §2.2.2, Fig 4), so its first send begins before its last receive ends.
  sim::TraceSink trace;
  trace.enable();
  fwd::VcOptions options;
  options.paquet_size = 16 * 1024;
  options.reliable.enabled = true;
  options.reliable.window = 8;
  options.max_rails = 2;
  options.trace = &trace;
  DisjointRailRig rig(options);
  util::Rng rng(43);
  const auto payload = rng.bytes(1 << 20);
  std::vector<std::byte> out(payload.size());
  rig.engine.spawn("s", [&] {
    auto msg = rig.ep(0).begin_packing(3);
    EXPECT_TRUE(msg.striped());
    msg.pack(payload);
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.ep(3).begin_unpacking();
    msg.unpack(out);
    msg.end_unpacking();
  });
  rig.engine.run();
  EXPECT_EQ(out, payload);
  // A relay actor records its receives on its own track and its send
  // actor its sends on that track + ".send".
  std::map<std::string, std::pair<sim::Time, sim::Time>> relays;
  for (const sim::TraceEvent& recv : trace.by_name("gw.recv")) {
    auto& [first_send, last_recv] =
        relays.try_emplace(recv.track, sim::kForever, 0).first->second;
    last_recv = std::max(last_recv, recv.end);
  }
  for (const sim::TraceEvent& send : trace.by_name("gw.send")) {
    const std::string& track = send.track;
    auto& [first_send, last_recv] =
        relays.at(track.substr(0, track.rfind(".send")));
    first_send = std::min(first_send, send.begin);
  }
  ASSERT_EQ(relays.size(), 2u) << "one relay per rail";
  for (const auto& [track, span] : relays) {
    EXPECT_LT(span.first, span.second)
        << track << " stored its whole rail before sending";
  }
}

TEST(Stripe, OverlappingStripedWritersToOneDestinationPanic) {
  // Rails of two open striped transfers from one origin to one
  // destination share their channels and can each wait on the other at
  // the receiver, so the second begin_packing is refused while the first
  // writer is open (VcOptions::max_rails); the first still arrives whole.
  fwd::VcOptions options;
  options.paquet_size = 16 * 1024;
  options.reliable.enabled = true;
  options.max_rails = 2;
  DisjointRailRig rig(options);
  // An overlap that went through would keep the run going until this
  // horizon.
  rig.engine.set_time_horizon(sim::seconds(20));
  util::Rng rng(23);
  const auto first = rng.bytes(256 * 1024);
  const auto second = rng.bytes(256 * 1024);
  std::vector<std::byte> out(first.size());
  std::string diagnosis;
  rig.engine.spawn("s", [&] {
    auto msg = rig.ep(0).begin_packing(3);
    msg.pack(first);
    try {
      auto overlapping = rig.ep(0).begin_packing(3);
      overlapping.pack(second);
      overlapping.end_packing();
    } catch (const util::PanicError& e) {
      diagnosis = e.what();
    }
    msg.end_packing();
    // Once the first writer is closed, the next striped transfer may go.
    auto next = rig.ep(0).begin_packing(3);
    next.pack(second);
    next.end_packing();
  });
  rig.engine.spawn("r", [&] {
    for (const auto* expected : {&first, &second}) {
      auto msg = rig.ep(3).begin_unpacking();
      msg.unpack(out);
      msg.end_unpacking();
      EXPECT_EQ(out, *expected);
    }
  });
  rig.engine.run();
  EXPECT_NE(diagnosis.find("must not overlap"), std::string::npos)
      << diagnosis;
}

TEST(Stripe, RepairRecordsDeadPeerAndFailoverInstants) {
  // A repaired rail goes through the same failover bookkeeping as an
  // unstriped origin: the trace shows the dead peer and the failover
  // around it, both from the rail's own actor.
  sim::TraceSink trace;
  trace.enable();
  fwd::VcOptions options;
  options.paquet_size = 16 * 1024;
  options.reliable.enabled = true;
  options.max_rails = 2;
  options.trace = &trace;
  DisjointRailRig rig(options);
  const sim::Time crash_at = sim::milliseconds(4);
  net::FaultPlan sci_plan;
  sci_plan.crashes.push_back({/*nic_index=*/0, crash_at});  // gw1 on sci
  rig.sci.set_fault_plan(sci_plan);
  net::FaultPlan myri_plan;
  myri_plan.crashes.push_back({/*nic_index=*/1, crash_at});  // gw1 on myri0
  rig.myri_a.set_fault_plan(myri_plan);
  util::Rng rng(19);
  const auto payload = rng.bytes(1 << 20);
  std::vector<std::byte> out(payload.size());
  rig.engine.spawn("s", [&] {
    auto msg = rig.ep(0).begin_packing(3);
    msg.pack(payload);
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.ep(3).begin_unpacking();
    msg.unpack(out);
    msg.end_unpacking();
  });
  rig.engine.run();
  EXPECT_EQ(out, payload);
  const std::vector<sim::TraceEvent> dead = trace.by_name("rel.dead");
  const std::vector<sim::TraceEvent> failover = trace.by_name("rel.failover");
  ASSERT_EQ(dead.size(), 1u);
  ASSERT_EQ(failover.size(), 1u);
  EXPECT_EQ(dead[0].detail, "peer=1");
  EXPECT_EQ(failover[0].detail, "dst=3 around=1");
  EXPECT_EQ(failover[0].track, dead[0].track);
  EXPECT_EQ(trace.by_name("stripe.repair").size(), 1u);
}

}  // namespace
}  // namespace mad
