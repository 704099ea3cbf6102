// Churn robustness: brownouts and flapping links must be survived with
// zero delivery errors — quality-aware quarantine steers traffic around a
// sick gateway, readmission brings it back once it heals, and BGP-style
// flap damping keeps a fast-flapping gateway out of the route table.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "fwd/stripe.hpp"
#include "net/fault.hpp"
#include "support/coc_rig.hpp"
#include "topo/health.hpp"
#include "util/rng.hpp"

namespace mad::fwd {
namespace {

using testsupport::DisjointRailRig;
using testsupport::DualGatewayRig;
using testsupport::PaperRig;

/// Reliable options with health monitoring tuned for short test runs:
/// condemn fast (high loss gain), heal fast (short recovery half-life),
/// readmit fast (short hold-down).
fwd::VcOptions churn_options() {
  fwd::VcOptions options;
  options.paquet_size = 16 * 1024;
  options.reliable.enabled = true;
  options.reliable.window = 4;
  // Millisecond-scale fault windows need a fast ack deadline and a deep
  // retry budget: flaps must show up as loss signals (quarantine), never
  // as exhausted-attempt deaths of a mostly-up gateway.
  options.reliable.ack_timeout = sim::milliseconds(1);
  options.reliable.max_attempts = 20;
  options.health.enabled = true;
  options.health.check_interval = sim::milliseconds(1);
  options.health.loss_alpha = 0.5;
  options.health.score_recovery_half_life = sim::milliseconds(5);
  options.health.hold_down = sim::milliseconds(2);
  return options;
}

/// Sends `count` patterned messages m0 -> s0 back to back and verifies
/// every byte on arrival. Returns the number of delivery errors (always
/// asserted zero by callers; returned so failures print the count).
int run_message_stream(DualGatewayRig& rig, int count, std::size_t bytes) {
  int errors = 0;
  rig.engine.spawn("sender", [&rig, count, bytes] {
    for (int m = 0; m < count; ++m) {
      util::Rng rng(static_cast<std::uint64_t>(100 + m));
      const auto payload = rng.bytes(bytes);
      auto msg = rig.ep(0).begin_packing(3);
      msg.pack(util::ByteSpan(payload));
      msg.end_packing();
    }
  });
  rig.engine.spawn("receiver", [&rig, &errors, count, bytes] {
    for (int m = 0; m < count; ++m) {
      util::Rng rng(static_cast<std::uint64_t>(100 + m));
      const auto expected = rng.bytes(bytes);
      std::vector<std::byte> out(bytes);
      auto msg = rig.ep(3).begin_unpacking();
      msg.unpack(out);
      msg.end_unpacking();
      if (out != expected) {
        ++errors;
      }
    }
  });
  rig.engine.run();
  return errors;
}

TEST(Churn, BrownoutQuarantinesThenReadmitsGateway) {
  // A brownout window on the m0 -> gw1 edge (heavy loss, no outright
  // link-down) must get gw1 quarantined while it lasts and readmitted
  // after it heals — with every message delivered intact throughout.
  DualGatewayRig rig(churn_options());
  rig.fabric.metrics().enable();
  net::FaultPlan plan;
  plan.degraded.push_back({sim::milliseconds(3), sim::milliseconds(12),
                           /*src=*/0, /*dst=*/1, /*period=*/0,
                           /*bidirectional=*/false, /*extra_latency=*/0,
                           /*drop_rate=*/0.7});
  rig.myri.set_fault_plan(plan);
  const int errors = run_message_stream(rig, 40, 64 * 1024);
  EXPECT_EQ(errors, 0);
  sim::MetricsRegistry& metrics = rig.fabric.metrics();
  EXPECT_GE(metrics.counter("health.quarantines", "node=1").value, 1u);
  EXPECT_GE(metrics.counter("health.readmissions", "node=1").value, 1u);
  // Quarantine is reversible and distinct from death: gw1 was never
  // declared dead and ends the run back in the route table.
  EXPECT_FALSE(rig.vc->is_dead(1));
  EXPECT_FALSE(rig.vc->routing().excluded(1));
  EXPECT_GT(rig.myri.fault_injector()->stats().degraded_drops, 0u);
}

TEST(Churn, FastFlappingGatewayIsDampedIntoSuppression) {
  // gw1's myri link flaps on a short period. Every flap costs an
  // exclusion; the accumulated penalty must cross the suppress threshold
  // and keep gw1 out of the route table even during its up-windows.
  fwd::VcOptions options = churn_options();
  options.health.penalty_half_life = sim::milliseconds(400);
  DualGatewayRig rig(options);
  rig.fabric.metrics().enable();
  net::FaultPlan plan;
  // Down [2, 8) ms of every 12 ms, both directions, forever. The
  // down-window is long enough that a stream stalled in it always burns
  // through at least two jittered retransmit deadlines (losses at +1 ms
  // and +3..3.5 ms), so every flap the stream meets condemns the edge.
  plan.add_symmetric_link_down(sim::milliseconds(2), sim::milliseconds(8),
                               /*nic_a=*/0, /*nic_b=*/1,
                               /*period=*/sim::milliseconds(12));
  rig.myri.set_fault_plan(plan);
  const int errors = run_message_stream(rig, 60, 32 * 1024);
  EXPECT_EQ(errors, 0);
  sim::MetricsRegistry& metrics = rig.fabric.metrics();
  EXPECT_GE(metrics.counter("health.quarantines", "node=1").value, 3u);
  topo::HealthMonitor* health = rig.vc->health();
  ASSERT_NE(health, nullptr);
  const sim::Time end = rig.engine.now();
  // The penalty crossed kSuppressThreshold at some point (that is what
  // suppressed() latching onto kReuseThreshold proves); by end-of-run it
  // has only partially decayed.
  EXPECT_GT(health->penalty(1, end), topo::kReuseThreshold);
  EXPECT_TRUE(health->suppressed(1, end));
  // Damping holds the flapper out of the table; traffic runs via gw2.
  EXPECT_TRUE(rig.vc->routing().excluded(1));
  EXPECT_FALSE(rig.vc->is_dead(1));
}

TEST(Churn, SeededChaosSweepZeroDeliveryErrors) {
  // Randomized soak across seeds: background loss plus periodic gw1 link
  // flaps and a brownout, all at once. Whatever the health layer decides
  // (quarantine, reroute, readmit), delivery must stay byte-perfect.
  for (const std::uint64_t seed : {11ull, 29ull, 47ull}) {
    fwd::VcOptions options = churn_options();
    DualGatewayRig rig(options);
    net::FaultPlan myri_plan;
    myri_plan.seed = seed;
    myri_plan.drop_rate = 0.02;
    myri_plan.add_symmetric_link_down(
        sim::milliseconds(3), sim::milliseconds(5), /*nic_a=*/0,
        /*nic_b=*/1, /*period=*/sim::milliseconds(15));
    myri_plan.degraded.push_back({sim::milliseconds(8),
                                  sim::milliseconds(14), /*src=*/0,
                                  /*dst=*/1, /*period=*/sim::milliseconds(30),
                                  /*bidirectional=*/true,
                                  /*extra_latency=*/sim::microseconds(200),
                                  /*drop_rate=*/0.3});
    rig.myri.set_fault_plan(myri_plan);
    net::FaultPlan sci_plan;
    sci_plan.seed = seed + 1;
    sci_plan.drop_rate = 0.01;
    rig.sci.set_fault_plan(sci_plan);
    const int errors = run_message_stream(rig, 30, 48 * 1024);
    EXPECT_EQ(errors, 0) << "seed " << seed;
    EXPECT_FALSE(rig.vc->is_dead(2)) << "seed " << seed;
  }
}

TEST(Churn, PlanRailsDropsRailBelowHealthThreshold) {
  // Rail demotion: a rail whose route scores below kRailDropScore is
  // dropped from the stripe plan entirely; striping degrades to the
  // surviving rail (the caller then sends unstriped).
  fwd::VcOptions options;
  options.max_rails = 2;
  options.health.enabled = true;
  DisjointRailRig rig(options);
  topo::HealthMonitor* health = rig.vc->health();
  ASSERT_NE(health, nullptr);
  ASSERT_EQ(fwd::plan_rails(*rig.vc, 0, 3, 2).size(), 2u);
  // Condemn the m0 -> gw1 edge (rail 0's first hop) well below the
  // kRailDropScore of 0.45.
  for (int i = 0; i < 20; ++i) {
    health->record_loss(0, 1, 0);
  }
  const auto plans = fwd::plan_rails(*rig.vc, 0, 3, 2);
  ASSERT_EQ(plans.size(), 1u);
  EXPECT_EQ(plans[0].route.front().node, 2);  // the gw2 rail survives
}

TEST(Churn, PlanRailsDemotesSickRailShare) {
  // Mild sickness (above the drop threshold) scales the rail's share down
  // instead of dropping it: progressive degradation, not a cliff.
  fwd::VcOptions options;
  options.max_rails = 2;
  options.rail_weights = {4, 4};
  options.health.enabled = true;
  DisjointRailRig rig(options);
  topo::HealthMonitor* health = rig.vc->health();
  ASSERT_NE(health, nullptr);
  // Two loss events: loss_ewma = 1 - 0.8^2 = 0.36, score 0.64 — sick but
  // above the 0.45 drop threshold.
  health->record_loss(0, 1, 0);
  health->record_loss(0, 1, 0);
  const auto plans = fwd::plan_rails(*rig.vc, 0, 3, 2);
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_LT(plans[0].share, 4u);   // demoted in proportion to its score
  EXPECT_GE(plans[0].share, 1u);
  EXPECT_EQ(plans[1].share, 4u);   // healthy rail keeps its weight
}

TEST(Churn, StripedTransferSurvivesBrownoutOnOneRail) {
  // End-to-end striping under churn: a brownout on rail 0's myri segment
  // mid-transfer. The reliable rails retransmit through it; the payload
  // must arrive byte-identical.
  fwd::VcOptions options = churn_options();
  options.max_rails = 2;
  DisjointRailRig rig(options);
  net::FaultPlan plan;
  plan.degraded.push_back({sim::milliseconds(1), sim::milliseconds(6),
                           /*src=*/0, /*dst=*/1, /*period=*/0,
                           /*bidirectional=*/false, /*extra_latency=*/0,
                           /*drop_rate=*/0.5});
  rig.myri_a.set_fault_plan(plan);
  util::Rng rng(31);
  const std::size_t bytes = 1 << 20;
  const auto payload = rng.bytes(bytes);
  std::vector<std::byte> out(bytes);
  rig.engine.spawn("s", [&] {
    auto msg = rig.ep(0).begin_packing(3);
    msg.pack(util::ByteSpan(payload));
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.ep(3).begin_unpacking();
    msg.unpack(out);
    msg.end_unpacking();
  });
  rig.engine.run();
  EXPECT_EQ(out, payload);
  EXPECT_GT(rig.myri_a.fault_injector()->stats().degraded_drops, 0u);
}

/// What one run of tail_ack_run saw.
struct TailAckRun {
  sim::Time first_end = -1;   // s0 consumed message 1's end marker
  sim::Time second_end = -1;  // ... and message 2's
  int intact = 0;
  bool third = false;  // a message arrived after the two sent
};

/// Sends a 64 KB and a 4 KB reliable message m0 -> s0 through the paper
/// rig's gateway. Its final hop runs on an announce channel (s1 makes the
/// SCI cluster three nodes), where nothing reads the gateway's late
/// retransmits of a finished stream until the next message arrives. From
/// `acks_down_at` on, for `acks_down_for`, every ack s0 posts to the
/// gateway is suppressed; the data direction stays up.
TailAckRun tail_ack_run(PaperRig& rig, sim::Time acks_down_at,
                        sim::Time acks_down_for) {
  if (acks_down_at >= 0) {
    net::FaultPlan plan;
    // SCI NIC indices: gw=0, s0=1, s1=2.
    plan.link_downs.push_back({acks_down_at, acks_down_at + acks_down_for,
                               /*src=*/1, /*dst=*/0});
    rig.sci.set_fault_plan(plan);
  }
  const std::vector<std::vector<std::byte>> payloads = {
      util::Rng(41).bytes(64 * 1024), util::Rng(42).bytes(4 * 1024)};
  TailAckRun run;
  rig.engine.spawn("s", [&] {
    for (const std::vector<std::byte>& payload : payloads) {
      auto msg = rig.ep(rig.myri_node()).begin_packing(rig.sci_node());
      msg.pack(util::ByteSpan(payload));
      msg.end_packing();
    }
  });
  rig.engine.spawn("r", [&] {
    for (std::size_t m = 0; m < payloads.size(); ++m) {
      std::vector<std::byte> out(payloads[m].size());
      auto msg = rig.ep(rig.sci_node()).begin_unpacking();
      msg.unpack(out);
      msg.end_unpacking();
      (m == 0 ? run.first_end : run.second_end) = rig.engine.now();
      run.intact += out == payloads[m] ? 1 : 0;
    }
    run.third = rig.ep(rig.sci_node())
                    .begin_unpacking_until(rig.engine.now() +
                                           sim::milliseconds(500))
                    .has_value();
  });
  rig.engine.run();
  return run;
}

TEST(Churn, TailAckRepostsOutlastAnAckOutageAfterTheEndMarker) {
  // An ack outage opens the instant s0 consumes message 1's end marker, so
  // every ack of that stream's tail is lost, and s0 has nothing more to
  // read that would re-ack the gateway's retransmits. Only the reposts of
  // the stream's final ack, ack_timeout apart, can finish the gateway's
  // hop: the third lands after the outage. Message 2 then crosses the
  // same connection and completes while message 1's last reposts, now of
  // a superseded epoch, are still due.
  fwd::VcOptions options;
  options.paquet_size = 16 * 1024;
  options.reliable.enabled = true;
  options.reliable.window = 4;
  const sim::Time ack_timeout = options.reliable.ack_timeout;
  sim::Time first_end = -1;
  {
    PaperRig fault_free(options, 1, 2);
    first_end = tail_ack_run(fault_free, -1, 0).first_end;
  }
  ASSERT_GT(first_end, 0);

  PaperRig rig(options, 1, 2);
  const TailAckRun run =
      tail_ack_run(rig, first_end, ack_timeout * 5 / 2);
  // The schedule up to the outage is the fault-free one.
  EXPECT_EQ(run.first_end, first_end);
  EXPECT_EQ(run.intact, 2);
  EXPECT_FALSE(run.third);
  EXPECT_GT(run.second_end, first_end + 3 * ack_timeout);
  EXPECT_LT(run.second_end,
            first_end + options.reliable.max_attempts * ack_timeout);
  EXPECT_GT(rig.sci.fault_injector()->stats().acks_suppressed, 0u);
  // The gateway's egress finished both messages, and neither hop's
  // sender failed over or declared its peer dead.
  const fwd::GatewayStats& gw = rig.vc->gateway_stats(rig.gateway_rank);
  EXPECT_EQ(gw.messages_forwarded, 2u);
  for (const NodeRank sender : {rig.myri_node(), rig.gateway_rank}) {
    const fwd::ReliabilityStats& r = rig.vc->gateway_stats(sender).reliability;
    EXPECT_EQ(r.failovers, 0u) << "node " << sender;
    EXPECT_EQ(r.peers_declared_dead, 0u) << "node " << sender;
  }
  EXPECT_FALSE(rig.vc->is_dead(rig.gateway_rank));
  EXPECT_FALSE(rig.vc->is_dead(rig.sci_node()));
}

}  // namespace
}  // namespace mad::fwd
