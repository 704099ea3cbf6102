// Overload-safe gateway: option-combination validation, strict-priority
// starvation freedom, and end-to-end admission rejection with sender
// backoff-and-retry (ISSUE 8 tentpole).
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fwd/regulation.hpp"
#include "fwd/virtual_channel.hpp"
#include "harness/scenario.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "topo/config_parse.hpp"
#include "util/panic.hpp"
#include "util/rng.hpp"

namespace mad::fwd {
namespace {

// --- VcOptions combination validation --------------------------------------

VcOptions flow_options() {
  VcOptions options;
  options.reliable.enabled = true;
  options.flow.enabled = true;
  return options;
}

TEST(VcOptionsValidate, FlowModeRequiresReliable) {
  // Flow scheduling arbitrates the reliable relay's egress grants; on the
  // unreliable path there is no per-flow queue to schedule, so the
  // combination is a configuration error, not a silent no-op.
  VcOptions options = flow_options();
  options.reliable.enabled = false;
  EXPECT_THROW(options.validate(), util::PanicError);
}

TEST(VcOptionsValidate, FlowModeExcludesMultiRailStriping) {
  VcOptions options = flow_options();
  options.max_rails = 2;
  EXPECT_THROW(options.validate(), util::PanicError);
}

TEST(VcOptionsValidate, FlowModeExcludesRailWeights) {
  VcOptions options = flow_options();
  options.rail_weights = {2, 1};
  EXPECT_THROW(options.validate(), util::PanicError);
}

TEST(VcOptionsValidate, FlowModeAloneIsAccepted) {
  flow_options().validate();
}

TEST(VcOptionsValidate, ConstructorRunsValidation) {
  // The checks fire at world construction, not first use.
  const topo::TopoConfig config = topo::parse_topo_config(
      "network myri0 BIP/Myrinet\nnetwork eth0 TCP/FEth\n"
      "node m0 myri0\nnode gw myri0 eth0\nnode e0 eth0\n");
  VcOptions options = flow_options();
  options.max_rails = 2;
  EXPECT_THROW(harness::ConfigWorld world(config, options),
               util::PanicError);
}

// --- Admission-reject backoff ----------------------------------------------

TEST(RejectBackoff, ScheduleIsPinned) {
  // A rejected message waits 2 ms doubled per consecutive reject, capped
  // at 100 ms, plus seeded jitter of less than a quarter of that.
  const FlowOptions flow;
  const std::uint64_t seeds[] = {1, 0x5eed};
  const sim::Time pinned[2][9] = {
      {2351460, 4702921, 9405843, 18811687, 37623374, 75246749, 117573045,
       117573045, 117573045},
      {2467193, 4934386, 9868772, 19737545, 39475090, 78950181, 123359658,
       123359658, 123359658},
  };
  for (std::size_t s = 0; s < 2; ++s) {
    for (int k = 0; k <= 8; ++k) {
      const sim::Time base =
          std::min(sim::milliseconds(2) << k, sim::milliseconds(100));
      const sim::Time delay = flow.reject_delay(k, seeds[s]);
      EXPECT_EQ(delay, pinned[s][k]) << "seed " << seeds[s] << " k " << k;
      EXPECT_GE(delay, base) << "seed " << seeds[s] << " k " << k;
      EXPECT_LT(delay, base + base / 4) << "seed " << seeds[s] << " k " << k;
      EXPECT_EQ(flow.reject_delay(k, seeds[s]), delay);
    }
  }
}

// --- End-to-end overload behavior ------------------------------------------

// Topology for the overload tests: `bulk_origins` Myrinet senders plus one
// control sender, all funneled through a single gateway onto a much
// slower Fast-Ethernet cluster (one receiver per sender).
topo::TopoConfig overload_config(int bulk_origins) {
  std::string text = "network myri0 BIP/Myrinet\nnetwork eth0 TCP/FEth\n";
  for (int f = 0; f < bulk_origins; ++f) {
    text += "node m" + std::to_string(f) + " myri0\n";
  }
  text += "node c0 myri0\nnode gw myri0 eth0\n";
  for (int f = 0; f < bulk_origins; ++f) {
    text += "node e" + std::to_string(f) + " eth0\n";
  }
  text += "node ec eth0\n";
  return topo::parse_topo_config(text);
}

VcOptions overload_options() {
  VcOptions options;
  options.paquet_size = 16 * 1024;
  options.reliable.enabled = true;
  options.reliable.window = 8;
  options.reliable.adaptive = true;
  // The congested FEth egress stretches ack round trips; keep the origin
  // senders from declaring the busy gateway dead mid-test.
  options.reliable.ack_timeout = sim::milliseconds(120);
  options.reliable.max_attempts = 10;
  options.flow.enabled = true;
  options.flow.queue_limit = 16;
  options.flow.mark_threshold = 8;
  return options;
}

// Worst observed control-message latency (ms) with `bulk_origins` saturating
// bulk flows, with the control origin either classed Control or left in the
// default Bulk band.
double control_worst_ms(bool classed, int bulk_origins) {
  const topo::TopoConfig config = overload_config(bulk_origins);
  VcOptions options = overload_options();
  // Fat paquets make each bulk DRR visit occupy the wire for ~2.8 ms, so
  // the unclassed control fragment's full-round wait dwarfs the fixed
  // per-message costs both runs share.
  options.paquet_size = 32 * 1024;
  if (classed) {
    // Origin ranks are declaration order: m0..m<n-1>, then c0.
    options.flow.classes.assign(static_cast<std::size_t>(bulk_origins),
                                TrafficClass::Bulk);
    options.flow.classes.push_back(TrafficClass::Control);
  }
  harness::ConfigWorld world(config, options);

  util::Rng rng(5);
  const auto bulk_payload = rng.bytes(512 * 1024);
  const auto ctl_payload = rng.bytes(4 * 1024);
  const int kCtlMessages = 10;

  for (int f = 0; f < bulk_origins; ++f) {
    const NodeRank src = world.rank_of("m" + std::to_string(f));
    const NodeRank dst = world.rank_of("e" + std::to_string(f));
    world.engine.spawn("bulk_tx" + std::to_string(f), [&world, &bulk_payload,
                                                       src, dst] {
      for (int m = 0; m < 2; ++m) {
        auto msg = world.ep(src).begin_packing(dst);
        msg.pack(util::ByteSpan(bulk_payload));
        msg.end_packing();
      }
    });
    world.engine.spawn("bulk_rx" + std::to_string(f),
                       [&world, &bulk_payload, dst] {
                         std::vector<std::byte> out(bulk_payload.size());
                         for (int m = 0; m < 2; ++m) {
                           auto msg = world.ep(dst).begin_unpacking();
                           msg.unpack(out);
                           msg.end_unpacking();
                         }
                       });
  }

  double worst_ms = 0.0;
  std::vector<sim::Time> sent_at;
  const NodeRank csrc = world.rank_of("c0");
  const NodeRank cdst = world.rank_of("ec");
  world.engine.spawn("ctl_tx", [&world, &ctl_payload, &sent_at, csrc, cdst] {
    for (int m = 0; m < kCtlMessages; ++m) {
      sent_at.push_back(world.engine.now());
      auto msg = world.ep(csrc).begin_packing(cdst);
      msg.pack(util::ByteSpan(ctl_payload));
      msg.end_packing();
      world.engine.sleep_for(sim::milliseconds(5));
    }
  });
  world.engine.spawn("ctl_rx", [&world, &ctl_payload, &sent_at, &worst_ms,
                                cdst] {
    std::vector<std::byte> out(ctl_payload.size());
    for (int m = 0; m < kCtlMessages; ++m) {
      auto msg = world.ep(cdst).begin_unpacking();
      msg.unpack(out);
      msg.end_unpacking();
      const double ms =
          sim::to_microseconds(world.engine.now() -
                               sent_at[static_cast<std::size_t>(m)]) /
          1000.0;
      worst_ms = std::max(worst_ms, ms);
      EXPECT_EQ(out, ctl_payload);
    }
  });
  world.engine.run();
  return worst_ms;
}

TEST(Overload, ControlClassIsStarvationFreeUnderSaturatedBulk) {
  // Six always-backlogged bulk flows saturate the gateway's FEth egress.
  // In the default single band the control messages' fragments wait out
  // full DRR rounds of bulk allowances; classed Control they wait at most
  // one in-flight bulk bundle (arbitration is non-preemptive). The classed
  // worst case must beat the unclassed one by a wide, stable margin.
  // Both runs share a fixed ingress + relay + ack cost per control
  // message, so the arbitration win shows as a ratio, not a constant:
  // require a solid 30% improvement (measured ~2x today) rather than a
  // brittle absolute number.
  const double classed = control_worst_ms(true, 6);
  const double unclassed = control_worst_ms(false, 6);
  EXPECT_LT(classed, 0.7 * unclassed);
}

TEST(Overload, AdmissionRejectsAreRetriedToCompletion) {
  // One-message bulk budget with two concurrent bulk origins: the second
  // message is refused at the admission gate, the origin's writer sees
  // FlowRejected off the ack board, backs off, and replays — every byte
  // still arrives intact, and both the gateway- and sender-side counters
  // prove the reject path actually ran.
  const topo::TopoConfig config = overload_config(2);
  VcOptions options = overload_options();
  options.flow.admission.enabled = true;
  options.flow.admission.message_budget[traffic_class_index(
      TrafficClass::Bulk)] = 1;
  harness::ConfigWorld world(config, options);

  const int kMessages = 3;
  util::Rng rng(7);
  const std::vector<std::vector<std::byte>> payloads = {
      rng.bytes(256 * 1024), rng.bytes(256 * 1024)};
  for (int f = 0; f < 2; ++f) {
    const NodeRank src = world.rank_of("m" + std::to_string(f));
    const NodeRank dst = world.rank_of("e" + std::to_string(f));
    const std::vector<std::byte>& payload =
        payloads[static_cast<std::size_t>(f)];
    world.engine.spawn("tx" + std::to_string(f), [&world, &payload, src,
                                                  dst] {
      for (int m = 0; m < kMessages; ++m) {
        auto msg = world.ep(src).begin_packing(dst);
        msg.pack(util::ByteSpan(payload));
        msg.end_packing();
      }
    });
    world.engine.spawn("rx" + std::to_string(f), [&world, &payload, dst] {
      std::vector<std::byte> out(payload.size());
      for (int m = 0; m < kMessages; ++m) {
        auto msg = world.ep(dst).begin_unpacking();
        msg.unpack(out);
        msg.end_unpacking();
        EXPECT_EQ(out, payload);
      }
    });
  }
  world.engine.run();

  std::uint64_t rejects = 0;
  std::uint64_t sender_rejects = 0;
  for (NodeRank rank = 0;
       static_cast<std::size_t>(rank) < world.domain->node_count(); ++rank) {
    rejects += world.vc->gateway_stats(rank).admission_rejects;
    sender_rejects += world.vc->gateway_stats(rank).reliability.flow_rejects;
  }
  EXPECT_GT(rejects, 0u);
  EXPECT_GT(sender_rejects, 0u);
}

TEST(Overload, ControlPassesAdmissionUnderZeroBulkBudget) {
  // Budgets that reject every bulk message leave control untouched: the
  // control transfer completes while bulk merely takes longer (reject,
  // back off, retry once the budget admits it again).
  const topo::TopoConfig config = overload_config(1);
  VcOptions options = overload_options();
  options.flow.classes = {TrafficClass::Bulk, TrafficClass::Control};
  options.flow.admission.enabled = true;
  options.flow.admission.message_budget[traffic_class_index(
      TrafficClass::Bulk)] = 1;
  options.flow.admission.byte_budget[traffic_class_index(
      TrafficClass::Bulk)] = 64 * 1024;
  harness::ConfigWorld world(config, options);

  util::Rng rng(9);
  const auto bulk_payload = rng.bytes(256 * 1024);
  const auto ctl_payload = rng.bytes(8 * 1024);
  bool ctl_done = false;
  world.engine.spawn("bulk_tx", [&world, &bulk_payload] {
    for (int m = 0; m < 2; ++m) {
      auto msg = world.ep(world.rank_of("m0")).begin_packing(
          world.rank_of("e0"));
      msg.pack(util::ByteSpan(bulk_payload));
      msg.end_packing();
    }
  });
  world.engine.spawn("bulk_rx", [&world, &bulk_payload] {
    std::vector<std::byte> out(bulk_payload.size());
    for (int m = 0; m < 2; ++m) {
      auto msg = world.ep(world.rank_of("e0")).begin_unpacking();
      msg.unpack(out);
      msg.end_unpacking();
      EXPECT_EQ(out, bulk_payload);
    }
  });
  world.engine.spawn("ctl_tx", [&world, &ctl_payload] {
    for (int m = 0; m < 5; ++m) {
      auto msg = world.ep(world.rank_of("c0")).begin_packing(
          world.rank_of("ec"));
      msg.pack(util::ByteSpan(ctl_payload));
      msg.end_packing();
    }
  });
  world.engine.spawn("ctl_rx", [&world, &ctl_payload, &ctl_done] {
    std::vector<std::byte> out(ctl_payload.size());
    for (int m = 0; m < 5; ++m) {
      auto msg = world.ep(world.rank_of("ec")).begin_unpacking();
      msg.unpack(out);
      msg.end_unpacking();
      EXPECT_EQ(out, ctl_payload);
    }
    ctl_done = true;
  });
  world.engine.run();
  EXPECT_TRUE(ctl_done);

  std::uint64_t control_rejects = 0;
  for (NodeRank rank = 0;
       static_cast<std::size_t>(rank) < world.domain->node_count(); ++rank) {
    const fwd::GatewayStats& stats = world.vc->gateway_stats(rank);
    control_rejects += stats.admission_sheds;  // sheds imply CoDel fired
  }
  // Nothing here runs long enough to arm the CoDel shed clock.
  EXPECT_EQ(control_rejects, 0u);
}

// --- Actor budget -----------------------------------------------------------

struct ActorBudget {
  std::uint64_t stacks = 0;  // Engine::Stats::stacks_mapped
  std::uint64_t spawns = 0;  // Engine::Stats::spawns
};

/// Runs `messages` 20 KB messages from each of three origins on one
/// announce network through one gateway relaying under `options`, each
/// origin to its own receiver, and returns the actor stacks the engine
/// mapped and the actors it spawned. Checks that every message arrives
/// once, from its origin, in that origin's order, with its bytes.
ActorBudget actors_for_messages(VcOptions options, int messages) {
  const topo::TopoConfig config = topo::parse_topo_config(
      "network myri0 BIP/Myrinet\nnetwork sci0 SISCI/SCI\n"
      "node m0 myri0\nnode m1 myri0\nnode m2 myri0\n"
      "node gw myri0 sci0\n"
      "node s0 sci0\nnode s1 sci0\nnode s2 sci0\n");
  options.paquet_size = 8 * 1024;
  harness::ConfigWorld world(config, options);
  const auto payload = [](int origin, int m) {
    return util::Rng(static_cast<std::uint64_t>(1000 * origin + m))
        .bytes(20 * 1024);
  };
  std::vector<int> intact(3, 0);
  for (int origin = 0; origin < 3; ++origin) {
    const NodeRank src = world.rank_of("m" + std::to_string(origin));
    const NodeRank dst = world.rank_of("s" + std::to_string(origin));
    world.engine.spawn("tx" + std::to_string(origin),
                       [&world, &payload, origin, messages, src, dst] {
                         for (int m = 0; m < messages; ++m) {
                           const auto bytes = payload(origin, m);
                           auto msg = world.ep(src).begin_packing(dst);
                           msg.pack(util::ByteSpan(bytes));
                           msg.end_packing();
                         }
                       });
    world.engine.spawn(
        "rx" + std::to_string(origin),
        [&world, &payload, &intact, origin, messages, src, dst] {
          std::vector<std::byte> out(20 * 1024);
          for (int m = 0; m < messages; ++m) {
            auto msg = world.ep(dst).begin_unpacking();
            EXPECT_EQ(msg.source(), src);
            msg.unpack(out);
            msg.end_unpacking();
            intact[static_cast<std::size_t>(origin)] +=
                out == payload(origin, m) ? 1 : 0;
          }
          // Nothing arrives twice.
          EXPECT_FALSE(world.ep(dst)
                           .begin_unpacking_until(world.engine.now() +
                                                  sim::milliseconds(50))
                           .has_value());
        });
  }
  world.engine.run();
  for (int origin = 0; origin < 3; ++origin) {
    EXPECT_EQ(intact[static_cast<std::size_t>(origin)], messages)
        << "origin " << origin;
  }
  const sim::Engine::Stats stats = world.engine.stats();
  return {stats.stacks_mapped, stats.spawns};
}

/// Checks that neither the actors spawned nor the stacks mapped depend on
/// how many messages cross.
void expect_fixed_actor_budget(const VcOptions& options) {
  const ActorBudget few = actors_for_messages(options, 4);
  const ActorBudget many = actors_for_messages(options, 12);
  EXPECT_EQ(many.stacks, few.stacks);
  EXPECT_EQ(many.spawns, few.spawns);
}

TEST(FlowMode, StacksDoNotGrowWithMessageCount) {
  // The gateway runs one relay actor and one send actor per upstream hop
  // and the channel one tail-ack daemon.
  VcOptions options = flow_options();
  options.reliable.window = 4;
  expect_fixed_actor_budget(options);
}

TEST(GatewayActors, PlainRelaySpawnsDoNotGrowWithMessageCount) {
  // The listener and its one send actor relay every message.
  VcOptions options;
  ASSERT_EQ(options.pipeline_depth, 2);
  expect_fixed_actor_budget(options);
}

TEST(GatewayActors, ReliableRelaySpawnsDoNotGrowWithMessageCount) {
  VcOptions options;
  options.reliable.enabled = true;
  options.reliable.window = 8;
  expect_fixed_actor_budget(options);
}

}  // namespace
}  // namespace mad::fwd
