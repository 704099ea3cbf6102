// Failure injection and misuse handling: the library must fail loudly and
// cleanly (diagnosable exceptions, clean engine unwinding), never hang or
// corrupt unrelated state.
#include <gtest/gtest.h>

#include <array>
#include <type_traits>
#include <vector>

#include "fwd/egress.hpp"
#include "net/fault.hpp"
#include "net/nic.hpp"
#include "support/coc_rig.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace mad::fwd {
namespace {

using testsupport::PaperRig;

TEST(Failures, ActorExceptionMidMessageUnwindsCleanly) {
  PaperRig rig;
  util::Rng rng(1);
  const auto payload = rng.bytes(100'000);
  rig.engine.spawn("s", [&] {
    auto msg = rig.ep(rig.myri_node()).begin_packing(rig.sci_node());
    msg.pack(payload);
    throw std::runtime_error("application failure mid-message");
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.ep(rig.sci_node()).begin_unpacking();
    std::vector<std::byte> out(100'000);
    msg.unpack(out);
    msg.end_unpacking();
  });
  // The sender's exception must surface from run(); all other actors
  // (receiver, pollers, gateway daemons) are unwound, nothing hangs.
  EXPECT_THROW(rig.engine.run(), std::runtime_error);
}

TEST(Failures, UnreachableDestinationIsDiagnosed) {
  // Two disjoint networks: no gateway bridges them.
  sim::Engine engine;
  net::Fabric fabric(engine);
  net::Network& a = fabric.add_network("a", net::bip_myrinet());
  net::Network& b = fabric.add_network("b", net::sisci_sci());
  net::Host& a0 = fabric.add_host("a0");
  a0.add_nic(a);
  net::Host& a1 = fabric.add_host("a1");
  a1.add_nic(a);
  net::Host& b0 = fabric.add_host("b0");
  b0.add_nic(b);
  net::Host& b1 = fabric.add_host("b1");
  b1.add_nic(b);
  Domain domain(fabric);
  for (net::Host* h : {&a0, &a1, &b0, &b1}) {
    domain.add_node(*h);
  }
  VirtualChannel vc(domain, "vc", {&a, &b});
  bool diagnosed = false;
  engine.spawn("s", [&] {
    try {
      auto msg = vc.endpoint(0).begin_packing(2);  // a0 -> b0: no route
    } catch (const util::PanicError& e) {
      diagnosed =
          std::string(e.what()).find("unreachable") != std::string::npos;
    }
  });
  engine.run();
  EXPECT_TRUE(diagnosed);
}

TEST(Failures, ReceiverAbsenceIsDeadlockNotHang) {
  // A sender whose peer never shows up: the engine detects the deadlock
  // (with actor names) instead of spinning forever.
  PaperRig rig;
  rig.engine.spawn("lonely-receiver", [&] {
    auto msg = rig.ep(rig.sci_node()).begin_unpacking();  // nothing comes
    (void)msg;
  });
  try {
    rig.engine.run();
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("lonely-receiver"),
              std::string::npos);
  }
}

TEST(Failures, PipelineDepthZeroRejected) {
  fwd::VcOptions options;
  options.pipeline_depth = 0;
  EXPECT_THROW(PaperRig rig(options), util::PanicError);
}

TEST(Failures, OversizedPaquetOptionRejected) {
  // Asking for a paquet no network can carry must fail at creation, not
  // silently fragment.
  fwd::VcOptions options;
  options.paquet_size = 1 << 30;
  PaperRig rig(options);
  // compute_route_mtu caps at the route minimum instead of failing — the
  // resulting MTU must be carriable.
  EXPECT_LE(rig.vc->mtu(), 128u * 1024);
}

TEST(Failures, WrongUnpackOrderOnForwardedMessageDetected) {
  PaperRig rig;
  util::Rng rng(2);
  const auto b1 = rng.bytes(100);
  const auto b2 = rng.bytes(200);
  bool caught = false;
  rig.engine.spawn("s", [&] {
    auto msg = rig.ep(rig.myri_node()).begin_packing(rig.sci_node());
    msg.pack(b1);
    msg.pack(b2);
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.ep(rig.sci_node()).begin_unpacking();
    std::vector<std::byte> out(200);  // tries to read block 2 first
    try {
      msg.unpack(out);
    } catch (const util::PanicError&) {
      caught = true;
    }
  });
  rig.engine.run();
  EXPECT_TRUE(caught);
}

TEST(Failures, PrematureEndUnpackingDetected) {
  PaperRig rig;
  util::Rng rng(3);
  const auto payload = rng.bytes(100);
  bool caught = false;
  rig.engine.spawn("s", [&] {
    auto msg = rig.ep(rig.myri_node()).begin_packing(rig.sci_node());
    msg.pack(payload);
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.ep(rig.sci_node()).begin_unpacking();
    try {
      msg.end_unpacking();  // without unpacking the block
    } catch (const util::PanicError& e) {
      caught = std::string(e.what()).find("end_unpacking before") !=
               std::string::npos;
    }
  });
  rig.engine.run();
  EXPECT_TRUE(caught);
}

TEST(Failures, IndependentRunsDoNotShareState) {
  // Failure in one simulation must not poison a subsequent one.
  {
    PaperRig rig;
    rig.engine.spawn("boom", [] { throw std::runtime_error("first"); });
    EXPECT_THROW(rig.engine.run(), std::runtime_error);
  }
  PaperRig rig;
  util::Rng rng(4);
  const auto payload = rng.bytes(10'000);
  std::vector<std::byte> out(10'000);
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
  rig.engine.run();
  EXPECT_EQ(out, payload);
}

TEST(Failures, StoredBlockViewRejectsATemporaryBuffer) {
  // A temporary container would convert silently to the view constructor
  // and leave the stored block dangling: that must not compile. Views of
  // lvalues and spans, and the owning constructor, still do.
  static_assert(!std::is_constructible_v<StoredBlock, const GtmBlockHeader&,
                                         util::Bytes>);
  static_assert(!std::is_constructible_v<StoredBlock, const GtmBlockHeader&,
                                         std::array<std::byte, 8>>);
  static_assert(std::is_constructible_v<StoredBlock, const GtmBlockHeader&,
                                        util::Bytes&>);
  static_assert(std::is_constructible_v<StoredBlock, const GtmBlockHeader&,
                                        util::ByteSpan>);
  static_assert(std::is_constructible_v<StoredBlock, const GtmBlockHeader&,
                                        std::vector<std::byte>>);
  const util::Bytes bytes(8);
  const StoredBlock view(GtmBlockHeader{}, bytes);
  EXPECT_EQ(view.data.data(), bytes.data());
  EXPECT_TRUE(view.owned.empty());
}

// ------------------------------------------------------- reliable GTM mode

using testsupport::DualGatewayRig;

fwd::VcOptions reliable_options(std::uint32_t paquet_size = 16 * 1024) {
  fwd::VcOptions options;
  options.paquet_size = paquet_size;
  options.reliable.enabled = true;
  return options;
}

/// Runs one reliable m0 -> s0 transfer on a PaperRig whose SCI hop drops
/// paquets; returns the gateway's retransmit count.
std::uint64_t run_lossy_transfer(std::uint64_t seed, std::size_t bytes,
                                 double drop_rate) {
  PaperRig rig(reliable_options());
  net::FaultPlan plan;
  plan.seed = seed;
  plan.drop_rate = drop_rate;
  rig.sci.set_fault_plan(plan);
  util::Rng rng(21);
  const auto payload = rng.bytes(bytes);
  std::vector<std::byte> out(bytes);
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
  rig.engine.run();
  EXPECT_EQ(out, payload) << "payload corrupted by the lossy hop";
  EXPECT_GT(rig.sci.fault_injector()->stats().dropped, 0u)
      << "plan never dropped anything: the test proves nothing";
  return rig.vc->gateway_stats(rig.gateway_rank).reliability.retransmits;
}

TEST(Reliable, ForwardedMessageSurvivesPaquetLoss) {
  // Acceptance scenario: 2% drop on the SCI hop, 1 MiB forwarded message
  // arrives bit-identical and the gateway retransmitted the dropped
  // paquets.
  const std::uint64_t retransmits =
      run_lossy_transfer(/*seed=*/1, 1 << 20, /*drop_rate=*/0.02);
  EXPECT_GT(retransmits, 0u);
}

TEST(Reliable, RetransmitCountIsDeterministic) {
  const std::uint64_t first =
      run_lossy_transfer(/*seed=*/9, 1 << 20, /*drop_rate=*/0.02);
  const std::uint64_t second =
      run_lossy_transfer(/*seed=*/9, 1 << 20, /*drop_rate=*/0.02);
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, second);
  // A different seed draws a different fault sequence (not necessarily a
  // different count, but the runs above must not depend on wall clock).
}

TEST(Reliable, SurvivesCorruptionAndDuplication) {
  PaperRig rig(reliable_options());
  net::FaultPlan plan;
  plan.seed = 3;
  plan.corrupt_rate = 0.08;
  plan.duplicate_rate = 0.08;
  rig.myri.set_fault_plan(plan);
  rig.sci.set_fault_plan(plan);
  util::Rng rng(22);
  const std::size_t bytes = 512 * 1024;
  const auto payload = rng.bytes(bytes);
  std::vector<std::byte> out(bytes);
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
  rig.engine.run();
  EXPECT_EQ(out, payload);
  // Summed over all members: corrupted paquets were rejected by checksum,
  // duplicated ones by their sequence number.
  fwd::ReliabilityStats total;
  for (NodeRank rank = 0; rank < 4; ++rank) {
    const fwd::ReliabilityStats& r =
        rig.vc->gateway_stats(rank).reliability;
    total.corrupt_drops += r.corrupt_drops;
    total.dup_drops += r.dup_drops;
  }
  EXPECT_GT(rig.myri.fault_injector()->stats().corrupted +
                rig.sci.fault_injector()->stats().corrupted,
            0u);
  EXPECT_GT(rig.myri.fault_injector()->stats().duplicated +
                rig.sci.fault_injector()->stats().duplicated,
            0u);
  EXPECT_GT(total.corrupt_drops, 0u);
  EXPECT_GT(total.dup_drops, 0u);
}

TEST(Reliable, PaquetBuffersReturnToTheirPools) {
  // A window-16 relay under drop, corruption and duplication runs every
  // pooled paquet buffer: wire packets, reliable wire buffers, receive
  // staging, the reorder buffer, retransmits and the gateway's stored
  // fragments. Each must be back in its pool once the run is over, and a
  // second identical batch must be served by the buffers the first made.
  fwd::VcOptions options = reliable_options();
  options.reliable.window = 16;
  PaperRig rig(options);
  net::FaultPlan plan;
  plan.seed = 5;
  plan.drop_rate = 0.04;
  plan.corrupt_rate = 0.04;
  plan.duplicate_rate = 0.04;
  const auto inject = [&] {
    rig.myri.set_fault_plan(plan);
    rig.sci.set_fault_plan(plan);
  };
  const std::vector<const util::BufferPool*> pools = {
      &rig.vc->buffer_pool(), &rig.myri.buffer_pool(), &rig.sci.buffer_pool()};
  const auto made = [&] {
    std::vector<std::uint64_t> counts;
    for (const util::BufferPool* pool : pools) {
      counts.push_back(pool->takes() - pool->reuses());
    }
    return counts;
  };
  util::Rng rng(23);
  const std::vector<std::vector<std::byte>> batch = {rng.bytes(1 << 20),
                                                     rng.bytes(100)};
  const auto send_batch = [&] {
    for (const std::vector<std::byte>& payload : batch) {
      auto msg = rig.ep(rig.myri_node()).begin_packing(rig.sci_node());
      msg.pack(payload);
      msg.end_packing();
    }
  };
  int intact = 0;
  const auto receive_batch = [&] {
    for (const std::vector<std::byte>& payload : batch) {
      std::vector<std::byte> out(payload.size());
      auto msg = rig.ep(rig.sci_node()).begin_unpacking();
      msg.unpack(out);
      msg.end_unpacking();
      intact += out == payload ? 1 : 0;
    }
  };
  std::vector<std::uint64_t> made_by_first;
  inject();
  rig.engine.spawn("s", send_batch);
  rig.engine.spawn("r", [&] {
    receive_batch();
    made_by_first = made();
    // The second batch meets the same fault sequence.
    inject();
    rig.engine.spawn("s2", send_batch);
    receive_batch();
  });
  rig.engine.run();
  EXPECT_EQ(intact, 4);
  fwd::ReliabilityStats total;
  for (NodeRank rank = 0; rank < 3; ++rank) {
    const fwd::ReliabilityStats& r = rig.vc->gateway_stats(rank).reliability;
    total.fast_retransmits += r.fast_retransmits;
    total.dup_drops += r.dup_drops;
    total.corrupt_drops += r.corrupt_drops;
  }
  // A fast retransmit answers the acks of paquets parked behind a hole.
  EXPECT_GT(total.fast_retransmits, 0u);
  EXPECT_GT(total.dup_drops, 0u);
  EXPECT_GT(total.corrupt_drops, 0u);
  // Every buffer is idle again, except those a network's packets still
  // hold: packets left queued at a NIC when the run ended, such as late
  // retransmits of a finished stream that nothing reads.
  const auto queued = [](const net::Network& network) {
    std::size_t packets = 0;
    for (int i = 0; i < static_cast<int>(network.size()); ++i) {
      packets += network.nic(i).queued();
    }
    return packets;
  };
  const std::vector<std::size_t> held = {0, queued(rig.myri),
                                         queued(rig.sci)};
  const std::vector<std::uint64_t> made_by_both = made();
  for (std::size_t i = 0; i < pools.size(); ++i) {
    EXPECT_GT(made_by_both[i], 0u) << "pool " << i;
    EXPECT_EQ(pools[i]->idle() + held[i], made_by_both[i]) << "pool " << i;
    EXPECT_EQ(made_by_both[i], made_by_first[i]) << "pool " << i;
  }
}

TEST(Reliable, GatewayCrashFailsOverToAlternate) {
  // Two gateways bridge the clusters; the preferred one (gw1, rank 1)
  // crashes mid-message. The sender must declare it dead and replay the
  // message through gw2 — the application sees nothing but delay.
  DualGatewayRig rig(reliable_options());
  const sim::Time crash_at = sim::milliseconds(4);
  net::FaultPlan myri_plan;
  myri_plan.crashes.push_back({/*nic_index=*/1, crash_at});  // gw1 on myri
  rig.myri.set_fault_plan(myri_plan);
  net::FaultPlan sci_plan;
  sci_plan.crashes.push_back({/*nic_index=*/0, crash_at});  // gw1 on sci
  rig.sci.set_fault_plan(sci_plan);
  util::Rng rng(23);
  const std::size_t bytes = 1 << 20;
  const auto payload = rng.bytes(bytes);
  std::vector<std::byte> out(bytes);
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
  const fwd::ReliabilityStats& sender =
      rig.vc->gateway_stats(0).reliability;
  EXPECT_GE(sender.failovers, 1u);
  EXPECT_GE(sender.peers_declared_dead, 1u);
  EXPECT_TRUE(rig.vc->is_dead(1));
  EXPECT_FALSE(rig.vc->is_dead(2));
}

TEST(Reliable, PaquetBuffersReturnAfterAFailover) {
  // A window-16 origin loses its gateway with paquets in flight: the
  // abandoned window's wire buffers go back to the channel's pool with
  // the dead hop's sender, and so does whatever the crashed relay held.
  fwd::VcOptions options = reliable_options();
  options.reliable.window = 16;
  DualGatewayRig rig(options);
  const sim::Time crash_at = sim::milliseconds(4);
  net::FaultPlan myri_plan;
  myri_plan.crashes.push_back({/*nic_index=*/1, crash_at});  // gw1 on myri
  rig.myri.set_fault_plan(myri_plan);
  net::FaultPlan sci_plan;
  sci_plan.crashes.push_back({/*nic_index=*/0, crash_at});  // gw1 on sci
  rig.sci.set_fault_plan(sci_plan);
  const auto payload = util::Rng(24).bytes(1 << 20);
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
  EXPECT_GE(rig.vc->gateway_stats(0).reliability.failovers, 1u);
  const util::BufferPool& pool = rig.vc->buffer_pool();
  EXPECT_GT(pool.takes(), 0u);
  EXPECT_EQ(pool.idle(), pool.takes() - pool.reuses());
}

TEST(Failures, RoutingRebuildDuringPlainRelayLeavesMessageIntact) {
  // Regression test for route lifetime under concurrent table rebuilds:
  // while gw1 relays a plain (non-reliable) GTM message, another actor
  // declares gw2 dead. mark_dead rebuilds the routing table in place,
  // which frees every Route's old hop storage — so a relay or writer
  // holding `const Route&`/`const Hop&` across a blocking network call
  // would read freed memory. GatewayRelay::relay_message and
  // VcMessageWriter copy routes by value precisely so this interleaving
  // stays safe; the message must arrive bit-identical.
  fwd::VcOptions options;
  options.paquet_size = 16 * 1024;
  DualGatewayRig rig(options);
  util::Rng rng(26);
  const std::size_t bytes = 1 << 20;  // 64 paquets: plenty of mid-relay time
  const auto payload = rng.bytes(bytes);
  std::vector<std::byte> out(bytes);
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
  rig.engine.spawn("saboteur", [&] {
    // Mid-transfer (a 1 MiB forward takes several virtual ms): drop the
    // unused gateway from the table. The m0 -> gw1 -> s0 path survives,
    // but every Route object in the table is rebuilt.
    rig.engine.sleep_for(sim::milliseconds(4));
    rig.vc->mark_dead(2);
  });
  rig.engine.run();
  EXPECT_EQ(out, payload);
  EXPECT_TRUE(rig.vc->is_dead(2));
  EXPECT_FALSE(rig.vc->is_dead(1));
  // The live gateway did all the forwarding.
  EXPECT_EQ(rig.vc->gateway_stats(1).messages_forwarded, 1u);
  EXPECT_EQ(rig.vc->gateway_stats(1).bytes_forwarded, bytes);
}

TEST(Reliable, SoleGatewayCrashRaisesUnreachable) {
  // Only one gateway exists: crashing it mid-message must surface a
  // diagnosable "unreachable" error at the sender — never a hang.
  PaperRig rig(reliable_options());
  const sim::Time crash_at = sim::milliseconds(4);
  net::FaultPlan myri_plan;
  myri_plan.crashes.push_back({/*nic_index=*/1, crash_at});  // gw on myri
  rig.myri.set_fault_plan(myri_plan);
  net::FaultPlan sci_plan;
  sci_plan.crashes.push_back({/*nic_index=*/0, crash_at});  // gw on sci
  rig.sci.set_fault_plan(sci_plan);
  util::Rng rng(24);
  const auto payload = rng.bytes(1 << 20);
  bool diagnosed = false;
  rig.engine.spawn("s", [&] {
    try {
      auto msg = rig.ep(rig.myri_node()).begin_packing(rig.sci_node());
      msg.pack(payload);
      msg.end_packing();
    } catch (const util::PanicError& e) {
      diagnosed =
          std::string(e.what()).find("unreachable") != std::string::npos;
    }
  });
  rig.engine.spawn("r", [&] {
    // The message can never arrive; a bounded wait must come back empty
    // instead of deadlocking the engine.
    auto msg =
        rig.ep(rig.sci_node()).begin_unpacking_until(sim::seconds(5));
    EXPECT_FALSE(msg.has_value());
  });
  rig.engine.run();
  EXPECT_TRUE(diagnosed);
}

TEST(Reliable, LinkDownWindowIsRiddenOutByRetransmits) {
  // A transient outage shorter than the retry budget must be invisible to
  // the application: no failover, just retransmits until the link heals.
  PaperRig rig(reliable_options());
  net::FaultPlan plan;
  // m0 -> gw direction only, from 2 ms to 9 ms (the GTM header leaves at
  // t~0, so only payload paquets hit the window).
  plan.link_downs.push_back(
      {sim::milliseconds(2), sim::milliseconds(9), /*src=*/0, /*dst=*/1});
  rig.myri.set_fault_plan(plan);
  util::Rng rng(25);
  const std::size_t bytes = 1 << 20;
  const auto payload = rng.bytes(bytes);
  std::vector<std::byte> out(bytes);
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
  rig.engine.run();
  EXPECT_EQ(out, payload);
  const fwd::ReliabilityStats& sender =
      rig.vc->gateway_stats(rig.myri_node()).reliability;
  EXPECT_GT(rig.myri.fault_injector()->stats().link_down_drops, 0u);
  EXPECT_GT(sender.retransmits, 0u);
  EXPECT_EQ(sender.failovers, 0u);
  EXPECT_FALSE(rig.vc->is_dead(rig.gateway_rank));
}

TEST(GatewayStatsTest, CountersTrackForwarding) {
  fwd::VcOptions options;
  options.paquet_size = 32 * 1024;
  PaperRig rig(options);
  util::Rng rng(5);
  const std::size_t bytes = 128 * 1024;  // 4 paquets
  const auto payload = rng.bytes(bytes);
  rig.engine.spawn("s", [&] {
    auto msg = rig.ep(rig.myri_node()).begin_packing(rig.sci_node());
    msg.pack(payload);
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    std::vector<std::byte> out(bytes);
    auto msg = rig.ep(rig.sci_node()).begin_unpacking();
    msg.unpack(out);
    msg.end_unpacking();
  });
  rig.engine.run();
  const GatewayStats& stats = rig.vc->gateway_stats(rig.gateway_rank);
  EXPECT_EQ(stats.messages_forwarded, 1u);
  EXPECT_EQ(stats.paquets_forwarded, 4u);
  EXPECT_EQ(stats.bytes_forwarded, bytes);
  // Non-gateway nodes forwarded nothing.
  EXPECT_EQ(rig.vc->gateway_stats(rig.myri_node()).messages_forwarded, 0u);
}

}  // namespace
}  // namespace mad::fwd
