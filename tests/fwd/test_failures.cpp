// Failure injection and misuse handling: the library must fail loudly and
// cleanly (diagnosable exceptions, clean engine unwinding), never hang or
// corrupt unrelated state.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "fwd/egress.hpp"
#include "harness/scenario.hpp"
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

// ------------------------------------------------- faults past the gateway
//
// A reliable gateway seals every egress trailer from the digest its
// ingress verification computed. Corruption and duplication injected only
// on the network past the gateway test those seals: a wrongly sealed
// trailer fails the next receiver's check on every attempt, so it would
// show up as more corrupt drops than corrupted packets, and as an
// "unreachable" panic once the hop's retry budget ran out.

/// Corruption and duplication of every packet of faultable size (not the
/// framing, not the block headers).
net::FaultPlan corrupt_and_duplicate() {
  net::FaultPlan plan;
  plan.seed = 8;
  plan.corrupt_rate = 0.06;
  plan.duplicate_rate = 0.06;
  return plan;
}

/// What the receiver of relay_messages saw.
struct Delivery {
  int intact = 0;  // messages unpacked in order with the bytes packed
  int extra = 0;   // messages that arrived after the last one sent
};

/// Sends `messages` distinct messages of `bytes` from `src` to `dst`. The
/// receiver unpacks them, then waits a virtual second for a stray copy;
/// meanwhile every relay finishes.
template <typename Rig>
Delivery relay_messages(Rig& rig, NodeRank src, NodeRank dst, int messages,
                        std::size_t bytes) {
  const auto payload = [bytes](int m) {
    return util::Rng(40 + static_cast<std::uint64_t>(m)).bytes(bytes);
  };
  Delivery delivery;
  rig.engine.spawn("s", [&] {
    for (int m = 0; m < messages; ++m) {
      const std::vector<std::byte> bytes_out = payload(m);
      auto msg = rig.ep(src).begin_packing(dst);
      msg.pack(bytes_out);
      msg.end_packing();
    }
  });
  rig.engine.spawn("r", [&] {
    for (int m = 0; m < messages; ++m) {
      std::vector<std::byte> out(bytes);
      auto msg = rig.ep(dst).begin_unpacking();
      msg.unpack(out);
      msg.end_unpacking();
      delivery.intact += out == payload(m) ? 1 : 0;
    }
    if (rig.ep(dst).begin_unpacking_until(rig.engine.now() +
                                          sim::seconds(1))) {
      ++delivery.extra;
    }
  });
  rig.engine.run();
  return delivery;
}

/// The drop and dead-peer counters of ranks [0, nodes), summed.
fwd::ReliabilityStats total_reliability(const VirtualChannel& vc,
                                        NodeRank nodes) {
  fwd::ReliabilityStats total;
  for (NodeRank rank = 0; rank < nodes; ++rank) {
    const fwd::ReliabilityStats& r = vc.gateway_stats(rank).reliability;
    total.dup_drops += r.dup_drops;
    total.corrupt_drops += r.corrupt_drops;
    total.peers_declared_dead += r.peers_declared_dead;
  }
  return total;
}

/// The messages every gateway of ranks [0, nodes) relayed, summed.
std::uint64_t total_forwarded(const VirtualChannel& vc, NodeRank nodes) {
  std::uint64_t total = 0;
  for (NodeRank rank = 0; rank < nodes; ++rank) {
    total += vc.gateway_stats(rank).messages_forwarded;
  }
  return total;
}

enum class EgressPath { StoreThenSend, CutThrough, Striped, FlowAdmission };

struct EgressFaultCase {
  const char* name;
  EgressPath path;
};

void PrintTo(const EgressFaultCase& c, std::ostream* os) { *os << c.name; }

class EgressHopFaults : public ::testing::TestWithParam<EgressFaultCase> {};

TEST_P(EgressHopFaults, EveryCorruptionCostsOneDrop) {
  // Four 256 KB messages, Myrinet to SCI, with faults on SCI only: the
  // gateway's ingress is clean, so every paquet the final receiver drops
  // as corrupt is one the injector corrupted on the egress hop.
  constexpr int kMessages = 4;
  constexpr std::size_t kBytes = 256 * 1024;
  const EgressFaultCase& c = GetParam();
  fwd::VcOptions options = reliable_options();
  options.reliable.window = c.path == EgressPath::StoreThenSend ? 1 : 16;
  if (c.path == EgressPath::FlowAdmission) {
    options.flow.enabled = true;
    options.flow.admission.enabled = true;
  }
  Delivery delivery;
  std::uint64_t corrupted = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t rails = 1;
  fwd::ReliabilityStats total;
  if (c.path == EgressPath::Striped) {
    options.max_rails = 2;
    rails = 2;
    testsupport::DisjointRailRig rig(options);
    rig.sci.set_fault_plan(corrupt_and_duplicate());
    delivery = relay_messages(rig, 0, 3, kMessages, kBytes);
    corrupted = rig.sci.fault_injector()->stats().corrupted;
    duplicated = rig.sci.fault_injector()->stats().duplicated;
    // m0 also owns two NICs, so it counts as a gateway that relays nothing.
    forwarded = total_forwarded(*rig.vc, 4);
    total = total_reliability(*rig.vc, 4);
  } else {
    PaperRig rig(options);
    rig.sci.set_fault_plan(corrupt_and_duplicate());
    delivery = relay_messages(rig, rig.myri_node(), rig.sci_node(),
                              kMessages, kBytes);
    corrupted = rig.sci.fault_injector()->stats().corrupted;
    duplicated = rig.sci.fault_injector()->stats().duplicated;
    forwarded = total_forwarded(*rig.vc, 3);
    total = total_reliability(*rig.vc, 3);
  }
  EXPECT_EQ(delivery.intact, kMessages);
  EXPECT_EQ(delivery.extra, 0);
  EXPECT_EQ(forwarded, kMessages * rails);
  EXPECT_GT(corrupted, 0u) << "nothing corrupted: the test proves nothing";
  EXPECT_GT(duplicated, 0u);
  EXPECT_EQ(total.corrupt_drops, corrupted);
  EXPECT_GT(total.dup_drops, 0u);
  EXPECT_EQ(total.peers_declared_dead, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EgressHopFaults,
    ::testing::Values(
        EgressFaultCase{"StoreThenSend", EgressPath::StoreThenSend},
        EgressFaultCase{"CutThrough", EgressPath::CutThrough},
        EgressFaultCase{"Striped", EgressPath::Striped},
        EgressFaultCase{"FlowAdmission", EgressPath::FlowAdmission}),
    [](const ::testing::TestParamInfo<EgressFaultCase>& info) {
      return std::string(info.param.name);
    });

/// m0 -myri0- gw1 -sci0- {gw2, gw3} -myri1- e0: gw1's egress hop goes to
/// gw2, with gw3 as its alternate.
constexpr const char* kEgressFailoverConfig = R"(
network myri0 BIP/Myrinet
network sci0  SISCI/SCI
network myri1 BIP/Myrinet
node m0  myri0
node gw1 myri0 sci0
node gw2 sci0 myri1
node gw3 sci0 myri1
node e0  myri1
)";

TEST(Reliable, EgressHopFailoverResealsTheStoredFragments) {
  // gw2 crashes mid-message, so gw1's egress hop exhausts its retry budget
  // and gw1 replays its stored fragments to gw3 on a fresh epoch: every
  // replayed trailer is sealed from a stored digest under that epoch. The
  // last hop also corrupts and duplicates, and e0 drops only what was
  // corrupted.
  fwd::VcOptions options = reliable_options();
  options.reliable.window = 16;
  harness::ConfigWorld world(topo::parse_topo_config(kEgressFailoverConfig),
                             options);
  const NodeRank gw1 = world.rank_of("gw1");
  const NodeRank gw2 = world.rank_of("gw2");
  const NodeRank e0 = world.rank_of("e0");
  net::Network& sci = *world.networks[1];
  net::Network& last = *world.networks[2];
  const sim::Time crash_at = sim::milliseconds(6);
  net::FaultPlan sci_plan;
  sci_plan.crashes.push_back(
      {static_cast<int>(world.domain->nic_of(gw2, sci).index()), crash_at});
  sci.set_fault_plan(sci_plan);
  net::FaultPlan last_plan = corrupt_and_duplicate();
  last_plan.crashes.push_back(
      {static_cast<int>(world.domain->nic_of(gw2, last).index()), crash_at});
  last.set_fault_plan(last_plan);
  const Delivery delivery =
      relay_messages(world, world.rank_of("m0"), e0, 1, 1 << 20);
  EXPECT_EQ(delivery.intact, 1);
  EXPECT_EQ(delivery.extra, 0);
  const fwd::ReliabilityStats& relay = world.vc->gateway_stats(gw1).reliability;
  EXPECT_EQ(relay.failovers, 1u);
  EXPECT_EQ(relay.peers_declared_dead, 1u);
  EXPECT_TRUE(world.vc->is_dead(gw2));
  const fwd::ReliabilityStats total = total_reliability(*world.vc, 5);
  EXPECT_GT(last.fault_injector()->stats().corrupted, 0u);
  EXPECT_EQ(total.corrupt_drops, last.fault_injector()->stats().corrupted);
}

/// Buffers of the packet pool that `networks` share (the fabric's) that
/// are neither idle nor held by a packet still queued at one of their
/// NICs.
std::int64_t fabric_buffers_out(const std::vector<net::Network*>& networks) {
  const util::BufferPool& pool = networks.front()->buffer_pool();
  auto out = static_cast<std::int64_t>(pool.takes() - pool.reuses()) -
             static_cast<std::int64_t>(pool.idle());
  for (const net::Network* network : networks) {
    EXPECT_EQ(&network->buffer_pool(), &pool);
    for (int i = 0; i < static_cast<int>(network->size()); ++i) {
      out -= static_cast<std::int64_t>(network->nic(i).queued());
    }
  }
  return out;
}

TEST(Reliable, StoredFragmentsReturnToTheFabricPool) {
  // A reliable gateway keeps each fragment in the network buffer it
  // arrived in, a buffer of the fabric's packet pool, until its egress is
  // done with the message. On every way a gateway stores fragments, each
  // buffer must be idle again after the run, or held by a queued packet.
  constexpr std::size_t kBytes = 1 << 18;
  {
    SCOPED_TRACE("cut-through (window 1)");
    PaperRig rig(reliable_options());
    const Delivery delivery =
        relay_messages(rig, rig.myri_node(), rig.sci_node(), 2, kBytes);
    EXPECT_EQ(delivery.intact, 2);
    EXPECT_EQ(total_forwarded(*rig.vc, 3), 2u);
    EXPECT_EQ(fabric_buffers_out({&rig.myri, &rig.sci}), 0);
  }
  {
    SCOPED_TRACE("cut-through (window 16)");
    fwd::VcOptions options = reliable_options();
    options.reliable.window = 16;
    PaperRig rig(options);
    const Delivery delivery =
        relay_messages(rig, rig.myri_node(), rig.sci_node(), 2, kBytes);
    EXPECT_EQ(delivery.intact, 2);
    EXPECT_EQ(total_forwarded(*rig.vc, 3), 2u);
    EXPECT_EQ(fabric_buffers_out({&rig.myri, &rig.sci}), 0);
  }
  {
    SCOPED_TRACE("striped relay");
    fwd::VcOptions options = reliable_options();
    options.max_rails = 2;
    testsupport::DisjointRailRig rig(options);
    const Delivery delivery = relay_messages(rig, 0, 3, 2, kBytes);
    EXPECT_EQ(delivery.intact, 2);
    // Each message crosses both gateways, one rail each.
    EXPECT_EQ(total_forwarded(*rig.vc, 4), 4u);
    EXPECT_EQ(fabric_buffers_out({&rig.myri_a, &rig.myri_b, &rig.sci}), 0);
  }
  {
    SCOPED_TRACE("gateway failover mid-message");
    // gw2 crashes mid-message: gw1 replays its stored fragments to gw3.
    fwd::VcOptions options = reliable_options();
    options.reliable.window = 16;
    harness::ConfigWorld world(topo::parse_topo_config(kEgressFailoverConfig),
                               options);
    const NodeRank gw1 = world.rank_of("gw1");
    const NodeRank gw2 = world.rank_of("gw2");
    const sim::Time crash_at = sim::milliseconds(6);
    for (net::Network* network : {world.networks[1], world.networks[2]}) {
      net::FaultPlan plan;
      plan.crashes.push_back(
          {static_cast<int>(world.domain->nic_of(gw2, *network).index()),
           crash_at});
      network->set_fault_plan(plan);
    }
    const Delivery delivery =
        relay_messages(world, world.rank_of("m0"), world.rank_of("e0"), 1,
                       1 << 20);
    EXPECT_EQ(delivery.intact, 1);
    EXPECT_EQ(world.vc->gateway_stats(gw1).reliability.failovers, 1u);
    EXPECT_EQ(fabric_buffers_out(world.networks), 0);
  }
}

TEST(Reliable, PaquetBuffersReturnToTheirPools) {
  // A window-16 relay under drop, corruption and duplication runs every
  // pooled paquet buffer: wire packets (every reliable paquet and
  // retransmit crosses in one), dropped packets, duplicates' twins, the
  // reorder buffer and the gateway's stored fragments. Each must be back
  // in its pool once the run is over, and a second identical batch must
  // be served by the buffers the first made.
  fwd::VcOptions options = reliable_options();
  options.reliable.window = 16;
  PaperRig rig(options);
  net::FaultPlan plan;
  plan.seed = 6;
  plan.drop_rate = 0.04;
  plan.corrupt_rate = 0.04;
  plan.duplicate_rate = 0.04;
  const auto inject = [&] {
    rig.myri.set_fault_plan(plan);
    rig.sci.set_fault_plan(plan);
  };
  // The fabric's packet pool, which both networks share (a pool listed
  // once per network would be counted twice) and which the gateway's
  // stored fragments come from.
  ASSERT_EQ(&rig.myri.buffer_pool(), &rig.sci.buffer_pool());
  const std::vector<const util::BufferPool*> pools = {&rig.myri.buffer_pool()};
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
  // Every buffer is idle again, except those the networks' packets still
  // hold: packets left queued at a NIC when the run ended, such as late
  // retransmits of a finished stream that nothing reads.
  const auto queued = [](const net::Network& network) {
    std::size_t packets = 0;
    for (int i = 0; i < static_cast<int>(network.size()); ++i) {
      packets += network.nic(i).queued();
    }
    return packets;
  };
  const std::vector<std::size_t> held = {queued(rig.myri) + queued(rig.sci)};
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
  // packets sent toward the crashed gateway go back to the fabric's pool
  // (dropped, or consumed by nobody and still queued), and so do the
  // stored fragments the crashed relay held.
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
  // Both networks share the fabric's packet pool: count it once, against
  // the packets queued on either network.
  ASSERT_EQ(&rig.myri.buffer_pool(), &rig.sci.buffer_pool());
  const util::BufferPool& pool = rig.myri.buffer_pool();
  EXPECT_GT(pool.takes(), 0u);
  std::size_t queued = 0;
  for (const net::Network* network : {&rig.myri, &rig.sci}) {
    for (int i = 0; i < static_cast<int>(network->size()); ++i) {
      queued += network->nic(i).queued();
    }
  }
  EXPECT_EQ(pool.idle() + queued, pool.takes() - pool.reuses());
}

TEST(Failures, ShutdownWithQueuedFlowReadersUnwindsCleanly) {
  // Flow mode queues each accepted message for the relay actor of its
  // upstream hop. Two origins share the gateway's Myrinet announce
  // channel; the gateway's SCI egress is down, so each hop's actor stays
  // inside its first message while the second, already accepted, waits
  // in the hop's queue. An actor then fails and the engine unwinds: the
  // queued readers must go with the actors' stacks, and every pooled
  // buffer must come back.
  fwd::VcOptions options = reliable_options();
  options.reliable.window = 4;
  options.flow.enabled = true;
  PaperRig rig(options, /*myri_endpoints=*/2, /*sci_endpoints=*/1);
  net::FaultPlan plan;
  // SCI NIC indices: gw=0, s0=1.
  plan.add_symmetric_link_down(0, sim::seconds(1), 0, 1);
  rig.sci.set_fault_plan(plan);
  const auto payload = util::Rng(27).bytes(4 * 1024);
  std::vector<int> second_begun(2, 0);
  for (int origin = 0; origin < 2; ++origin) {
    rig.engine.spawn("s" + std::to_string(origin), [&, origin] {
      for (int m = 0; m < 2; ++m) {
        auto msg = rig.ep(rig.myri_node(origin)).begin_packing(rig.sci_node());
        second_begun[static_cast<std::size_t>(origin)] = m;
        msg.pack(payload);
        msg.end_packing();
      }
    });
  }
  rig.engine.spawn("r", [&] {
    std::vector<std::byte> out(payload.size());
    auto msg = rig.ep(rig.sci_node()).begin_unpacking();
    msg.unpack(out);
    msg.end_unpacking();
  });
  rig.engine.spawn("fail", [&] {
    // Well inside the gateway's retry budget toward s0.
    rig.engine.sleep_for(sim::milliseconds(30));
    throw std::runtime_error("application failure");
  });
  EXPECT_THROW(rig.engine.run(), std::runtime_error);
  // Both second messages were announced, and the gateway read only the
  // first message of each hop: the second ones were still queued.
  EXPECT_EQ(second_begun, std::vector<int>({1, 1}));
  const fwd::GatewayStats& gw = rig.vc->gateway_stats(rig.gateway_rank);
  EXPECT_EQ(gw.paquets_forwarded, 2u);
  EXPECT_EQ(gw.messages_forwarded, 0u);
  ASSERT_EQ(&rig.myri.buffer_pool(), &rig.sci.buffer_pool());
  const util::BufferPool& pool = rig.myri.buffer_pool();
  EXPECT_GT(pool.takes(), 0u);
  std::size_t queued = 0;
  for (const net::Network* network : {&rig.myri, &rig.sci}) {
    for (int i = 0; i < static_cast<int>(network->size()); ++i) {
      queued += network->nic(i).queued();
    }
  }
  EXPECT_EQ(pool.idle() + queued, pool.takes() - pool.reuses());
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
  // diagnosable "unreachable" error at the sender and at the receiver,
  // which already holds the head of the message — never a hang.
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
  std::string receiver_error;
  rig.engine.spawn("r", [&] {
    // The gateway relayed the head of the message before it crashed; the
    // rest can never arrive, and no replay can reach this node.
    auto msg =
        rig.ep(rig.sci_node()).begin_unpacking_until(sim::seconds(5));
    ASSERT_TRUE(msg.has_value());
    std::vector<std::byte> out(payload.size());
    try {
      msg->unpack(out);
    } catch (const util::PanicError& e) {
      receiver_error = e.what();
    }
  });
  rig.engine.run();
  EXPECT_TRUE(diagnosed);
  EXPECT_NE(receiver_error.find("cannot adopt the stream from origin 0: "
                                "origin unreachable"),
            std::string::npos)
      << receiver_error;
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
