// One-sided RDMA-style forwarding: correctness of the DMA-only path, the
// rendezvous protocol, pin-down cache behaviour under pressure and
// crashes, and the interplay with the reliable layer.
#include <gtest/gtest.h>

#include <vector>

#include "harness/pingpong.hpp"
#include "mad/copy_stats.hpp"
#include "net/fault.hpp"
#include "support/coc_rig.hpp"
#include "util/rng.hpp"

namespace mad::fwd {
namespace {

using testsupport::DualGatewayRig;
using testsupport::PaperRig;

/// One forwarded message of `bytes` with payload verification; returns
/// the one-way virtual time.
template <typename Rig>
sim::Time forward_once(Rig& rig, NodeRank src, NodeRank dst,
                       std::size_t bytes) {
  util::Rng rng(42);
  const auto payload = rng.bytes(bytes);
  std::vector<std::byte> out(bytes);
  sim::Time done = 0;
  rig.engine.spawn("rdma_s", [&rig, &payload, src, dst] {
    auto msg = rig.ep(src).begin_packing(dst);
    msg.pack(payload);
    msg.end_packing();
  });
  rig.engine.spawn("rdma_r", [&rig, &out, &payload, &done, dst] {
    auto msg = rig.ep(dst).begin_unpacking();
    msg.unpack(out);
    msg.end_unpacking();
    EXPECT_EQ(out, payload);
    done = rig.engine.now();
  });
  rig.engine.run();
  return done;
}

VcOptions rdma_options() {
  VcOptions options;
  options.rdma.enabled = true;
  return options;
}

TEST(Rdma, OneSidedForwardingDeliversAndBeatsTwoSided) {
  // Myrinet → SCI is the paper's worst case: the gateway's PIO send leg
  // loses PCI arbitration to the concurrent DMA receive (§3.4.1). The
  // one-sided path moves both legs to bus-master DMA, so the same
  // transfer must complete strictly faster.
  const std::size_t bytes = 4 * 1024 * 1024;
  const auto run = [bytes](bool rdma_on) {
    VcOptions options;
    options.rdma.enabled = rdma_on;
    PaperRig rig(options);
    return harness::measure_vc_oneway(rig.engine, *rig.vc, rig.myri_node(),
                                      rig.sci_node(), bytes)
        .mbps;
  };
  const double two_sided = run(false);
  const double one_sided = run(true);
  EXPECT_GT(one_sided, two_sided * 1.15);
}

TEST(Rdma, OneSidedPathReportsZeroHostCopies) {
  // DMA end to end: the only software copies anywhere are the Safer
  // snapshots of the tiny GTM headers, and the one-sided bucket itself
  // must be exactly empty.
  copy_stats().reset();
  PaperRig rig(rdma_options());
  forward_once(rig, rig.myri_node(), rig.sci_node(), 300'000);
  EXPECT_LT(copy_stats().bytes, 1024u);
  EXPECT_EQ(copy_stats().copies_on(CopyPath::OneSided), 0u);
  EXPECT_EQ(copy_stats().bytes_on(CopyPath::OneSided), 0u);
  const RdmaTotals totals = rig.vc->rdma_totals();
  EXPECT_GT(totals.writes, 0u);
  EXPECT_GE(totals.bytes_written, 300'000u);
}

TEST(Rdma, RendezvousOncePerQualifyingBlockAndCachedOnRepeat) {
  PaperRig rig(rdma_options());
  const std::size_t bytes = 256 * 1024;
  util::Rng rng(7);
  const auto payload = rng.bytes(bytes);
  std::vector<std::byte> out(bytes);
  const int kMessages = 3;
  rig.engine.spawn("s", [&] {
    for (int i = 0; i < kMessages; ++i) {
      auto msg = rig.ep(rig.myri_node()).begin_packing(rig.sci_node());
      msg.pack(payload);
      msg.end_packing();
    }
  });
  rig.engine.spawn("r", [&] {
    for (int i = 0; i < kMessages; ++i) {
      auto msg = rig.ep(rig.sci_node()).begin_unpacking();
      msg.unpack(out);
      msg.end_unpacking();
      EXPECT_EQ(out, payload);
    }
  });
  rig.engine.run();
  const RdmaTotals totals = rig.vc->rdma_totals();
  // Exactly one handshake per qualifying block (one block per message).
  EXPECT_EQ(totals.rendezvous, static_cast<std::uint64_t>(kMessages));
  // The receive region behind the tag is stable, so every rendezvous
  // after the first hits the remote pin-down cache...
  EXPECT_EQ(totals.rendezvous_hits,
            static_cast<std::uint64_t>(kMessages - 1));
  // ...and the gateway's recycled pipeline slots hit the local one.
  EXPECT_GT(totals.cache.hits, totals.cache.misses);
}

TEST(Rdma, BlocksBelowThresholdStayEager) {
  // Sub-threshold blocks keep the two-sided eager path: the handshake and
  // pin cost would outweigh the bus conflict they avoid.
  PaperRig rig(rdma_options());
  forward_once(rig, rig.myri_node(), rig.sci_node(), 8 * 1024);
  const RdmaTotals totals = rig.vc->rdma_totals();
  EXPECT_EQ(totals.writes, 0u);
  EXPECT_EQ(totals.rendezvous, 0u);
}

TEST(Rdma, CapacityPressureEvictsButStaysCorrect) {
  // A one-entry cache thrashes on the relay's alternating pipeline
  // slots — misses and evictions pile up, the payload stays intact.
  VcOptions options = rdma_options();
  options.rdma.cache_capacity = 1;
  PaperRig rig(options);
  forward_once(rig, rig.myri_node(), rig.sci_node(), 512 * 1024);
  const RdmaTotals totals = rig.vc->rdma_totals();
  EXPECT_GT(totals.cache.evictions, 0u);
  EXPECT_GT(totals.writes, 0u);
}

TEST(Rdma, ReliableOneSidedSurvivesLoss) {
  // Reliable mode rides the same one-sided path (writes with completion
  // from a registered send ring): a lossy SCI hop is healed by
  // retransmits that re-send from the ring slot pinned for the first
  // attempt.
  VcOptions options = rdma_options();
  options.reliable.enabled = true;
  PaperRig rig(options);
  net::FaultPlan plan;
  plan.seed = 11;
  plan.drop_rate = 0.15;
  rig.sci.set_fault_plan(plan);
  forward_once(rig, rig.myri_node(), rig.sci_node(), 256 * 1024);
  const RdmaTotals totals = rig.vc->rdma_totals();
  EXPECT_GT(totals.writes, 0u);
  const GatewayStats& gw = rig.vc->gateway_stats(rig.gateway_rank);
  EXPECT_GE(gw.reliability.retransmits, 1u);
  // A retransmit re-sends from the slot its first attempt pinned, and
  // later paquets cycle through the same ring slots, so pins hit.
  EXPECT_GT(totals.cache.hits, 0u);
}

TEST(Rdma, GatewayCrashInvalidatesRegistrations) {
  // gw1 crashes mid-transfer: failover delivers via gw2, and every
  // registration cached on gw1's adapters is invalidated with it.
  // window > 1 selects the cut-through relay, so gw1 has live SCI-side
  // registrations (pinned send-ring slots) when the crash lands — the
  // store-and-forward relay would still be receiving upstream.
  VcOptions options = rdma_options();
  options.reliable.enabled = true;
  options.reliable.window = 4;
  DualGatewayRig rig(options);
  const sim::Time crash_at = sim::milliseconds(4);
  net::FaultPlan myri_plan;
  myri_plan.crashes.push_back({/*nic_index=*/1, crash_at});  // gw1 on myri
  rig.myri.set_fault_plan(myri_plan);
  net::FaultPlan sci_plan;
  sci_plan.crashes.push_back({/*nic_index=*/0, crash_at});  // gw1 on sci
  rig.sci.set_fault_plan(sci_plan);
  forward_once(rig, /*src=*/0, /*dst=*/3, 1024 * 1024);
  EXPECT_TRUE(rig.vc->is_dead(1));
  const RdmaTotals totals = rig.vc->rdma_totals();
  EXPECT_GE(totals.cache.invalidations, 1u);
  EXPECT_GT(totals.writes, 0u);
}

/// What one run of the heap-layout scenario produced.
struct HeapProbe {
  std::vector<sim::Time> delivered;
  RdmaTotals rdma;
  sim::Engine::Stats engine;
};

/// Six 512 KB messages Myrinet → SCI through a reliable one-sided relay
/// (window 8, 32 KB paquets). With `perturb` set the sender allocates and
/// holds sixteen paquet-sized buffers after each message, which moves
/// every later heap allocation.
HeapProbe heap_probe(bool perturb) {
  VcOptions options = rdma_options();
  options.reliable.enabled = true;
  options.reliable.window = 8;
  options.paquet_size = 32 * 1024;
  PaperRig rig(options);
  constexpr std::size_t kBytes = 512 * 1024;
  constexpr int kMessages = 6;
  util::Rng rng(3);
  const auto payload = rng.bytes(kBytes);
  std::vector<std::vector<std::byte>> held;
  HeapProbe probe;
  rig.engine.spawn("s", [&] {
    for (int i = 0; i < kMessages; ++i) {
      auto msg = rig.ep(rig.myri_node()).begin_packing(rig.sci_node());
      msg.pack(payload);
      msg.end_packing();
      for (int b = 0; perturb && b < 16; ++b) {
        held.emplace_back(options.paquet_size);
      }
    }
  });
  rig.engine.spawn("r", [&] {
    std::vector<std::byte> out(kBytes);
    for (int i = 0; i < kMessages; ++i) {
      auto msg = rig.ep(rig.sci_node()).begin_unpacking();
      msg.unpack(out);
      msg.end_unpacking();
      EXPECT_EQ(out, payload);
      probe.delivered.push_back(rig.engine.now());
    }
  });
  rig.engine.run();
  probe.rdma = rig.vc->rdma_totals();
  probe.engine = rig.engine.stats();
  return probe;
}

TEST(Rdma, SameScenarioSameResultWhateverTheHeap) {
  // Registrations key on simulated regions, so neither the allocator nor
  // what else the process holds can decide whether a pin hits and what
  // it costs in virtual time.
  const HeapProbe first = heap_probe(false);
  EXPECT_GT(first.rdma.writes, 0u);
  EXPECT_GT(first.rdma.cache.hits, 0u);
  for (const bool perturb : {true, false}) {
    SCOPED_TRACE(perturb ? "perturbed heap" : "rerun");
    const HeapProbe again = heap_probe(perturb);
    EXPECT_EQ(again.delivered, first.delivered);
    EXPECT_EQ(again.rdma.cache.hits, first.rdma.cache.hits);
    EXPECT_EQ(again.rdma.cache.misses, first.rdma.cache.misses);
    EXPECT_EQ(again.rdma.cache.evictions, first.rdma.cache.evictions);
    EXPECT_EQ(again.rdma.writes, first.rdma.writes);
    EXPECT_EQ(again.rdma.rendezvous, first.rdma.rendezvous);
    EXPECT_EQ(again.rdma.rendezvous_hits, first.rdma.rendezvous_hits);
    EXPECT_EQ(again.engine.switches, first.engine.switches);
    EXPECT_EQ(again.engine.timer_fires, first.engine.timer_fires);
    EXPECT_EQ(again.engine.notifies, first.engine.notifies);
    EXPECT_EQ(again.engine.noop_notifies, first.engine.noop_notifies);
    EXPECT_EQ(again.engine.direct_handoffs, first.engine.direct_handoffs);
    EXPECT_EQ(again.engine.scheduler_rounds, first.engine.scheduler_rounds);
    EXPECT_EQ(again.engine.stacks_mapped, first.engine.stacks_mapped);
  }
}

}  // namespace
}  // namespace mad::fwd
