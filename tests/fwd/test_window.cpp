// Sliding-window reliable forwarding (fwd/reliable.hpp): window > 1
// pipelining, loss recovery through the reorder buffer and selective acks,
// fast retransmit on duplicate cumulative acks, RTO backoff clamping,
// mid-stream failover with stream adoption, per-rail windows under
// striping, and option validation.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "fwd/reliable.hpp"
#include "fwd/stripe.hpp"
#include "net/fault.hpp"
#include "sim/trace.hpp"
#include "support/coc_rig.hpp"
#include "util/panic.hpp"
#include "util/rng.hpp"

namespace mad::fwd {
namespace {

using testsupport::DisjointRailRig;
using testsupport::DualGatewayRig;
using testsupport::PaperRig;

fwd::VcOptions windowed_options(int window,
                                std::uint32_t paquet_size = 16 * 1024) {
  fwd::VcOptions options;
  options.paquet_size = paquet_size;
  options.reliable.enabled = true;
  options.reliable.window = window;
  return options;
}

/// One reliable m0 -> s0 transfer on a PaperRig with the given options and
/// fault plan on the SCI hop; checks the payload and returns the rig for
/// stat inspection.
void run_transfer(PaperRig& rig, std::size_t bytes, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto payload = rng.bytes(bytes);
  auto out = std::make_shared<std::vector<std::byte>>(bytes);
  rig.engine.spawn("s", [&rig, payload] {
    auto msg = rig.ep(rig.myri_node()).begin_packing(rig.sci_node());
    msg.pack(payload);
    msg.end_packing();
  });
  rig.engine.spawn("r", [&rig, out] {
    auto msg = rig.ep(rig.sci_node()).begin_unpacking();
    msg.unpack(*out);
    msg.end_unpacking();
  });
  rig.engine.run();
  EXPECT_EQ(*out, payload) << "window protocol corrupted the payload";
}

TEST(Window, CleanTransferPipelinesWithoutRetransmits) {
  PaperRig rig(windowed_options(16));
  run_transfer(rig, 1 << 20, /*seed=*/31);
  // Nothing was lost, so nothing may have been resent or timed out.
  for (NodeRank rank = 0; rank < 3; ++rank) {
    const fwd::ReliabilityStats& r = rig.vc->gateway_stats(rank).reliability;
    EXPECT_EQ(r.retransmits, 0u) << "node " << rank;
    EXPECT_EQ(r.fast_retransmits, 0u) << "node " << rank;
    EXPECT_EQ(r.timeouts, 0u) << "node " << rank;
  }
  EXPECT_GT(rig.vc->gateway_stats(0).reliability.paquets_acked, 0u);
}

TEST(Window, LossyTransferSurvivesAtEveryWindow) {
  for (const int window : {2, 4, 16}) {
    PaperRig rig(windowed_options(window));
    net::FaultPlan plan;
    plan.seed = 1;
    plan.drop_rate = 0.02;
    rig.sci.set_fault_plan(plan);
    run_transfer(rig, 1 << 20, /*seed=*/32);
    EXPECT_GT(rig.sci.fault_injector()->stats().dropped, 0u)
        << "window " << window << ": plan never dropped anything";
    EXPECT_GT(rig.vc->gateway_stats(rig.gateway_rank).reliability.retransmits,
              0u)
        << "window " << window;
  }
}

TEST(Window, HeavyFaultMixExercisesTheReorderBuffer) {
  // Drops force out-of-order arrival (paquets behind the hole keep
  // landing at window 32), duplicates hit the dup filter for both parked
  // and released paquets, corruption hits the checksum.
  PaperRig rig(windowed_options(32));
  net::FaultPlan plan;
  plan.seed = 11;
  plan.drop_rate = 0.05;
  plan.duplicate_rate = 0.05;
  plan.corrupt_rate = 0.02;
  rig.myri.set_fault_plan(plan);
  rig.sci.set_fault_plan(plan);
  run_transfer(rig, 2 << 20, /*seed=*/33);
  fwd::ReliabilityStats total;
  for (NodeRank rank = 0; rank < 3; ++rank) {
    const fwd::ReliabilityStats& r = rig.vc->gateway_stats(rank).reliability;
    total.retransmits += r.retransmits;
    total.dup_drops += r.dup_drops;
    total.corrupt_drops += r.corrupt_drops;
  }
  EXPECT_GT(total.retransmits, 0u);
  EXPECT_GT(total.dup_drops, 0u);
  EXPECT_GT(total.corrupt_drops, 0u);
}

TEST(Window, DuplicateCumAcksTriggerFastRetransmit) {
  // A dropped paquet followed by in-window successors makes the receiver
  // re-post its cumulative ack per successor; three duplicates must resend
  // the window's front before its timer expires.
  PaperRig rig(windowed_options(16));
  net::FaultPlan plan;
  plan.seed = 13;
  plan.drop_rate = 0.03;
  rig.sci.set_fault_plan(plan);
  run_transfer(rig, 2 << 20, /*seed=*/34);
  const fwd::ReliabilityStats& gw =
      rig.vc->gateway_stats(rig.gateway_rank).reliability;
  EXPECT_GT(gw.fast_retransmits, 0u);
  EXPECT_GE(gw.retransmits, gw.fast_retransmits)
      << "fast retransmits are a subset of retransmits";
}

TEST(Window, WindowOneNeverFastRetransmits) {
  // A one-paquet window has no later paquet to sack or to draw duplicate
  // acks, so its losses are recovered by the retransmit timer.
  PaperRig rig(windowed_options(1));
  net::FaultPlan plan;
  plan.seed = 1;
  plan.drop_rate = 0.02;
  rig.sci.set_fault_plan(plan);
  run_transfer(rig, 1 << 20, /*seed=*/35);
  const fwd::ReliabilityStats& gw =
      rig.vc->gateway_stats(rig.gateway_rank).reliability;
  EXPECT_GT(gw.retransmits, 0u);
  EXPECT_EQ(gw.fast_retransmits, 0u);
}

TEST(Window, WindowOneRelaysCutThrough) {
  // Window 1 runs the same relay as every other window: the gateway sends
  // paquet k while paquet k+1 arrives (paper §2.2.2, Fig 4), so its first
  // send begins before its last receive ends.
  sim::TraceSink trace;
  trace.enable();
  fwd::VcOptions options = windowed_options(1);
  options.trace = &trace;
  PaperRig rig(options);
  util::Rng rng(41);
  const auto payload = rng.bytes(1 << 20);
  std::vector<std::byte> out(payload.size());
  rig.engine.spawn("s", [&] {
    auto msg = rig.ep(rig.sci_node()).begin_packing(rig.myri_node());
    msg.pack(payload);
    msg.end_packing();
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.ep(rig.myri_node()).begin_unpacking();
    msg.unpack(out);
    msg.end_unpacking();
  });
  rig.engine.run();
  EXPECT_EQ(out, payload);
  const std::vector<sim::TraceEvent> recvs = trace.by_name("gw.recv");
  const std::vector<sim::TraceEvent> sends = trace.by_name("gw.send");
  ASSERT_GT(recvs.size(), 1u);
  ASSERT_EQ(sends.size(), recvs.size());
  EXPECT_LT(sends.front().begin, recvs.back().end)
      << "the gateway stored the whole message before sending";
}

TEST(Window, WindowOneSamplesEveryRoundTrip) {
  // Window 1 feeds the same RTO estimator as every other window: on a
  // clean hop each acked paquet is one Karn-valid RTT sample.
  PaperRig rig(windowed_options(1));
  rig.fabric.metrics().enable();
  run_transfer(rig, 1 << 20, /*seed=*/42);
  sim::MetricsRegistry& metrics = rig.fabric.metrics();
  const std::uint64_t acked =
      metrics.counter("rel.paquets_acked", "node=0").value;
  EXPECT_GT(acked, 0u);
  EXPECT_EQ(metrics.histogram("rel.rtt_us", "node=0").count(), acked);
}

TEST(Window, WindowMetricsAreRecorded) {
  PaperRig rig(windowed_options(8));
  rig.fabric.metrics().enable();
  run_transfer(rig, 1 << 20, /*seed=*/36);
  sim::MetricsRegistry& metrics = rig.fabric.metrics();
  // The origin's sender sampled occupancy on every send and RTTs from the
  // ack round trips.
  EXPECT_GT(metrics.histogram("rel.window_occupancy", "node=0").count(), 0u);
  EXPECT_GT(metrics.histogram("rel.rtt_us", "node=0").count(), 0u);
  EXPECT_GT(metrics.counter("rel.paquets_acked", "node=0").value, 0u);
}

TEST(Window, GatewayCrashFailsOverMidStreamAtWindowEight) {
  // The cut-through relay path: gw1 dies mid-message while paquets are in
  // flight on both hops. The origin must declare it dead and replay via
  // gw2; the final receiver abandons the partial stream and adopts the
  // replay — the application sees nothing but delay.
  DualGatewayRig rig(windowed_options(8));
  const sim::Time crash_at = sim::milliseconds(4);
  net::FaultPlan myri_plan;
  myri_plan.crashes.push_back({/*nic_index=*/1, crash_at});  // gw1 on myri
  rig.myri.set_fault_plan(myri_plan);
  net::FaultPlan sci_plan;
  sci_plan.crashes.push_back({/*nic_index=*/0, crash_at});  // gw1 on sci
  rig.sci.set_fault_plan(sci_plan);
  util::Rng rng(37);
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
  const fwd::ReliabilityStats& sender = rig.vc->gateway_stats(0).reliability;
  EXPECT_GE(sender.failovers, 1u);
  EXPECT_GE(sender.peers_declared_dead, 1u);
  EXPECT_TRUE(rig.vc->is_dead(1));
  EXPECT_FALSE(rig.vc->is_dead(2));
}

TEST(Window, StripedRailsComposeWithPerRailWindows) {
  fwd::VcOptions options = windowed_options(4);
  options.max_rails = 2;
  DisjointRailRig rig(options);
  net::FaultPlan plan;
  plan.seed = 5;
  plan.drop_rate = 0.05;
  rig.sci.set_fault_plan(plan);  // both rails cross the lossy SCI segment
  util::Rng rng(38);
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
  EXPECT_GT(rig.sci.fault_injector()->stats().dropped, 0u);
  const std::uint64_t retransmits =
      rig.vc->gateway_stats(1).reliability.retransmits +
      rig.vc->gateway_stats(2).reliability.retransmits;
  EXPECT_GT(retransmits, 0u);
}

TEST(Window, CrashMidStripeLeavesNoCreditLeak) {
  // Satellite regression: rail 0's gateway dies mid-stripe, the rail
  // repairs onto gw2's route, and every credit the producer acquired must
  // be back in the window once the message is fully packed — HopFailure
  // and replay paths hand credits back, they don't strand them.
  fwd::VcOptions options = windowed_options(4);
  options.max_rails = 2;
  DisjointRailRig rig(options);
  net::FaultPlan sci_plan;
  const sim::Time crash_at = sim::milliseconds(4);
  sci_plan.crashes.push_back({/*nic_index=*/0, crash_at});  // gw1 on sci
  rig.sci.set_fault_plan(sci_plan);
  net::FaultPlan myri_plan;
  myri_plan.crashes.push_back({/*nic_index=*/1, crash_at});  // gw1 on myri0
  rig.myri_a.set_fault_plan(myri_plan);
  util::Rng rng(39);
  const std::size_t bytes = 1 << 20;
  const auto payload = rng.bytes(bytes);
  std::vector<std::byte> out(bytes);
  rig.engine.spawn("s", [&] {
    auto msg = rig.ep(0).begin_packing(3);
    ASSERT_TRUE(msg.striped());
    msg.pack(payload);
    msg.end_packing();
    const fwd::Striper* striper = msg.striper();
    ASSERT_NE(striper, nullptr);
    for (std::size_t r = 0; r < striper->rails(); ++r) {
      EXPECT_EQ(striper->rail_credits_available(r),
                striper->rail_credits_total(r))
          << "rail " << r << " leaked credits across the repair";
    }
  });
  rig.engine.spawn("r", [&] {
    auto msg = rig.ep(3).begin_unpacking();
    msg.unpack(out);
    msg.end_unpacking();
  });
  rig.engine.run();
  EXPECT_EQ(out, payload);
  EXPECT_TRUE(rig.vc->is_dead(1));
  EXPECT_GE(rig.vc->gateway_stats(0).reliability.failovers, 1u);
}

/// Front retransmits of one run, counted per loss trigger from the trace.
struct TriggerCounts {
  std::size_t dup_acks = 0;         // rel.fast_retransmit
  std::size_t sacks = 0;            // rel.fast_retransmit ... cause=sack
  std::size_t lost_retransmits = 0; // rel.sack_retransmit
  std::size_t timeouts = 0;         // rel.timeout

  bool operator==(const TriggerCounts&) const = default;
};

std::ostream& operator<<(std::ostream& os, const TriggerCounts& c) {
  return os << "{dup_acks=" << c.dup_acks << " sacks=" << c.sacks
            << " lost_retransmits=" << c.lost_retransmits
            << " timeouts=" << c.timeouts << "}";
}

TEST(ReliableWindow, EveryRetransmitTriggerIsPinned) {
  // One seeded lossy relay at window 16 (drops and duplicates on both
  // hops). The counts are the ones the sender produced when this test was
  // written: every loss trigger fires, and a change to any trigger's
  // condition or order moves its count.
  sim::TraceSink trace;
  trace.enable();
  fwd::VcOptions options = windowed_options(16);
  options.trace = &trace;
  PaperRig rig(options);
  net::FaultPlan plan;
  plan.seed = 56;
  plan.drop_rate = 0.06;
  plan.duplicate_rate = 0.03;
  rig.myri.set_fault_plan(plan);
  rig.sci.set_fault_plan(plan);
  run_transfer(rig, 2 << 20, /*seed=*/40);
  TriggerCounts counts;
  for (const sim::TraceEvent& event : trace.by_name("rel.fast_retransmit")) {
    ++(event.detail.ends_with(" cause=sack") ? counts.sacks
                                             : counts.dup_acks);
  }
  counts.lost_retransmits = trace.by_name("rel.sack_retransmit").size();
  counts.timeouts = trace.by_name("rel.timeout").size();
  EXPECT_EQ(counts, (TriggerCounts{12, 8, 2, 2}));
}

TEST(ReliableWindow, LostSackResendFallsBackToTheTimer) {
  // A window front that was fast retransmitted gets one more resend half
  // an RTO later once every later paquet is sacked. In this seeded run
  // (12% drops on both hops) two of those resends are themselves dropped,
  // one on each hop: the sender must then wait out the retransmit timer
  // instead of resending every half RTO, so each front has at most one
  // rel.sack_retransmit and each lost one is followed by a rel.timeout for
  // the same paquet.
  sim::TraceSink trace;
  trace.enable();
  fwd::VcOptions options = windowed_options(16);
  options.trace = &trace;
  PaperRig rig(options);
  net::FaultPlan plan;
  plan.seed = 26;
  plan.drop_rate = 0.12;
  rig.myri.set_fault_plan(plan);
  rig.sci.set_fault_plan(plan);
  run_transfer(rig, 1 << 20, /*seed=*/40);
  // A front is one paquet of one sender: its actor, peer and seq.
  std::map<std::string, std::vector<sim::Time>> resends;
  for (const sim::TraceEvent& event : trace.by_name("rel.sack_retransmit")) {
    resends[event.track + " " + event.detail].push_back(event.begin);
  }
  ASSERT_FALSE(resends.empty()) << "no lost-retransmit resend fired";
  std::size_t timed_out = 0;
  for (const sim::TraceEvent& event : trace.by_name("rel.timeout")) {
    // "peer=P seq=S attempt=N" names the same front as "peer=P seq=S".
    const std::string front =
        event.track + " " +
        event.detail.substr(0, event.detail.find(" attempt"));
    const auto it = resends.find(front);
    if (it != resends.end() && it->second.front() < event.begin) {
      ++timed_out;
    }
  }
  EXPECT_EQ(timed_out, 2u) << "a lost half-RTO resend was not timed out";
  for (const auto& [front, times] : resends) {
    EXPECT_EQ(times.size(), 1u) << front;
  }
}

// --------------------------------------------------------------- options

TEST(WindowOptions, InvalidReliableOptionsRejected) {
  {
    fwd::VcOptions o;
    o.reliable.enabled = true;
    o.reliable.window = 0;
    EXPECT_THROW(PaperRig rig(o), util::PanicError);
  }
  {
    fwd::VcOptions o;
    o.reliable.enabled = true;
    o.reliable.ack_timeout = kMaxAckTimeout + 1;
    EXPECT_THROW(PaperRig rig(o), util::PanicError);
  }
  {
    fwd::VcOptions o;
    o.reliable.enabled = true;
    o.reliable.max_attempts = 0;
    EXPECT_THROW(PaperRig rig(o), util::PanicError);
  }
}

// --------------------------------------------------------------- backoff

TEST(Backoff, StepsAreClampedToTheCap) {
  const sim::Time cap = sim::seconds(2);
  sim::Time t = sim::milliseconds(5);
  for (int i = 0; i < 200; ++i) {
    t = backed_off_timeout(t, 2.0, cap);
    ASSERT_GT(t, 0);
    ASSERT_LE(t, cap);
  }
  EXPECT_EQ(t, cap);
}

TEST(Backoff, OverflowLandsOnTheCapNotWraparound) {
  // Regression: the old chain multiplied unbounded; past 2^63 ns the
  // double→Time cast wrapped the deadline negative (an instantly-expired
  // timer that spun the retry loop). Any overflow must clamp instead.
  const sim::Time cap = std::numeric_limits<sim::Time>::max() / 2;
  EXPECT_EQ(backed_off_timeout(cap - 1, 1e30, cap), cap);
  EXPECT_EQ(backed_off_timeout(
                1, std::numeric_limits<double>::infinity(), cap),
            cap);
  EXPECT_EQ(backed_off_timeout(sim::seconds(1), 4.0, sim::seconds(2)),
            sim::seconds(2));
}

TEST(Backoff, UnitBackoffKeepsTheDeadlineConstant) {
  EXPECT_EQ(
      backed_off_timeout(sim::milliseconds(5), 1.0, sim::seconds(2)),
      sim::milliseconds(5));
}

// --- AckRegistry duplicate-cumulative-ack counting --------------------------
//
// The dup_posts counter is the window sender's fast-retransmit signal;
// these tests pin the counting rules the sender relies on, including the
// consume-time reclassification fix (a dup is only counted if the seq it
// re-acked is STILL the cumulative frontier when the post becomes
// visible).

constexpr std::uint64_t kTag = 77;
constexpr int kNic = 0;

TEST(AckBoard, DupAtFrontierCounted) {
  sim::Engine eng;
  net::AckRegistry board(eng, "acks");
  eng.spawn("s", [&] {
    board.post(kTag, kNic, /*epoch=*/0, /*seq=*/5, sim::microseconds(10));
    eng.sleep_until(sim::microseconds(10));
    net::AckView v = board.view(kTag, kNic, 0);
    EXPECT_TRUE(v.has_cum);
    EXPECT_EQ(v.cum_seq, 5u);
    EXPECT_EQ(v.dup_posts, 0u);
    // Three re-acks of the frontier: all three count once visible.
    for (int i = 0; i < 3; ++i) {
      board.post(kTag, kNic, 0, 5, sim::microseconds(20));
    }
    EXPECT_EQ(board.view(kTag, kNic, 0).dup_posts, 0u)
        << "dup posts counted before their visibility latency elapsed";
    eng.sleep_until(sim::microseconds(20));
    EXPECT_EQ(board.view(kTag, kNic, 0).dup_posts, 3u);
  });
  eng.run();
}

TEST(AckBoard, ReackBelowFrontierNeverCounted) {
  // A cumulative post for an OLDER seq — a retransmit that finally
  // landed after the frontier moved past it — is not a duplicate-ack
  // loss signal and must not be queued at all.
  sim::Engine eng;
  net::AckRegistry board(eng, "acks");
  eng.spawn("s", [&] {
    board.post(kTag, kNic, 0, 5, sim::microseconds(10));
    board.post(kTag, kNic, 0, 3, sim::microseconds(10));
    eng.sleep_until(sim::microseconds(50));
    net::AckView v = board.view(kTag, kNic, 0);
    EXPECT_EQ(v.cum_seq, 5u);
    EXPECT_EQ(v.dup_posts, 0u);
  });
  eng.run();
}

TEST(AckBoard, StaleDupDroppedWhenFrontierAdvances) {
  // Dups re-acking seq 5 are posted, but before they become visible the
  // frontier advances to 8: at consume time they speak about a window
  // front that no longer exists and must be dropped, not counted.
  sim::Engine eng;
  net::AckRegistry board(eng, "acks");
  eng.spawn("s", [&] {
    board.post(kTag, kNic, 0, 5, sim::microseconds(10));
    for (int i = 0; i < 3; ++i) {
      board.post(kTag, kNic, 0, 5, sim::microseconds(30));
    }
    board.post(kTag, kNic, 0, 8, sim::microseconds(20));
    eng.sleep_until(sim::microseconds(40));
    net::AckView v = board.view(kTag, kNic, 0);
    EXPECT_EQ(v.cum_seq, 8u);
    EXPECT_EQ(v.dup_posts, 0u)
        << "dups for a superseded frontier leaked into the loss signal";
  });
  eng.run();
}

TEST(AckBoard, DupDeltaSurvivesLateRead) {
  // The regression behind this PR's spurious-RTO bug: the sender can sit
  // blocked in a multi-millisecond pack while the frontier advances AND
  // a dup burst for the NEW frontier arrives. Its first view() after the
  // gap must still report those dups — they re-ack the seq that is the
  // frontier at consume time, so a frontier change between reads must
  // not launder them away.
  sim::Engine eng;
  net::AckRegistry board(eng, "acks");
  eng.spawn("s", [&] {
    board.post(kTag, kNic, 0, 5, sim::microseconds(10));
    board.post(kTag, kNic, 0, 9, sim::microseconds(20));  // frontier moves
    for (int i = 0; i < 4; ++i) {
      board.post(kTag, kNic, 0, 9, sim::microseconds(30));  // dup burst
    }
    // Sender reads only after everything has landed.
    eng.sleep_until(sim::milliseconds(5));
    net::AckView v = board.view(kTag, kNic, 0);
    EXPECT_EQ(v.cum_seq, 9u);
    EXPECT_EQ(v.dup_posts, 4u);
  });
  eng.run();
}

TEST(AckBoard, EpochBumpResetsDupCount) {
  sim::Engine eng;
  net::AckRegistry board(eng, "acks");
  eng.spawn("s", [&] {
    board.post(kTag, kNic, 0, 5, sim::microseconds(10));
    board.post(kTag, kNic, 0, 5, sim::microseconds(10));
    eng.sleep_until(sim::microseconds(15));
    EXPECT_EQ(board.view(kTag, kNic, 0).dup_posts, 1u);
    // Failover: the stream restarts on epoch 1. Dup state must not leak.
    board.post(kTag, kNic, /*epoch=*/1, 2, sim::microseconds(20));
    eng.sleep_until(sim::microseconds(25));
    net::AckView v = board.view(kTag, kNic, 1);
    EXPECT_EQ(v.cum_seq, 2u);
    EXPECT_EQ(v.dup_posts, 0u);
    // And the old epoch's view is gone entirely.
    EXPECT_FALSE(board.view(kTag, kNic, 0).has_cum);
  });
  eng.run();
}

TEST(AckBoard, StaleEpochPostIgnored) {
  // An epoch-boundary straggler — a dup from the dead stream arriving
  // after the bump — must not disturb the live epoch's state.
  sim::Engine eng;
  net::AckRegistry board(eng, "acks");
  eng.spawn("s", [&] {
    board.post(kTag, kNic, 1, 4, sim::microseconds(10));
    board.post(kTag, kNic, 0, 99, sim::microseconds(10));  // straggler
    eng.sleep_until(sim::microseconds(20));
    net::AckView v = board.view(kTag, kNic, 1);
    EXPECT_EQ(v.cum_seq, 4u);
    EXPECT_EQ(v.dup_posts, 0u);
  });
  eng.run();
}

}  // namespace
}  // namespace mad::fwd
