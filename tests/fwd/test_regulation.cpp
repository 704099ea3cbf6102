// Direct unit tests for the gateway incoming-flow Regulator, the DRR
// scheduling core behind the multi-flow forwarder, and the adaptive
// sender window's loss-regime behavior.
#include "fwd/regulation.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "harness/pingpong.hpp"
#include "harness/scenario.hpp"
#include "net/fault.hpp"
#include "sim/time.hpp"
#include "util/panic.hpp"
#include "util/rng.hpp"

namespace mad::fwd {
namespace {

TEST(Regulator, NegativeRateRejected) {
  sim::Engine eng;
  EXPECT_THROW(Regulator(eng, -1.0), util::PanicError);
}

TEST(Regulator, ZeroRateDisablesPacing) {
  sim::Engine eng;
  Regulator regulator(eng, 0.0);
  EXPECT_FALSE(regulator.enabled());
  eng.spawn("a", [&] {
    for (int i = 0; i < 10; ++i) {
      regulator.pace(1'000'000);
    }
    EXPECT_EQ(eng.now(), 0);
  });
  eng.run();
}

TEST(Regulator, PacesCallsToTheConfiguredRate) {
  sim::Engine eng;
  Regulator regulator(eng, 1'000'000.0);  // 1 MB/s -> 1 ms per KB
  EXPECT_TRUE(regulator.enabled());
  eng.spawn("a", [&] {
    regulator.pace(1000);  // first call passes immediately
    EXPECT_EQ(eng.now(), 0);
    regulator.pace(1000);
    EXPECT_EQ(eng.now(), sim::milliseconds(1));
    regulator.pace(1000);
    EXPECT_EQ(eng.now(), sim::milliseconds(2));
  });
  eng.run();
}

TEST(Regulator, IdleTimeIsNotBanked) {
  sim::Engine eng;
  Regulator regulator(eng, 1'000'000.0);
  eng.spawn("a", [&] {
    regulator.pace(1000);
    eng.sleep_until(sim::milliseconds(10));
    // The idle window earns no credit: the next pace passes (its slot is
    // long gone) but the one after still waits a full slot from *now*.
    regulator.pace(1000);
    EXPECT_EQ(eng.now(), sim::milliseconds(10));
    regulator.pace(1000);
    EXPECT_EQ(eng.now(), sim::milliseconds(11));
  });
  eng.run();
}

// --- DrrQueue service order -----------------------------------------------

// Drains the queue, returning the flow ids in service order.
std::vector<int> drain(DrrQueue& q) {
  std::vector<int> order;
  while (auto item = q.dequeue()) {
    order.push_back(item->flow);
  }
  return order;
}

TEST(DrrQueue, EqualWeightsAlternatePerQuantum) {
  DrrQueue q(100);
  const int a = q.add_flow();
  const int b = q.add_flow();
  for (int i = 0; i < 3; ++i) {
    q.enqueue(a, 100);
    q.enqueue(b, 100);
  }
  EXPECT_EQ(drain(q), (std::vector<int>{a, b, a, b, a, b}));
}

TEST(DrrQueue, WeightScalesItemsServedPerVisit) {
  // Flow b's weight-3 top-up covers three 100-byte items per visit; flow
  // a's weight-1 top-up covers one.
  DrrQueue q(100);
  const int a = q.add_flow(1.0);
  const int b = q.add_flow(3.0);
  for (int i = 0; i < 2; ++i) {
    q.enqueue(a, 100);
  }
  for (int i = 0; i < 6; ++i) {
    q.enqueue(b, 100);
  }
  EXPECT_EQ(drain(q), (std::vector<int>{a, b, b, b, a, b, b, b}));
}

TEST(DrrQueue, OversizedHeadAccumulatesDeficitAcrossVisits) {
  // Flow a's 250-byte head needs three visits' worth of quantum; flow b
  // keeps being served in the meantime (DRR never blocks the round on a
  // big head-of-line item).
  DrrQueue q(100);
  const int a = q.add_flow();
  const int b = q.add_flow();
  q.enqueue(a, 250);
  for (int i = 0; i < 4; ++i) {
    q.enqueue(b, 100);
  }
  EXPECT_EQ(drain(q), (std::vector<int>{b, b, a, b, b}));
}

TEST(DrrQueue, IdleFlowForfeitsBankedDeficit) {
  // Flow a drains, sits idle for a full round, then re-arrives: it gets
  // exactly one fresh quantum, not the idle rounds' worth of credit.
  DrrQueue q(100);
  const int a = q.add_flow();
  const int b = q.add_flow();
  q.enqueue(a, 100);
  q.enqueue(b, 100);
  q.enqueue(b, 100);
  EXPECT_EQ(drain(q), (std::vector<int>{a, b, b}));
  q.enqueue(a, 200);  // two quanta: must take two visits despite the idle gap
  q.enqueue(b, 100);
  EXPECT_EQ(drain(q), (std::vector<int>{b, a}));
}

TEST(DrrQueue, SeedReplayIsDeterministic) {
  // Two queues fed the identical seeded enqueue pattern must serve in the
  // identical order — the scheduler holds no hidden state that varies
  // between runs, which is what makes gateway traces replayable.
  const auto build = [](std::uint64_t seed) {
    DrrQueue q(1000);
    for (int f = 0; f < 4; ++f) {
      q.add_flow(1.0 + f);
    }
    util::Rng rng(seed);
    for (int i = 0; i < 200; ++i) {
      q.enqueue(static_cast<int>(rng.next_below(4)),
                rng.next_between(1, 3000));
    }
    return q;
  };
  DrrQueue q1 = build(42);
  DrrQueue q2 = build(42);
  const std::vector<int> order1 = drain(q1);
  EXPECT_EQ(order1, drain(q2));
  DrrQueue q3 = build(43);
  EXPECT_NE(order1, drain(q3));  // the order tracks the arrival pattern
}

TEST(FlowScheduler, ContendedGrantsFollowDrrOrder) {
  // The first request finds the wire free and passes straight through;
  // the two that park behind it are then granted in round-robin cursor
  // order, not in their arrival order.
  sim::Engine eng;
  FlowScheduler sched(eng, 1000, "drr");
  const int a = sched.add_flow();
  const int b = sched.add_flow();
  const int c = sched.add_flow();
  std::vector<int> order;
  for (const int flow : {c, a, b}) {  // park in scrambled arrival order
    eng.spawn("flow" + std::to_string(flow), [&, flow] {
      sched.acquire(flow, 500);
      order.push_back(flow);
      eng.sleep_for(sim::microseconds(10));
      sched.release(flow);
    });
  }
  eng.run();
  // c arrives first and takes the idle wire; a and b then contend, and
  // the cursor (parked on c) wraps to serve a before b.
  EXPECT_EQ(order, (std::vector<int>{c, a, b}));
  EXPECT_EQ(sched.grants(a), 1u);
  EXPECT_EQ(sched.granted_bytes(a), 500u);
}

TEST(FlowScheduler, WeightedGrantBytesTrackWeights) {
  // Two always-backlogged actors with weights 1 and 3: granted bytes must
  // land ~3x apart once the round-robin reaches steady state.
  sim::Engine eng;
  FlowScheduler sched(eng, 1000, "drr");
  const int light = sched.add_flow(1.0);
  const int heavy = sched.add_flow(3.0);
  for (const int flow : {light, heavy}) {
    eng.spawn("flow" + std::to_string(flow), [&, flow] {
      for (int i = 0; i < (flow == heavy ? 60 : 20); ++i) {
        sched.acquire(flow, 1000);
        eng.sleep_for(sim::microseconds(10));
        sched.release(flow);
      }
    });
  }
  eng.run();
  EXPECT_EQ(sched.granted_bytes(light), 20'000u);
  EXPECT_EQ(sched.granted_bytes(heavy), 60'000u);
  // Steady state: heavy finishes three grants per light grant, so both
  // drain in the same number of rounds and neither ever runs dry early.
  EXPECT_EQ(sched.grants(light), 20u);
  EXPECT_EQ(sched.grants(heavy), 60u);
}

/// Grants of a seeded contention workload: actors across all three
/// classes, unequal weights (fractional ones included) and request sizes
/// up to 3.5 quanta, so heads regularly outgrow one visit's top-up and
/// must bank deficit across visits. Two actors share the heavy bulk flow,
/// so its parked requests queue FIFO behind each other.
std::vector<std::pair<int, std::uint64_t>> seeded_grant_sequence() {
  sim::Engine eng;
  FlowScheduler sched(eng, 1000, "drr");
  struct Spec {
    double weight;
    TrafficClass cls;
    int actors;
  };
  const std::vector<Spec> specs = {
      {1.0, TrafficClass::Control, 1}, {2.0, TrafficClass::Latency, 1},
      {0.5, TrafficClass::Latency, 1}, {1.0, TrafficClass::Bulk, 1},
      {3.0, TrafficClass::Bulk, 2},    {0.25, TrafficClass::Bulk, 1}};
  std::vector<std::pair<int, std::uint64_t>> granted;
  for (const Spec& spec : specs) {
    const int flow = sched.add_flow(spec.weight, spec.cls);
    for (int a = 0; a < spec.actors; ++a) {
      eng.spawn("flow" + std::to_string(flow) + "." + std::to_string(a),
                [&, flow, a] {
                  util::Rng rng(1000 + 17 * static_cast<std::uint64_t>(flow) +
                                static_cast<std::uint64_t>(a));
                  for (int i = 0; i < 8; ++i) {
                    eng.sleep_for(sim::microseconds(
                        static_cast<std::int64_t>(rng.next_below(25))));
                    const std::uint64_t bytes = rng.next_between(100, 3500);
                    sched.acquire(flow, bytes);
                    granted.emplace_back(flow, bytes);
                    eng.sleep_for(sim::microseconds(
                        5 + static_cast<std::int64_t>(rng.next_below(10))));
                    sched.release(flow);
                  }
                });
    }
  }
  eng.run();
  return granted;
}

TEST(FlowScheduler, GrantOrderIsPinned) {
  // The exact grant sequence the scheduler produced when it was written:
  // any change to the DRR walk (top-ups, forfeits, cursor moves, class
  // priority or per-flow FIFO) moves at least one pair.
  const std::vector<std::pair<int, std::uint64_t>> expected = {
      {4, 2666}, {1, 373}, {0, 397}, {1, 770}, {2, 1313}, {0, 3382},
      {1, 2544}, {0, 2984}, {1, 2267}, {0, 959}, {2, 1213}, {0, 1748},
      {1, 2577}, {2, 1330}, {0, 1930}, {1, 2028}, {0, 2190}, {1, 3462},
      {2, 1766}, {0, 2216}, {1, 950}, {2, 3217}, {4, 109}, {4, 2042},
      {3, 2394}, {2, 895}, {4, 2050}, {3, 413}, {4, 2515}, {2, 2875},
      {5, 1487}, {3, 245}, {2, 2654}, {4, 3256}, {4, 874}, {3, 1866},
      {4, 1262}, {4, 470}, {3, 1964}, {4, 3270}, {4, 3475}, {4, 1949},
      {5, 2417}, {4, 2376}, {4, 358}, {3, 3284}, {4, 2944}, {4, 3435},
      {5, 2328}, {3, 843}, {3, 1208}, {5, 1088}, {5, 2051}, {5, 354},
      {5, 2876}, {5, 808}};
  EXPECT_EQ(seeded_grant_sequence(), expected);
}

// --- Registration hardening ------------------------------------------------

TEST(DrrQueue, ZeroOrNegativeWeightRejected) {
  DrrQueue q(100);
  EXPECT_THROW(q.add_flow(0.0), util::PanicError);
  EXPECT_THROW(q.add_flow(-2.0), util::PanicError);
}

TEST(FlowScheduler, ZeroWeightRejected) {
  sim::Engine eng;
  FlowScheduler sched(eng, 1000, "drr");
  EXPECT_THROW(sched.add_flow(0.0), util::PanicError);
}

TEST(FlowScheduler, DuplicateKeyRejected) {
  // The gateway keys flows by origin·class; a duplicate registration
  // would silently split one origin's traffic across two DRR deficits,
  // so it must be a diagnosable panic, not a second id.
  sim::Engine eng;
  FlowScheduler sched(eng, 1000, "drr");
  sched.add_flow(1.0, TrafficClass::Bulk, /*key=*/7);
  EXPECT_THROW(sched.add_flow(2.0, TrafficClass::Bulk, /*key=*/7),
               util::PanicError);
  // Anonymous flows (key = -1) never collide.
  sched.add_flow();
  sched.add_flow();
}

// --- Strict priority classes -----------------------------------------------

TEST(DrrQueue, StrictPriorityAcrossClasses) {
  // Every backlogged Control item is served before any Latency item, and
  // Latency before Bulk — regardless of enqueue order or DRR deficits.
  DrrQueue q(100);
  const int bulk = q.add_flow(1.0, TrafficClass::Bulk);
  const int ctl = q.add_flow(1.0, TrafficClass::Control);
  const int lat = q.add_flow(1.0, TrafficClass::Latency);
  q.enqueue(bulk, 100);
  q.enqueue(lat, 100);
  q.enqueue(ctl, 100);
  q.enqueue(bulk, 100);
  q.enqueue(ctl, 100);
  EXPECT_EQ(drain(q), (std::vector<int>{ctl, ctl, lat, bulk, bulk}));
}

TEST(DrrQueue, SingleClassDegeneratesToClassicDrr) {
  // All-default-class flows behave exactly as the pre-class scheduler:
  // one shared round-robin band.
  DrrQueue q(100);
  const int a = q.add_flow();
  const int b = q.add_flow();
  q.enqueue(a, 100);
  q.enqueue(b, 100);
  q.enqueue(a, 100);
  q.enqueue(b, 100);
  EXPECT_EQ(drain(q), (std::vector<int>{a, b, a, b}));
}

TEST(FlowScheduler, ControlGrantedBeforeParkedBulk) {
  // A bulk grant holds the wire (non-preemptive); while it does, one bulk
  // and one control request park. On release the control request must win
  // even though the bulk request parked first.
  sim::Engine eng;
  FlowScheduler sched(eng, 1000, "drr");
  const int bulk = sched.add_flow(1.0, TrafficClass::Bulk);
  const int bulk2 = sched.add_flow(1.0, TrafficClass::Bulk);
  const int ctl = sched.add_flow(1.0, TrafficClass::Control);
  std::vector<int> order;
  eng.spawn("holder", [&] {
    sched.acquire(bulk, 500);
    order.push_back(bulk);
    eng.sleep_for(sim::microseconds(50));
    sched.release(bulk);
  });
  eng.spawn("bulk2", [&] {
    eng.sleep_for(sim::microseconds(10));
    sched.acquire(bulk2, 500);
    order.push_back(bulk2);
    sched.release(bulk2);
  });
  eng.spawn("ctl", [&] {
    eng.sleep_for(sim::microseconds(20));  // parks AFTER bulk2
    sched.acquire(ctl, 500);
    order.push_back(ctl);
    sched.release(ctl);
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{bulk, ctl, bulk2}));
}

// --- Admission controller --------------------------------------------------

using Verdict = AdmissionController::Verdict;

// The shedding cases below step their sojourn samples across these.
static_assert(kShedTarget == sim::milliseconds(20));
static_assert(kShedInterval == sim::milliseconds(100));

TEST(AdmissionController, ByteBudgetAdmitsStrictlyBelowTheLine) {
  // An enqueue landing exactly at budget makes the NEXT admission reject;
  // the admission that precedes it still passes.
  AdmissionOptions opts;
  opts.enabled = true;
  opts.byte_budget[traffic_class_index(TrafficClass::Bulk)] = 1000;
  AdmissionController adm(opts);
  EXPECT_EQ(adm.admit(TrafficClass::Bulk), Verdict::Admit);
  adm.on_enqueue(TrafficClass::Bulk, 999);
  EXPECT_EQ(adm.admit(TrafficClass::Bulk), Verdict::Admit);
  adm.on_enqueue(TrafficClass::Bulk, 1);  // exactly at budget now
  EXPECT_EQ(adm.admit(TrafficClass::Bulk), Verdict::RejectBudget);
  // Draining a single byte reopens the class.
  adm.on_dequeue(TrafficClass::Bulk, 1, 0, 0);
  EXPECT_EQ(adm.admit(TrafficClass::Bulk), Verdict::Admit);
}

TEST(AdmissionController, MessageBudgetBracketsConcurrentRelays) {
  AdmissionOptions opts;
  opts.enabled = true;
  opts.message_budget[traffic_class_index(TrafficClass::Bulk)] = 2;
  AdmissionController adm(opts);
  adm.on_message_admitted(TrafficClass::Bulk);
  adm.on_message_admitted(TrafficClass::Bulk);
  EXPECT_EQ(adm.admit(TrafficClass::Bulk), Verdict::RejectBudget);
  adm.on_message_done(TrafficClass::Bulk);
  EXPECT_EQ(adm.admit(TrafficClass::Bulk), Verdict::Admit);
}

TEST(AdmissionController, ControlIsNeverRejected) {
  // Zero budget everywhere, shedding armed — control still passes: it
  // degrades to plain blocking backpressure, never to loss.
  AdmissionOptions opts;
  opts.enabled = true;
  opts.byte_budget = {1, 1, 1};
  opts.message_budget = {1, 1, 1};
  AdmissionController adm(opts);
  adm.on_enqueue(TrafficClass::Control, 100);
  adm.on_message_admitted(TrafficClass::Control);
  EXPECT_EQ(adm.admit(TrafficClass::Control), Verdict::Admit);
}

TEST(AdmissionController, ShedsAfterSustainedSojournThenRecovers) {
  AdmissionOptions opts;
  opts.enabled = true;
  AdmissionController adm(opts);
  const TrafficClass bulk = TrafficClass::Bulk;
  // A standing queue (300 bytes) whose sojourn samples stay at or above
  // target. The first sample arms the above-target clock, but within the
  // interval nothing sheds.
  adm.on_enqueue(bulk, 300);
  adm.on_dequeue(bulk, 100, 0, sim::milliseconds(20));
  EXPECT_FALSE(adm.shedding(bulk));
  EXPECT_EQ(adm.admit(bulk), Verdict::Admit);
  // Still above target a full interval later: the class sheds.
  adm.on_dequeue(bulk, 100, sim::milliseconds(90), sim::milliseconds(120));
  EXPECT_TRUE(adm.shedding(bulk));
  EXPECT_EQ(adm.admit(bulk), Verdict::RejectShed);
  // One below-target sample proves the standing queue drained: reopen.
  adm.on_dequeue(bulk, 100, sim::milliseconds(121), sim::milliseconds(122));
  EXPECT_FALSE(adm.shedding(bulk));
  EXPECT_EQ(adm.admit(bulk), Verdict::Admit);
}

TEST(AdmissionController, ShedReopensWhenQueueFullyDrains) {
  // The wedge this guards against: the class sheds, every new message is
  // rejected, the standing queue drains to empty — and with no further
  // dequeue samples nothing would ever clear the shed state. A fully
  // drained class must reopen even though its LAST sojourn sample was
  // still above target.
  AdmissionOptions opts;
  opts.enabled = true;
  AdmissionController adm(opts);
  const TrafficClass bulk = TrafficClass::Bulk;
  adm.on_enqueue(bulk, 200);
  adm.on_dequeue(bulk, 100, 0, sim::milliseconds(40));
  adm.on_dequeue(bulk, 100, sim::milliseconds(160), sim::milliseconds(200));
  EXPECT_TRUE(adm.shedding(bulk));
  EXPECT_EQ(adm.queued_bytes(bulk), 0u);
  EXPECT_EQ(adm.admit(bulk), Verdict::Admit);
  EXPECT_FALSE(adm.shedding(bulk));
}

TEST(AdmissionController, LatencyShedsOnlyWhileBulkSheds) {
  // Graceful degradation is structural: latency CoDel state alone never
  // rejects — bulk must be shedding too, so load is always stripped from
  // the bottom of the priority order first.
  AdmissionOptions opts;
  opts.enabled = true;
  AdmissionController adm(opts);
  // Leaves 100 bytes standing so the reopen-on-drain exit does not clear
  // the shed state between assertions.
  const auto push_above = [&](TrafficClass cls) {
    adm.on_enqueue(cls, 300);
    adm.on_dequeue(cls, 100, 0, sim::milliseconds(40));
    adm.on_dequeue(cls, 100, sim::milliseconds(160), sim::milliseconds(200));
  };
  push_above(TrafficClass::Latency);
  EXPECT_TRUE(adm.shedding(TrafficClass::Latency));
  EXPECT_EQ(adm.admit(TrafficClass::Latency), Verdict::Admit);
  push_above(TrafficClass::Bulk);
  EXPECT_EQ(adm.admit(TrafficClass::Latency), Verdict::RejectShed);
  EXPECT_EQ(adm.admit(TrafficClass::Bulk), Verdict::RejectShed);
}

// --- Adaptive window under loss --------------------------------------------

// One 8 MB forwarded transfer through the paper topology with the given
// fault seed; returns goodput in MB/s.
double lossy_goodput(bool adaptive, int window, std::uint64_t seed,
                     double drop_rate) {
  fwd::VcOptions options;
  options.paquet_size = 64 * 1024;
  options.reliable.enabled = true;
  options.reliable.window = window;
  options.reliable.adaptive = adaptive;
  harness::PaperWorld world(options);
  net::FaultPlan plan;
  plan.seed = seed;
  plan.drop_rate = drop_rate;
  world.sci->set_fault_plan(plan);
  return harness::measure_vc_oneway(world.engine, *world.vc,
                                    world.myri_node(), world.sci_node(),
                                    8 * 1024 * 1024)
      .mbps;
}

TEST(AdaptiveWindow, DeepCapMatchesBestStaticUnderLoss) {
  // The regression this PR fixes: a static w=32 window at 2% drop loses
  // to w=16 because every retransmit sits behind a full window of queue.
  // The adaptive sender (AIMD + delay-gated growth under the same 32
  // cap) must do at least as well as the static w=16 row. Averaged over
  // three fault seeds: a single seed is dominated by WHICH paquets drop
  // (a lost retransmit swings several percent).
  double adaptive_sum = 0.0;
  double static16_sum = 0.0;
  double static32_sum = 0.0;
  for (const std::uint64_t seed : {7, 8, 9}) {
    adaptive_sum += lossy_goodput(true, 32, seed, 0.02);
    static16_sum += lossy_goodput(false, 16, seed, 0.02);
    static32_sum += lossy_goodput(false, 32, seed, 0.02);
  }
  EXPECT_GE(adaptive_sum, static16_sum);
  // And the premise of the fix: the static deep window really is worse.
  EXPECT_GT(static16_sum, static32_sum);
}

TEST(AdaptiveWindow, LosslessGoodputMatchesStaticDeepWindow) {
  // No loss, no marks: the adaptive window must open to the cap and match
  // the static deep window (slow start costs at most a round trip or two
  // on an 8 MB transfer).
  const double adaptive = lossy_goodput(true, 32, 7, 0.0);
  const double fixed = lossy_goodput(false, 32, 7, 0.0);
  EXPECT_GE(adaptive, 0.99 * fixed);
}

}  // namespace
}  // namespace mad::fwd
