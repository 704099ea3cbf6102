// Fault-injection layer: deterministic per-packet verdicts, crash/link-down
// semantics, NIC-level wiring, and the AckRegistry used by reliable GTM.
#include "net/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "util/rng.hpp"

namespace mad::net {
namespace {

// A sender's wait on the ack board, as the window sender reads it:
// re-read view() after every wake until a cumulative ack covering
// (epoch, seq) is visible, or `deadline` passes.
bool cum_acked_by(sim::Engine& eng, AckRegistry& acks, std::uint64_t tag,
                  int receiver_nic, std::uint32_t epoch, std::uint32_t seq,
                  sim::Time deadline) {
  for (;;) {
    const AckView view = acks.view(tag, receiver_nic, epoch);
    if (view.has_cum && view.cum_seq >= seq) {
      return true;
    }
    if (eng.now() >= deadline) {
      return false;
    }
    acks.wait_activity(tag, receiver_nic,
                       std::min(deadline, view.next_visible));
  }
}

TEST(FaultInjector, SameSeedSameVerdictSequence) {
  FaultPlan plan;
  plan.seed = 42;
  plan.drop_rate = 0.2;
  plan.corrupt_rate = 0.1;
  plan.duplicate_rate = 0.1;
  FaultInjector a(plan);
  FaultInjector b(plan);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.decide(0, 1, 1024, 0), b.decide(0, 1, 1024, 0));
  }
}

TEST(FaultInjector, RatesRoughlyHonored) {
  FaultPlan plan;
  plan.seed = 7;
  plan.drop_rate = 0.2;
  FaultInjector injector(plan);
  for (int i = 0; i < 1000; ++i) {
    (void)injector.decide(0, 1, 1024, 0);
  }
  EXPECT_GT(injector.stats().dropped, 100u);
  EXPECT_LT(injector.stats().dropped, 300u);
  EXPECT_EQ(injector.stats().delivered + injector.stats().dropped, 1000u);
}

TEST(FaultInjector, ControlFramesExemptFromProbabilisticFaults) {
  FaultPlan plan;
  plan.seed = 7;
  plan.drop_rate = 1.0;  // every eligible packet drops...
  FaultInjector injector(plan);
  for (int i = 0; i < 100; ++i) {
    // ...but sub-min_faultable_size packets are protocol bootstrap.
    EXPECT_EQ(injector.decide(0, 1, plan.min_faultable_size - 1, 0),
              FaultAction::Deliver);
  }
  EXPECT_EQ(injector.decide(0, 1, plan.min_faultable_size, 0),
            FaultAction::Drop);
}

TEST(FaultInjector, NegativeAndOversubscribedRatesRejected) {
  FaultPlan negative;
  negative.drop_rate = -0.1;
  EXPECT_THROW(FaultInjector{negative}, util::PanicError);
  FaultPlan oversubscribed;
  oversubscribed.drop_rate = 0.6;
  oversubscribed.corrupt_rate = 0.6;
  EXPECT_THROW(FaultInjector{oversubscribed}, util::PanicError);
}

TEST(FaultInjector, LinkDownWindowDropsAnySize) {
  FaultPlan plan;
  plan.link_downs.push_back(
      {sim::milliseconds(1), sim::milliseconds(2), -1, -1});
  FaultInjector injector(plan);
  EXPECT_EQ(injector.decide(0, 1, 16, sim::milliseconds(1) - 1),
            FaultAction::Deliver);
  EXPECT_EQ(injector.decide(0, 1, 16, sim::milliseconds(1)),
            FaultAction::Drop);
  EXPECT_EQ(injector.decide(0, 1, 16, sim::milliseconds(2) - 1),
            FaultAction::Drop);
  // Window is half-open: [from, until).
  EXPECT_EQ(injector.decide(0, 1, 16, sim::milliseconds(2)),
            FaultAction::Deliver);
  EXPECT_EQ(injector.stats().link_down_drops, 2u);
}

TEST(FaultInjector, DirectedLinkDownOnlyMatchesItsPair) {
  FaultPlan plan;
  plan.link_downs.push_back({0, sim::kForever, /*src=*/0, /*dst=*/1});
  FaultInjector injector(plan);
  EXPECT_EQ(injector.decide(0, 1, 16, 0), FaultAction::Drop);
  EXPECT_EQ(injector.decide(1, 0, 16, 0), FaultAction::Deliver);
  EXPECT_EQ(injector.decide(0, 2, 16, 0), FaultAction::Deliver);
}

TEST(FaultInjector, CrashedNicDropsBothDirections) {
  FaultPlan plan;
  plan.crashes.push_back({/*nic_index=*/1, sim::milliseconds(3)});
  FaultInjector injector(plan);
  EXPECT_FALSE(injector.nic_down(1, sim::milliseconds(3) - 1));
  EXPECT_TRUE(injector.nic_down(1, sim::milliseconds(3)));
  EXPECT_EQ(injector.decide(0, 1, 16, sim::milliseconds(2)),
            FaultAction::Deliver);
  EXPECT_EQ(injector.decide(0, 1, 16, sim::milliseconds(4)),
            FaultAction::Drop);  // crashed receiver
  EXPECT_EQ(injector.decide(1, 0, 16, sim::milliseconds(4)),
            FaultAction::Drop);  // crashed sender
  EXPECT_EQ(injector.decide(0, 2, 16, sim::milliseconds(4)),
            FaultAction::Deliver);
  EXPECT_EQ(injector.stats().crash_drops, 2u);
}

TEST(FaultInjector, CorruptFlipsExactlyOneByte) {
  FaultPlan plan;
  FaultInjector injector(plan);
  util::Rng rng(9);
  auto payload = rng.bytes(512);
  const auto original = payload;
  injector.corrupt(util::MutByteSpan(payload));
  int differing = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (payload[i] != original[i]) {
      ++differing;
    }
  }
  EXPECT_EQ(differing, 1);
}

/// Two hosts joined by one faultable network.
struct FaultRig {
  explicit FaultRig(sim::Engine& eng, FaultPlan plan)
      : fabric(eng),
        a(fabric.add_host("a")),
        b(fabric.add_host("b")),
        net(fabric.add_network("net0", bip_myrinet())),
        nic_a(a.add_nic(net)),
        nic_b(b.add_nic(net)) {
    net.set_fault_plan(plan);
  }

  Fabric fabric;
  Host& a;
  Host& b;
  Network& net;
  Nic& nic_a;
  Nic& nic_b;
};

TEST(FaultNetwork, DroppedPacketsNeverReachTheRxQueue) {
  sim::Engine eng;
  FaultPlan plan;
  plan.seed = 11;
  plan.drop_rate = 0.3;
  FaultRig rig(eng, plan);
  const int packets = 50;
  eng.spawn("s", [&] {
    std::vector<std::byte> data(1024, std::byte{1});
    for (int i = 0; i < packets; ++i) {
      rig.nic_a.send(rig.nic_b.index(), 1, util::ByteSpan(data));
    }
  });
  eng.run();
  const FaultStats& stats = rig.net.fault_injector()->stats();
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_EQ(stats.delivered + stats.dropped,
            static_cast<std::uint64_t>(packets));
  EXPECT_EQ(rig.nic_b.queued(1),
            static_cast<std::size_t>(packets) - stats.dropped);
}

TEST(FaultNetwork, DuplicatesArriveTwiceCorruptionsDiffer) {
  sim::Engine eng;
  FaultPlan plan;
  plan.seed = 5;
  plan.corrupt_rate = 0.25;
  plan.duplicate_rate = 0.25;
  FaultRig rig(eng, plan);
  util::Rng rng(6);
  const auto payload = rng.bytes(2048);
  const int packets = 40;
  int received_intact = 0;
  int received_mangled = 0;
  std::size_t drained = 0;
  eng.spawn("s", [&] {
    for (int i = 0; i < packets; ++i) {
      rig.nic_a.send(rig.nic_b.index(), 1, payload);
    }
  });
  eng.spawn("r", [&] {
    eng.sleep_until(sim::seconds(1));  // well past the last send
    drained = rig.nic_b.queued(1);
    for (std::size_t i = 0; i < drained; ++i) {
      const auto got = rig.nic_b.recv_owned(1);
      if (got == payload) {
        ++received_intact;
      } else {
        ++received_mangled;
      }
    }
  });
  eng.run();
  const FaultStats& stats = rig.net.fault_injector()->stats();
  EXPECT_GT(stats.corrupted, 0u);
  EXPECT_GT(stats.duplicated, 0u);
  EXPECT_EQ(drained, static_cast<std::size_t>(packets) + stats.duplicated);
  EXPECT_EQ(received_mangled, static_cast<int>(stats.corrupted));
  EXPECT_EQ(received_intact, static_cast<int>(drained - stats.corrupted));
}

TEST(AckRegistry, AwaitSeesPostAfterVisibilityDelay) {
  sim::Engine eng;
  AckRegistry acks(eng, "acks");
  bool got = false;
  eng.spawn("receiver", [&] {
    acks.post(/*tag=*/7, /*receiver_nic=*/1, /*epoch=*/1, /*seq=*/0,
              /*visible=*/sim::microseconds(10));
  });
  eng.spawn("sender", [&] {
    got = cum_acked_by(eng, acks, 7, 1, 1, 0, sim::milliseconds(1));
    EXPECT_EQ(eng.now(), sim::microseconds(10));
  });
  eng.run();
  EXPECT_TRUE(got);
}

TEST(AckRegistry, AwaitTimesOutWithoutPost) {
  sim::Engine eng;
  AckRegistry acks(eng, "acks");
  bool got = true;
  eng.spawn("sender", [&] {
    got = cum_acked_by(eng, acks, 7, 1, 1, 0, sim::milliseconds(2));
    EXPECT_EQ(eng.now(), sim::milliseconds(2));
  });
  eng.run();
  EXPECT_FALSE(got);
}

TEST(AckRegistry, HigherSeqSatisfiesLowerAwait) {
  sim::Engine eng;
  AckRegistry acks(eng, "acks");
  bool got = false;
  eng.spawn("receiver", [&] { acks.post(7, 1, 1, /*seq=*/5, 0); });
  eng.spawn("sender",
            [&] { got = cum_acked_by(eng, acks, 7, 1, 1, /*seq=*/3, 10); });
  eng.run();
  EXPECT_TRUE(got);
}

TEST(AckRegistry, StaleEpochNeitherSatisfiesNorRegresses) {
  sim::Engine eng;
  AckRegistry acks(eng, "acks");
  bool old_epoch = true;
  bool new_epoch = false;
  eng.spawn("receiver", [&] {
    acks.post(7, 1, /*epoch=*/2, /*seq=*/0, 0);
    acks.post(7, 1, /*epoch=*/1, /*seq=*/9, 0);  // stale: ignored
  });
  eng.spawn("sender", [&] {
    old_epoch = cum_acked_by(eng, acks, 7, 1, /*epoch=*/1, /*seq=*/0,
                             sim::seconds(1));
    new_epoch = cum_acked_by(eng, acks, 7, 1, /*epoch=*/2, /*seq=*/0,
                             sim::seconds(1));
  });
  eng.run();
  EXPECT_FALSE(old_epoch);
  EXPECT_TRUE(new_epoch);
}

TEST(AckRegistry, StreamsAreKeyedByTagAndReceiver) {
  sim::Engine eng;
  AckRegistry acks(eng, "acks");
  bool wrong_nic = true;
  bool right_nic = false;
  eng.spawn("receiver", [&] { acks.post(7, /*receiver_nic=*/2, 1, 0, 0); });
  eng.spawn("sender", [&] {
    wrong_nic = cum_acked_by(eng, acks, 7, /*receiver_nic=*/1, 1, 0,
                             sim::seconds(1));
    right_nic = cum_acked_by(eng, acks, 7, /*receiver_nic=*/2, 1, 0,
                             sim::seconds(1));
  });
  eng.run();
  EXPECT_FALSE(wrong_nic);
  EXPECT_TRUE(right_nic);
}

// ------------------------------------------------- FaultPlan::validate()

TEST(FaultPlanValidate, RejectsInvertedLinkDownWindow) {
  FaultPlan plan;
  plan.link_downs.push_back({sim::milliseconds(2), sim::milliseconds(1)});
  EXPECT_THROW(plan.validate(), util::PanicError);
}

TEST(FaultPlanValidate, RejectsUnboundedPeriodicWindow) {
  FaultPlan plan;
  plan.link_downs.push_back(
      {0, sim::kForever, -1, -1, /*period=*/sim::milliseconds(4)});
  EXPECT_THROW(plan.validate(), util::PanicError);
}

TEST(FaultPlanValidate, RejectsPeriodShorterThanItsWindow) {
  FaultPlan plan;
  plan.link_downs.push_back(
      {0, sim::milliseconds(4), -1, -1, /*period=*/sim::milliseconds(2)});
  EXPECT_THROW(plan.validate(), util::PanicError);
}

TEST(FaultPlanValidate, RejectsDegradedWindowOutOfRange) {
  FaultPlan overdrop;
  overdrop.degraded.push_back(
      {0, sim::milliseconds(1), -1, -1, 0, false, 0, /*drop_rate=*/1.5});
  EXPECT_THROW(overdrop.validate(), util::PanicError);
  FaultPlan negative_latency;
  negative_latency.degraded.push_back(
      {0, sim::milliseconds(1), -1, -1, 0, false, /*extra_latency=*/-1, 0.0});
  EXPECT_THROW(negative_latency.validate(), util::PanicError);
}

TEST(FaultPlanValidate, RejectsMalformedCrash) {
  FaultPlan unindexed;
  unindexed.crashes.push_back({/*nic_index=*/-1, 0});
  EXPECT_THROW(unindexed.validate(), util::PanicError);
  FaultPlan never_down;
  never_down.crashes.push_back(
      {0, sim::milliseconds(2), /*recover_at=*/sim::milliseconds(2)});
  EXPECT_THROW(never_down.validate(), util::PanicError);
}

TEST(FaultPlanValidate, AcceptsWellFormedPlan) {
  FaultPlan plan;
  plan.drop_rate = 0.1;
  plan.corrupt_rate = 0.1;
  plan.duplicate_rate = 0.1;
  plan.link_downs.push_back({sim::milliseconds(1), sim::milliseconds(2), 0,
                             1, /*period=*/sim::milliseconds(4)});
  plan.add_symmetric_link_down(0, sim::milliseconds(1), 0, 1);
  plan.degraded.push_back({0, sim::milliseconds(1), -1, -1, 0, true,
                           sim::microseconds(5), 0.2});
  plan.crashes.push_back({0, sim::milliseconds(1), sim::milliseconds(2)});
  EXPECT_NO_THROW(plan.validate());
}

// ------------------------------------------- churn primitives (PR 6)

TEST(FaultInjector, PeriodicWindowFlapsRepeatedly) {
  FaultPlan plan;
  plan.link_downs.push_back({sim::milliseconds(1), sim::milliseconds(2), -1,
                             -1, /*period=*/sim::milliseconds(4)});
  FaultInjector injector(plan);
  // Before the first window.
  EXPECT_EQ(injector.decide(0, 1, 16, 0), FaultAction::Deliver);
  // First occurrence: [1ms, 2ms).
  EXPECT_EQ(injector.decide(0, 1, 16, sim::milliseconds(1)),
            FaultAction::Drop);
  EXPECT_EQ(injector.decide(0, 1, 16, sim::milliseconds(2)),
            FaultAction::Deliver);
  // Second occurrence: [5ms, 6ms).
  EXPECT_EQ(injector.decide(0, 1, 16, sim::milliseconds(5)),
            FaultAction::Drop);
  EXPECT_EQ(injector.decide(0, 1, 16, sim::milliseconds(6)),
            FaultAction::Deliver);
  // Far future: the flap keeps repeating.
  EXPECT_EQ(injector.decide(0, 1, 16, sim::milliseconds(401)),
            FaultAction::Drop);
}

TEST(FaultInjector, CrashRecoveryRestoresDelivery) {
  FaultPlan plan;
  plan.crashes.push_back(
      {1, sim::milliseconds(1), /*recover_at=*/sim::milliseconds(2)});
  FaultInjector injector(plan);
  EXPECT_FALSE(injector.nic_down(1, 0));
  EXPECT_TRUE(injector.nic_down(1, sim::milliseconds(1)));
  EXPECT_FALSE(injector.nic_down(1, sim::milliseconds(2)));
  EXPECT_EQ(injector.decide(0, 1, 16, sim::milliseconds(1)),
            FaultAction::Drop);
  EXPECT_EQ(injector.decide(0, 1, 16, sim::milliseconds(2)),
            FaultAction::Deliver);
  // Overlap query: "did it crash at any point while I was working?"
  EXPECT_TRUE(injector.nic_down_within(1, 0, sim::milliseconds(3)));
  EXPECT_TRUE(
      injector.nic_down_within(1, 0, sim::milliseconds(1)));
  EXPECT_FALSE(injector.nic_down_within(1, sim::milliseconds(2),
                                        sim::milliseconds(3)));
}

TEST(FaultInjector, SymmetricLinkDownDropsBothDirections) {
  FaultPlan plan;
  plan.add_symmetric_link_down(0, sim::kForever, 0, 1);
  FaultInjector injector(plan);
  EXPECT_EQ(injector.decide(0, 1, 16, 0), FaultAction::Drop);
  EXPECT_EQ(injector.decide(1, 0, 16, 0), FaultAction::Drop);
  EXPECT_EQ(injector.decide(0, 2, 16, 0), FaultAction::Deliver);
  EXPECT_EQ(injector.decide(2, 1, 16, 0), FaultAction::Deliver);
}

TEST(FaultInjector, DegradedWindowDropsEligiblePacketsOnly) {
  FaultPlan plan;
  plan.degraded.push_back({0, sim::kForever, -1, -1, 0, false,
                           /*extra_latency=*/0, /*drop_rate=*/1.0});
  FaultInjector injector(plan);
  // Control-frame-sized packets stay exempt, like probabilistic faults.
  EXPECT_EQ(injector.decide(0, 1, plan.min_faultable_size - 1, 0),
            FaultAction::Deliver);
  EXPECT_EQ(injector.decide(0, 1, 1024, 0), FaultAction::Drop);
  EXPECT_EQ(injector.stats().degraded_drops, 1u);
}

TEST(FaultInjector, DegradationSumsLatencyAndCombinesDropRates) {
  FaultPlan plan;
  plan.degraded.push_back({0, sim::kForever, 0, 1, 0, false,
                           sim::microseconds(5), 0.5});
  plan.degraded.push_back({0, sim::kForever, 0, 1, 0, false,
                           sim::microseconds(7), 0.5});
  FaultInjector injector(plan);
  const Degradation d = injector.degradation(0, 1, 0);
  EXPECT_EQ(d.extra_latency, sim::microseconds(12));
  EXPECT_DOUBLE_EQ(d.drop_rate, 0.75);  // independent losses
  EXPECT_EQ(injector.stats().degraded_delays, 1u);
  // The reverse direction is untouched by the directed windows.
  const Degradation rev = injector.degradation(1, 0, 0);
  EXPECT_EQ(rev.extra_latency, 0);
  EXPECT_DOUBLE_EQ(rev.drop_rate, 0.0);
}

TEST(FaultNetwork, OneWayLinkDownLetsAcksThrough) {
  sim::Engine eng;
  FaultPlan plan;
  // Data direction (nic 0 -> nic 1) is down; the reverse ack path is not.
  plan.link_downs.push_back({0, sim::kForever, /*src=*/0, /*dst=*/1});
  FaultRig rig(eng, plan);
  bool got = false;
  eng.spawn("receiver", [&] {
    rig.net.post_ack(/*tag=*/7, /*receiver_nic=*/1, /*sender_nic=*/0,
                     /*epoch=*/1, /*seq=*/0);
  });
  eng.spawn("sender", [&] {
    got = cum_acked_by(eng, rig.net.acks(), 7, 1, 1, 0,
                       sim::milliseconds(1));
  });
  eng.run();
  EXPECT_TRUE(got);
  EXPECT_EQ(rig.net.fault_injector()->stats().acks_suppressed, 0u);
}

TEST(FaultNetwork, SymmetricLinkDownSuppressesAcksToo) {
  sim::Engine eng;
  FaultPlan plan;
  plan.add_symmetric_link_down(0, sim::kForever, 0, 1);
  FaultRig rig(eng, plan);
  bool got = true;
  eng.spawn("receiver", [&] {
    rig.net.post_ack(7, /*receiver_nic=*/1, /*sender_nic=*/0, 1, 0);
  });
  eng.spawn("sender", [&] {
    got = cum_acked_by(eng, rig.net.acks(), 7, 1, 1, 0,
                       sim::milliseconds(1));
  });
  eng.run();
  EXPECT_FALSE(got);
  EXPECT_EQ(rig.net.fault_injector()->stats().acks_suppressed, 1u);
}

TEST(FaultNetwork, FaultStatsExposedAsMetricsCounters) {
  sim::Engine eng;
  FaultPlan plan;
  plan.seed = 11;
  plan.drop_rate = 0.5;
  FaultRig rig(eng, plan);
  sim::MetricsRegistry& metrics = rig.fabric.metrics();
  metrics.enable();
  rig.net.set_metrics(&metrics);
  eng.spawn("s", [&] {
    std::vector<std::byte> data(1024, std::byte{1});
    for (int i = 0; i < 40; ++i) {
      rig.nic_a.send(rig.nic_b.index(), 1, util::ByteSpan(data));
    }
  });
  eng.run();
  const FaultStats& stats = rig.net.fault_injector()->stats();
  ASSERT_GT(stats.dropped, 0u);
  ASSERT_GT(stats.delivered, 0u);
  EXPECT_EQ(metrics.counter("fault.dropped", "network=net0").value,
            stats.dropped);
  EXPECT_EQ(metrics.counter("fault.delivered", "network=net0").value,
            stats.delivered);
}

// --------------------------------------------- AckRegistry edge cases

TEST(AckRegistry, PostedCoverTimeForgetsTheOldEpoch) {
  sim::Engine eng;
  AckRegistry acks(eng, "acks");
  eng.spawn("t", [&] {
    acks.post(7, 1, /*epoch=*/1, /*seq=*/5, sim::microseconds(10));
    EXPECT_EQ(acks.posted_cover_time(7, 1, 1, 3), sim::microseconds(10));
    // A fresh epoch replaces the stream state wholesale: the old epoch's
    // cover is gone, the new epoch covers only what it acked itself.
    acks.post(7, 1, /*epoch=*/2, /*seq=*/0, sim::microseconds(20));
    EXPECT_EQ(acks.posted_cover_time(7, 1, 1, 3), sim::kForever);
    EXPECT_EQ(acks.posted_cover_time(7, 1, 2, 0), sim::microseconds(20));
    EXPECT_EQ(acks.posted_cover_time(7, 1, 2, 1), sim::kForever);
  });
  eng.run();
}

TEST(AckRegistry, WaitActivityWithPassedDeadlineReturnsImmediately) {
  sim::Engine eng;
  AckRegistry acks(eng, "acks");
  eng.spawn("t", [&] {
    eng.sleep_until(sim::milliseconds(2));
    acks.wait_activity(7, 1, /*deadline=*/sim::milliseconds(1));
    EXPECT_EQ(eng.now(), sim::milliseconds(2));  // did not block
  });
  eng.run();
}

TEST(AckRegistry, ViewOnSackOnlyStreamHasNoCumulativeMark) {
  sim::Engine eng;
  AckRegistry acks(eng, "acks");
  eng.spawn("t", [&] {
    acks.post_sack(7, 1, /*epoch=*/1, /*seq=*/3, /*visible=*/0);
    const AckView view = acks.view(7, 1, 1);
    EXPECT_FALSE(view.has_cum);
    EXPECT_EQ(view.cum_posts, 0u);
    ASSERT_EQ(view.sacks.size(), 1u);
    EXPECT_EQ(view.sacks[0], 3u);
    // The sack covers exactly its own seq, nothing below it.
    EXPECT_EQ(acks.posted_cover_time(7, 1, 1, 3), 0);
    EXPECT_EQ(acks.posted_cover_time(7, 1, 1, 2), sim::kForever);
  });
  eng.run();
}

TEST(AckRegistry, HoldIsSeenOnceVisibleAndForgottenWithItsEpoch) {
  sim::Engine eng;
  AckRegistry acks(eng, "acks");
  eng.spawn("t", [&] {
    EXPECT_EQ(acks.view(7, 1, 1).last_hold, -1);
    acks.post_hold(7, 1, /*epoch=*/1, sim::microseconds(10));
    acks.post_hold(7, 1, /*epoch=*/1, sim::microseconds(30));
    EXPECT_EQ(acks.view(7, 1, 1).last_hold, -1);  // latency still running
    eng.sleep_until(sim::microseconds(20));
    const AckView view = acks.view(7, 1, 1);
    EXPECT_EQ(view.last_hold, sim::microseconds(10));
    // A hold is no ack: it neither covers a seq nor wakes the sender.
    EXPECT_FALSE(view.has_cum);
    EXPECT_EQ(view.next_visible, sim::kForever);
    EXPECT_EQ(acks.posted_cover_time(7, 1, 1, 0), sim::kForever);
    eng.sleep_until(sim::microseconds(30));
    EXPECT_EQ(acks.view(7, 1, 1).last_hold, sim::microseconds(30));
    // A fresh epoch's stream starts unheld.
    acks.post(7, 1, /*epoch=*/2, /*seq=*/0, sim::microseconds(30));
    EXPECT_EQ(acks.view(7, 1, 2).last_hold, -1);
  });
  eng.run();
}

TEST(FaultNetwork, PostAckSuppressedWhileReceiverCrashed) {
  sim::Engine eng;
  FaultPlan plan;
  plan.crashes.push_back({/*nic_index=*/0, /*at=*/0});
  FaultRig rig(eng, plan);
  bool got = true;
  eng.spawn("receiver", [&] {
    // nic 0 (the poster) is crashed: the ack must be swallowed.
    rig.net.post_ack(/*tag=*/7, /*receiver_nic=*/0, /*sender_nic=*/1,
                     /*epoch=*/1, /*seq=*/0);
  });
  eng.spawn("sender", [&] {
    got = cum_acked_by(eng, rig.net.acks(), 7, 0, 1, 0,
                       sim::milliseconds(1));
  });
  eng.run();
  EXPECT_FALSE(got);
  EXPECT_EQ(rig.net.fault_injector()->stats().acks_suppressed, 1u);
}

}  // namespace
}  // namespace mad::net
