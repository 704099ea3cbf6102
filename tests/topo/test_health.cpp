// HealthMonitor: EWMA edge scores, idle healing, hysteresis, BGP-style
// flap damping, readmission gating, and quantized edge costs.
#include "topo/health.hpp"

#include <gtest/gtest.h>

#include "util/panic.hpp"

namespace mad::topo {
namespace {

HealthOptions options() {
  HealthOptions opts;
  opts.enabled = true;
  return opts;
}

TEST(HealthOptions, ValidateRejectsOutOfRangeSettings) {
  {
    HealthOptions bad = options();
    bad.loss_alpha = 0.0;
    EXPECT_THROW(bad.validate(), util::PanicError);
  }
  {
    HealthOptions bad = options();
    bad.penalty_half_life = 0;
    EXPECT_THROW(bad.validate(), util::PanicError);
  }
  EXPECT_NO_THROW(options().validate());
}

TEST(HealthMonitor, UnsampledEdgesScorePerfect) {
  HealthMonitor mon(options());
  EXPECT_DOUBLE_EQ(mon.edge_score(0, 1, 0), 1.0);
  EXPECT_DOUBLE_EQ(mon.node_score(1, 0), 1.0);
}

TEST(HealthMonitor, LossEventsDragTheScoreDown) {
  HealthMonitor mon(options());
  mon.record_ack(0, 1, sim::microseconds(1), 100.0);
  const double clean = mon.edge_score(0, 1, sim::microseconds(1));
  EXPECT_DOUBLE_EQ(clean, 1.0);
  for (int i = 0; i < 10; ++i) {
    mon.record_loss(0, 1, sim::microseconds(2 + i));
  }
  const double lossy = mon.edge_score(0, 1, sim::microseconds(12));
  EXPECT_LT(lossy, 0.2);  // loss_ewma ~ 1 - 0.8^10 ~ 0.89
}

TEST(HealthMonitor, RttInflationDegradesTimeliness) {
  HealthMonitor mon(options());
  // Establish base RTT = 100us, then inflate the SRTT well past the
  // kRttInflation tolerance (4x): score must fall below 1.
  mon.record_ack(0, 1, sim::microseconds(1), 100.0);
  for (int i = 0; i < 50; ++i) {
    mon.record_ack(0, 1, sim::microseconds(2 + i), 2000.0);
  }
  const double inflated = mon.edge_score(0, 1, sim::microseconds(52));
  EXPECT_LT(inflated, 0.5);
  EXPECT_GT(inflated, 0.0);
}

TEST(HealthMonitor, IdleEdgeHealsWithHalfLife) {
  HealthOptions opts = options();
  opts.score_recovery_half_life = sim::milliseconds(1);
  HealthMonitor mon(opts);
  for (int i = 0; i < 10; ++i) {
    mon.record_loss(0, 1, 0);
  }
  const double sick = mon.edge_score(0, 1, 0);
  ASSERT_LT(sick, 0.2);
  // After 10 half-lives of silence the loss EWMA has decayed ~1000x.
  const double healed = mon.edge_score(0, 1, sim::milliseconds(10));
  EXPECT_GT(healed, 0.99);
  // The const query did not mutate: the sick score is still observable
  // in the past... but time only moves forward; re-query the healed time.
  EXPECT_DOUBLE_EQ(mon.edge_score(0, 1, sim::milliseconds(10)), healed);
}

TEST(HealthMonitor, NodeHealthUsesStickyHysteresis) {
  HealthOptions opts = options();
  opts.score_recovery_half_life = sim::milliseconds(1);
  HealthMonitor mon(opts);
  EXPECT_TRUE(mon.node_healthy(1, 0));
  for (int i = 0; i < 10; ++i) {
    mon.record_loss(0, 1, 0);
  }
  EXPECT_FALSE(mon.node_healthy(1, 0));
  // Healing lifts the score above kDownScore but not yet above kUpScore:
  // the latch keeps the node unhealthy (no oscillation at one threshold).
  sim::Time t = 0;
  bool crossed_down = false;
  for (int i = 1; i <= 20; ++i) {
    t = sim::microseconds(100 * i);
    const double s = mon.node_score(1, t);
    if (s > kDownScore && s < kUpScore) {
      crossed_down = true;
      EXPECT_FALSE(mon.node_healthy(1, t));
    }
  }
  EXPECT_TRUE(crossed_down);
  // Well past kUpScore it flips healthy again.
  EXPECT_TRUE(mon.node_healthy(1, sim::milliseconds(20)));
}

TEST(HealthMonitor, PenaltyAccumulatesAndDecaysExponentially) {
  HealthOptions opts = options();
  opts.penalty_half_life = sim::milliseconds(100);
  HealthMonitor mon(opts);
  EXPECT_DOUBLE_EQ(mon.penalty(1, 0), 0.0);
  mon.note_excluded(1, 0);
  EXPECT_DOUBLE_EQ(mon.penalty(1, 0), 1.0);
  // One half-life later, half the penalty remains.
  EXPECT_NEAR(mon.penalty(1, sim::milliseconds(100)), 0.5, 1e-9);
  // A second exclusion stacks on what is left.
  mon.note_excluded(1, sim::milliseconds(100));
  EXPECT_NEAR(mon.penalty(1, sim::milliseconds(100)), 1.5, 1e-9);
}

TEST(HealthMonitor, FastFlappingNodeGetsSuppressed) {
  HealthOptions opts = options();
  opts.penalty_half_life = sim::milliseconds(100);
  opts.hold_down = 0;
  HealthMonitor mon(opts);
  // Three rapid flaps cross the suppress threshold.
  mon.note_excluded(1, 0);
  EXPECT_FALSE(mon.suppressed(1, 0));
  EXPECT_TRUE(mon.may_readmit(1, 0));
  mon.note_excluded(1, sim::microseconds(1));
  mon.note_excluded(1, sim::microseconds(2));
  EXPECT_TRUE(mon.suppressed(1, sim::microseconds(2)));
  EXPECT_FALSE(mon.may_readmit(1, sim::microseconds(2)));
  // Suppression is sticky: even when the penalty dips below the suppress
  // threshold it holds until the penalty decays under kReuseThreshold.
  // penalty 3.0 reaches 1.0 after log2(3) half-lives (~159 ms).
  EXPECT_TRUE(mon.suppressed(1, sim::milliseconds(120)));
  EXPECT_FALSE(mon.suppressed(1, sim::milliseconds(200)));
  EXPECT_TRUE(mon.may_readmit(1, sim::milliseconds(200)));
}

TEST(HealthMonitor, HoldDownDelaysTrialReadmission) {
  HealthOptions opts = options();
  opts.hold_down = sim::milliseconds(5);
  HealthMonitor mon(opts);
  mon.note_excluded(1, sim::milliseconds(10));
  EXPECT_FALSE(mon.may_readmit(1, sim::milliseconds(10)));
  EXPECT_FALSE(mon.may_readmit(1, sim::milliseconds(14)));
  EXPECT_TRUE(mon.may_readmit(1, sim::milliseconds(15)));
}

TEST(HealthMonitor, ReadmissionWipesEdgeHistoryButKeepsPenalty) {
  HealthOptions opts = options();
  opts.penalty_half_life = sim::seconds(100);  // effectively frozen
  HealthMonitor mon(opts);
  for (int i = 0; i < 10; ++i) {
    mon.record_loss(0, 1, 0);
  }
  mon.note_excluded(1, 0);
  ASSERT_LT(mon.edge_score(0, 1, 0), 0.2);
  mon.note_readmitted(1, sim::milliseconds(1));
  // The trial starts from a clean slate...
  EXPECT_DOUBLE_EQ(mon.edge_score(0, 1, sim::milliseconds(1)), 1.0);
  EXPECT_TRUE(mon.node_healthy(1, sim::milliseconds(1)));
  // ...but the flap penalty survives (that is the damping).
  EXPECT_NEAR(mon.penalty(1, sim::milliseconds(1)), 1.0, 1e-3);
}

TEST(HealthMonitor, RouteScoreIsTheWorstHop) {
  HealthMonitor mon(options());
  mon.record_ack(0, 1, 0, 100.0);
  for (int i = 0; i < 10; ++i) {
    mon.record_loss(1, 3, 0);
  }
  const Route route = {Hop{0, 1}, Hop{1, 3}};
  EXPECT_DOUBLE_EQ(mon.route_score(0, route, 0),
                   mon.edge_score(1, 3, 0));
}

TEST(HealthMonitor, AdvanceQuantizesScoresIntoEdgeCosts) {
  HealthOptions opts = options();
  HealthMonitor mon(opts);
  // A perfect edge costs 1 (and never dirties the cost table).
  mon.record_ack(0, 1, 0, 100.0);
  mon.advance(0);
  EXPECT_FALSE(mon.take_costs_dirty());
  EXPECT_EQ(mon.edge_cost(0, 1, 0), 1u);
  // A condemned edge approaches kMaxEdgeCost.
  for (int i = 0; i < 20; ++i) {
    mon.record_loss(0, 2, 0);
  }
  mon.advance(0);
  EXPECT_TRUE(mon.take_costs_dirty());
  EXPECT_FALSE(mon.take_costs_dirty());  // consumed
  EXPECT_GE(mon.edge_cost(0, 2, 0), 7u);
  EXPECT_LE(mon.edge_cost(0, 2, 0), 8u);
  // Unknown edges stay at unit cost.
  EXPECT_EQ(mon.edge_cost(5, 6, 0), 1u);
}

TEST(HealthMonitor, KarnStyleAcksWithoutRttStillClearLoss) {
  HealthMonitor mon(options());
  for (int i = 0; i < 5; ++i) {
    mon.record_loss(0, 1, 0);
  }
  const double sick = mon.edge_score(0, 1, 0);
  // rtt_us <= 0: loss-free event only, no RTT sample.
  for (int i = 0; i < 20; ++i) {
    mon.record_ack(0, 1, 0, -1.0);
  }
  EXPECT_GT(mon.edge_score(0, 1, 0), sick);
  EXPECT_GT(mon.edge_score(0, 1, 0), 0.9);
}

}  // namespace
}  // namespace mad::topo
