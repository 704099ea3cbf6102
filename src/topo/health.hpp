// Link-health monitoring: EWMA edge scores, hysteresis, BGP-style flap
// damping, and quality-weighted edge costs for topo::Routing.
//
// The reliable layer (fwd/reliable) already measures every hop: SRTT from
// ack round-trips and a loss event per timeout / fast retransmit. The
// HealthMonitor folds those per-(sender, receiver) signals into an edge
// score in [0, 1]:
//
//   score = (1 - loss_ewma) * clamp(kRttInflation * base_rtt / srtt, 0, 1)
//
// so a lossless edge at nominal latency scores 1.0, a brownout (inflated
// SRTT, elevated loss) decays toward 0, and an idle edge heals back toward
// 1.0 with half-life `score_recovery_half_life` — the monitor never probes,
// so healing-by-decay is what bounds the readmission interval of a link
// that simply stopped carrying traffic.
//
// A node's health is the worst of its inbound edges, mapped through sticky
// hysteresis (kDownScore/kUpScore) to avoid oscillating at one threshold.
// Exclusions feed BGP-style flap damping: each exclusion adds
// kFlapPenalty to the node's penalty, penalties decay exponentially with
// `penalty_half_life`, and a node whose penalty crosses
// kSuppressThreshold stays suppressed — ineligible for readmission — until
// the penalty decays below kReuseThreshold. A link flapping faster than
// the damping can decay therefore stays out of the route table until it
// genuinely calms down.
//
// The monitor is also an EdgeCostProvider: advance() quantizes scores into
// integer edge costs (1 = perfect, kMaxEdgeCost = dead-ish) that
// topo::Routing uses for quality-weighted shortest paths. All methods take
// the current virtual time explicitly; the monitor owns no engine and is
// driven by the VirtualChannel's health actor.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "sim/time.hpp"
#include "topo/routing.hpp"

namespace mad::topo {

/// SRTT may inflate this many times over the best observed RTT before the
/// timeliness factor starts to bite.
inline constexpr double kRttInflation = 4.0;
/// Hysteresis: a node goes unhealthy below kDownScore and must climb back
/// above kUpScore to count healthy again.
inline constexpr double kDownScore = 0.35;
inline constexpr double kUpScore = 0.7;
/// Stripe rails whose route scores below this are dropped from the plan.
inline constexpr double kRailDropScore = 0.45;
/// Flap damping: penalty added per exclusion, and the suppress/reuse
/// thresholds of the accumulated penalty.
inline constexpr double kFlapPenalty = 1.0;
inline constexpr double kSuppressThreshold = 2.5;
inline constexpr double kReuseThreshold = 1.0;
/// Cost of a score-0 edge; score-1 edges always cost 1.
inline constexpr std::uint32_t kMaxEdgeCost = 8;

struct HealthOptions {
  bool enabled = false;
  /// Cadence of the VirtualChannel health actor (quarantine/readmit/cost
  /// sweep), not of sample ingestion — samples land synchronously.
  sim::Time check_interval = sim::milliseconds(2);
  /// EWMA gain for loss events (higher = faster to condemn).
  double loss_alpha = 0.2;
  /// Exponential decay half-life of the accumulated flap penalty.
  sim::Time penalty_half_life = sim::milliseconds(400);
  /// Minimum quarantine before a trial readmission.
  sim::Time hold_down = sim::milliseconds(5);
  /// Idle-healing half-life: with no new samples, an edge's deficit
  /// (1 - score) halves every this long.
  sim::Time score_recovery_half_life = sim::milliseconds(50);

  /// Panics on out-of-range settings.
  void validate() const;
};

class HealthMonitor final : public EdgeCostProvider {
 public:
  explicit HealthMonitor(HealthOptions options);

  /// A hop (from -> to) acknowledged cleanly; rtt_us > 0 carries a fresh
  /// RTT sample, rtt_us <= 0 records the loss-free event alone (Karn's
  /// rule: retransmitted paquets yield ambiguous RTTs).
  void record_ack(NodeId from, NodeId to, sim::Time now, double rtt_us);

  /// A hop (from -> to) lost a paquet (retransmit timeout or fast
  /// retransmit).
  void record_loss(NodeId from, NodeId to, sim::Time now);

  /// Score in [0, 1] for the directed edge; 1.0 when never sampled.
  double edge_score(NodeId from, NodeId to, sim::Time now) const;

  /// Worst inbound-edge score of `node` (1.0 with no samples).
  double node_score(NodeId node, sim::Time now) const;

  /// Worst sampled edge score along `route` starting at `src`.
  double route_score(NodeId src, const Route& route, sim::Time now) const;

  /// Sticky hysteresis over node_score: flips unhealthy below kDownScore,
  /// healthy again only above kUpScore (mutates the latch).
  bool node_healthy(NodeId node, sim::Time now);

  /// Flap-damping state. penalty() decays lazily; suppressed() clears
  /// itself once the penalty falls below kReuseThreshold.
  double penalty(NodeId node, sim::Time now) const;
  bool suppressed(NodeId node, sim::Time now);

  /// Bookkeeping for Routing::exclude/readmit. note_excluded charges the
  /// flap penalty and starts the hold-down clock; note_readmitted wipes
  /// the node's edge samples so the trial starts from a clean slate.
  void note_excluded(NodeId node, sim::Time now);
  void note_readmitted(NodeId node, sim::Time now);

  /// True when the hold-down has elapsed and damping does not suppress
  /// the node. Never-excluded nodes are always readmittable.
  bool may_readmit(NodeId node, sim::Time now);

  /// Recomputes quantized edge costs as of `now`; returns nothing, but
  /// take_costs_dirty() reports whether any cost moved since the last
  /// sweep (the caller then triggers Routing::refresh_costs()).
  void advance(sim::Time now);
  bool take_costs_dirty();

  /// EdgeCostProvider: cost of the directed edge as of the last advance().
  std::uint32_t edge_cost(NodeId from, NodeId to, NetworkId via) const override;

 private:
  struct EdgeState {
    bool have_rtt = false;
    double srtt_us = 0.0;
    double base_rtt_us = 0.0;  // best (minimum) RTT ever observed
    double loss_ewma = 0.0;
    sim::Time last_sample = 0;
  };
  struct NodeState {
    double penalty = 0.0;
    sim::Time penalty_updated = 0;
    bool suppressed = false;
    bool unhealthy = false;
    bool ever_excluded = false;
    sim::Time last_excluded = 0;
  };
  using EdgeKey = std::pair<NodeId, NodeId>;

  /// Exponential idle healing applied to a snapshot of the edge state:
  /// loss decays toward 0 and SRTT toward base with the recovery
  /// half-life over the time since the last sample.
  EdgeState healed(const EdgeState& edge, sim::Time now) const;
  double score_of(const EdgeState& edge, sim::Time now) const;
  double decayed_penalty(const NodeState& node, sim::Time now) const;

  HealthOptions options_;
  std::map<EdgeKey, EdgeState> edges_;
  std::map<NodeId, NodeState> nodes_;
  std::map<EdgeKey, std::uint32_t> costs_;  // as of the last advance()
  bool costs_dirty_ = false;
};

}  // namespace mad::topo
