#include "topo/health.hpp"

#include <algorithm>
#include <cmath>

#include "util/panic.hpp"

namespace mad::topo {

namespace {

/// EWMA gain for SRTT samples (matches the reliable layer's 1/8).
constexpr double kRttAlpha = 0.125;

/// 2^(-elapsed / half_life); 1.0 when half_life is zero or elapsed is not
/// positive.
double decay_factor(sim::Time elapsed, sim::Time half_life) {
  if (half_life <= 0 || elapsed <= 0) {
    return 1.0;
  }
  return std::exp2(-static_cast<double>(elapsed) /
                   static_cast<double>(half_life));
}

/// Integer edge cost of `score`: 1 at score 1, kMaxEdgeCost at score 0.
std::uint32_t quantize(double score) {
  const double deficit = std::clamp(1.0 - score, 0.0, 1.0);
  return 1 + static_cast<std::uint32_t>(std::lround(
                 static_cast<double>(kMaxEdgeCost - 1) * deficit));
}

}  // namespace

void HealthOptions::validate() const {
  MAD_ASSERT(check_interval > 0, "health check interval must be positive");
  MAD_ASSERT(loss_alpha > 0.0 && loss_alpha <= 1.0,
             "health loss_alpha must be in (0, 1]");
  MAD_ASSERT(penalty_half_life > 0 && score_recovery_half_life > 0,
             "health half-lives must be positive");
  MAD_ASSERT(hold_down >= 0, "hold_down must be non-negative");
}

HealthMonitor::HealthMonitor(HealthOptions options)
    : options_(options) {
  options_.validate();
}

HealthMonitor::EdgeState HealthMonitor::healed(const EdgeState& edge,
                                               sim::Time now) const {
  EdgeState h = edge;
  const double f =
      decay_factor(now - edge.last_sample, options_.score_recovery_half_life);
  if (f < 1.0) {
    h.loss_ewma *= f;
    if (h.have_rtt) {
      h.srtt_us = h.base_rtt_us + (h.srtt_us - h.base_rtt_us) * f;
    }
  }
  return h;
}

void HealthMonitor::record_ack(NodeId from, NodeId to, sim::Time now,
                               double rtt_us) {
  EdgeState& edge = edges_[{from, to}];
  // Fold the idle-healing accrued since the last sample into the stored
  // state first, so stored and lazily-queried scores agree.
  edge = healed(edge, now);
  edge.loss_ewma *= 1.0 - options_.loss_alpha;
  if (rtt_us > 0.0) {
    if (!edge.have_rtt) {
      edge.have_rtt = true;
      edge.srtt_us = rtt_us;
      edge.base_rtt_us = rtt_us;
    } else {
      edge.srtt_us += kRttAlpha * (rtt_us - edge.srtt_us);
      edge.base_rtt_us = std::min(edge.base_rtt_us, rtt_us);
    }
  }
  edge.last_sample = now;
}

void HealthMonitor::record_loss(NodeId from, NodeId to, sim::Time now) {
  EdgeState& edge = edges_[{from, to}];
  edge = healed(edge, now);
  edge.loss_ewma =
      edge.loss_ewma * (1.0 - options_.loss_alpha) + options_.loss_alpha;
  edge.last_sample = now;
}

double HealthMonitor::score_of(const EdgeState& edge, sim::Time now) const {
  const EdgeState h = healed(edge, now);
  double timeliness = 1.0;
  if (h.have_rtt && h.srtt_us > 0.0) {
    timeliness =
        std::clamp(kRttInflation * h.base_rtt_us / h.srtt_us, 0.0, 1.0);
  }
  return (1.0 - h.loss_ewma) * timeliness;
}

double HealthMonitor::edge_score(NodeId from, NodeId to, sim::Time now) const {
  const auto it = edges_.find({from, to});
  return it == edges_.end() ? 1.0 : score_of(it->second, now);
}

double HealthMonitor::node_score(NodeId node, sim::Time now) const {
  double worst = 1.0;
  for (const auto& [key, edge] : edges_) {
    if (key.second == node) {
      worst = std::min(worst, score_of(edge, now));
    }
  }
  return worst;
}

double HealthMonitor::route_score(NodeId src, const Route& route,
                                  sim::Time now) const {
  double worst = 1.0;
  NodeId from = src;
  for (const Hop& hop : route) {
    worst = std::min(worst, edge_score(from, hop.node, now));
    from = hop.node;
  }
  return worst;
}

bool HealthMonitor::node_healthy(NodeId node, sim::Time now) {
  NodeState& state = nodes_[node];
  const double score = node_score(node, now);
  if (state.unhealthy) {
    if (score >= kUpScore) {
      state.unhealthy = false;
    }
  } else if (score < kDownScore) {
    state.unhealthy = true;
  }
  return !state.unhealthy;
}

double HealthMonitor::decayed_penalty(const NodeState& node,
                                      sim::Time now) const {
  return node.penalty *
         decay_factor(now - node.penalty_updated, options_.penalty_half_life);
}

double HealthMonitor::penalty(NodeId node, sim::Time now) const {
  const auto it = nodes_.find(node);
  return it == nodes_.end() ? 0.0 : decayed_penalty(it->second, now);
}

bool HealthMonitor::suppressed(NodeId node, sim::Time now) {
  const auto it = nodes_.find(node);
  if (it == nodes_.end()) {
    return false;
  }
  NodeState& state = it->second;
  if (state.suppressed &&
      decayed_penalty(state, now) < kReuseThreshold) {
    state.suppressed = false;
  }
  return state.suppressed;
}

void HealthMonitor::note_excluded(NodeId node, sim::Time now) {
  NodeState& state = nodes_[node];
  state.penalty = decayed_penalty(state, now) + kFlapPenalty;
  state.penalty_updated = now;
  if (state.penalty >= kSuppressThreshold) {
    state.suppressed = true;
  }
  state.unhealthy = true;
  state.ever_excluded = true;
  state.last_excluded = now;
}

void HealthMonitor::note_readmitted(NodeId node, sim::Time now) {
  // Wipe the node's edge history: the trial readmission judges fresh
  // traffic, not the stale samples that condemned it. The flap penalty
  // deliberately survives — that is the damping.
  for (auto it = edges_.begin(); it != edges_.end();) {
    if (it->first.first == node || it->first.second == node) {
      it = edges_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = costs_.begin(); it != costs_.end();) {
    if (it->first.first == node || it->first.second == node) {
      costs_dirty_ = true;
      it = costs_.erase(it);
    } else {
      ++it;
    }
  }
  nodes_[node].unhealthy = false;
  (void)now;
}

bool HealthMonitor::may_readmit(NodeId node, sim::Time now) {
  const auto it = nodes_.find(node);
  if (it == nodes_.end() || !it->second.ever_excluded) {
    return true;
  }
  if (now < it->second.last_excluded + options_.hold_down) {
    return false;
  }
  return !suppressed(node, now);
}

void HealthMonitor::advance(sim::Time now) {
  for (const auto& [key, edge] : edges_) {
    const std::uint32_t cost = quantize(score_of(edge, now));
    auto it = costs_.find(key);
    if (it == costs_.end()) {
      if (cost != 1) {
        costs_.emplace(key, cost);
        costs_dirty_ = true;
      }
    } else if (it->second != cost) {
      it->second = cost;
      costs_dirty_ = true;
    }
  }
}

bool HealthMonitor::take_costs_dirty() {
  const bool dirty = costs_dirty_;
  costs_dirty_ = false;
  return dirty;
}

std::uint32_t HealthMonitor::edge_cost(NodeId from, NodeId to,
                                       NetworkId via) const {
  (void)via;
  const auto it = costs_.find({from, to});
  return it == costs_.end() ? 1 : it->second;
}

}  // namespace mad::topo
