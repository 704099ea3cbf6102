#include "net/fault.hpp"

#include "sim/metrics.hpp"
#include "util/panic.hpp"

namespace mad::net {

namespace {

/// True while a (possibly repeating) [from, until) window covers `now`.
bool window_covers(sim::Time from, sim::Time until, sim::Time period,
                   sim::Time now) {
  if (now < from) {
    return false;
  }
  if (period == 0) {
    return now < until;
  }
  return (now - from) % period < until - from;
}

/// Matches the window's (src, dst) pair against a packet's, honoring the
/// -1 wildcards and, when `bidirectional`, the reversed pair too.
bool pair_matches(int wsrc, int wdst, bool bidirectional, int src, int dst) {
  const auto one_way = [](int a, int b, int s, int d) {
    return (a < 0 || a == s) && (b < 0 || b == d);
  };
  return one_way(wsrc, wdst, src, dst) ||
         (bidirectional && one_way(wsrc, wdst, dst, src));
}

void validate_window(sim::Time from, sim::Time until, sim::Time period,
                     const std::string& kind) {
  MAD_ASSERT(until > from, kind + " window must have until > from");
  if (period != 0) {
    MAD_ASSERT(until != sim::kForever,
               "repeating " + kind + " window needs a finite down phase");
    MAD_ASSERT(period >= until - from,
               kind + " window period shorter than its down phase never ends");
  }
}

}  // namespace

const char* fault_action_name(FaultAction action) {
  switch (action) {
    case FaultAction::Deliver:
      return "deliver";
    case FaultAction::Drop:
      return "DROP";
    case FaultAction::Corrupt:
      return "CORRUPT";
    case FaultAction::Duplicate:
      return "DUP";
  }
  return "?";
}

LinkDownWindow& FaultPlan::add_symmetric_link_down(sim::Time from,
                                                   sim::Time until, int nic_a,
                                                   int nic_b,
                                                   sim::Time period) {
  link_downs.push_back({from, until, nic_a, nic_b, period, true});
  return link_downs.back();
}

void FaultPlan::validate() const {
  const auto rate_ok = [](double rate) { return rate >= 0.0 && rate <= 1.0; };
  MAD_ASSERT(rate_ok(drop_rate) && rate_ok(corrupt_rate) &&
                 rate_ok(duplicate_rate),
             "fault rates must be in [0, 1]");
  MAD_ASSERT(drop_rate + corrupt_rate + duplicate_rate <= 1.0,
             "fault rates must sum to at most 1");
  for (const LinkDownWindow& window : link_downs) {
    validate_window(window.from, window.until, window.period, "link-down");
  }
  for (const DegradedLinkWindow& window : degraded) {
    validate_window(window.from, window.until, window.period, "degraded");
    MAD_ASSERT(rate_ok(window.drop_rate),
               "degraded drop rate must be in [0, 1]");
    MAD_ASSERT(window.extra_latency >= 0,
               "degraded extra latency must be non-negative");
  }
  for (const NicCrash& crash : crashes) {
    MAD_ASSERT(crash.nic_index >= 0, "crash needs a NIC index");
    MAD_ASSERT(crash.recover_at > crash.at,
               "crash recovery must come after the crash");
  }
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), rng_(plan_.seed) {
  plan_.validate();
}

void FaultInjector::set_metrics(sim::MetricsRegistry* metrics,
                                std::string label) {
  metrics_ = metrics;
  metrics_label_ = std::move(label);
}

void FaultInjector::bump(std::uint64_t FaultStats::* field, const char* name) {
  ++(stats_.*field);
  if (metrics_ != nullptr) {
    metrics_->add(std::string("fault.") + name, metrics_label_);
  }
}

void FaultInjector::count_ack_suppressed() {
  bump(&FaultStats::acks_suppressed, "acks_suppressed");
}

bool FaultInjector::nic_down(int nic_index, sim::Time now) const {
  for (const NicCrash& crash : plan_.crashes) {
    if (crash.nic_index == nic_index && now >= crash.at &&
        now < crash.recover_at) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::nic_down_within(int nic_index, sim::Time since,
                                    sim::Time until) const {
  for (const NicCrash& crash : plan_.crashes) {
    if (crash.nic_index == nic_index && crash.at <= until &&
        crash.recover_at > since) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::link_down(int src_nic, int dst_nic, sim::Time now) const {
  for (const LinkDownWindow& window : plan_.link_downs) {
    if (pair_matches(window.src, window.dst, window.bidirectional, src_nic,
                     dst_nic) &&
        window_covers(window.from, window.until, window.period, now)) {
      return true;
    }
  }
  return false;
}

Degradation FaultInjector::degradation(int src_nic, int dst_nic,
                                       sim::Time now) {
  Degradation result;
  double pass = 1.0;  // probability of surviving every matching window
  for (const DegradedLinkWindow& window : plan_.degraded) {
    if (pair_matches(window.src, window.dst, window.bidirectional, src_nic,
                     dst_nic) &&
        window_covers(window.from, window.until, window.period, now)) {
      result.extra_latency += window.extra_latency;
      pass *= 1.0 - window.drop_rate;
    }
  }
  result.drop_rate = 1.0 - pass;
  if (result.extra_latency > 0) {
    bump(&FaultStats::degraded_delays, "degraded_delays");
  }
  return result;
}

FaultAction FaultInjector::decide(int src_nic, int dst_nic, std::uint32_t size,
                                  sim::Time now) {
  if (nic_down(src_nic, now) || nic_down(dst_nic, now)) {
    bump(&FaultStats::crash_drops, "crash_drops");
    return FaultAction::Drop;
  }
  if (link_down(src_nic, dst_nic, now)) {
    bump(&FaultStats::link_down_drops, "link_down_drops");
    return FaultAction::Drop;
  }
  if (!plan_.degraded.empty() && size >= plan_.min_faultable_size) {
    double pass = 1.0;
    for (const DegradedLinkWindow& window : plan_.degraded) {
      if (pair_matches(window.src, window.dst, window.bidirectional, src_nic,
                       dst_nic) &&
          window_covers(window.from, window.until, window.period, now)) {
        pass *= 1.0 - window.drop_rate;
      }
    }
    if (pass < 1.0 && rng_.next_double() >= pass) {
      bump(&FaultStats::degraded_drops, "degraded_drops");
      return FaultAction::Drop;
    }
  }
  const double faultable =
      plan_.drop_rate + plan_.corrupt_rate + plan_.duplicate_rate;
  if (size < plan_.min_faultable_size || faultable <= 0.0) {
    bump(&FaultStats::delivered, "delivered");
    return FaultAction::Deliver;
  }
  const double draw = rng_.next_double();
  if (draw < plan_.drop_rate) {
    bump(&FaultStats::dropped, "dropped");
    return FaultAction::Drop;
  }
  if (draw < plan_.drop_rate + plan_.corrupt_rate) {
    bump(&FaultStats::corrupted, "corrupted");
    return FaultAction::Corrupt;
  }
  if (draw < faultable) {
    bump(&FaultStats::duplicated, "duplicated");
    return FaultAction::Duplicate;
  }
  bump(&FaultStats::delivered, "delivered");
  return FaultAction::Deliver;
}

void FaultInjector::corrupt(util::MutByteSpan payload) {
  MAD_ASSERT(!payload.empty(), "cannot corrupt an empty payload");
  const std::size_t pos = rng_.next_below(payload.size());
  payload[pos] ^= static_cast<std::byte>(rng_.next_between(1, 255));
}

AckRegistry::AckRegistry(sim::Engine& engine, std::string name)
    : engine_(engine), name_(std::move(name)) {}

AckRegistry::Stream& AckRegistry::stream(std::uint64_t tag, int receiver_nic) {
  Stream& s = streams_[{tag, receiver_nic}];
  if (!s.cond) {
    s.cond = std::make_unique<sim::Condition>(engine_, name_ + ".ack");
  }
  return s;
}

void AckRegistry::Stream::reset_epoch_state() {
  has_cum = false;
  max_seq = 0;
  visible = 0;
  cum_post_times.clear();
  cum_posts_seen = 0;
  dup_post_times.clear();
  dup_posts_seen = 0;
  mark_times.clear();
  marks_seen = 0;
  reject_times.clear();
  rejects_seen = 0;
  hold_times.clear();
  last_hold = -1;
  sacks.clear();
}

void AckRegistry::post(std::uint64_t tag, int receiver_nic,
                       std::uint32_t epoch, std::uint32_t seq,
                       sim::Time visible) {
  Stream& s = stream(tag, receiver_nic);
  if (s.any && epoch < s.epoch) {
    return;  // stale re-ack from a superseded stream
  }
  if (!s.any || epoch > s.epoch) {
    // Epoch turnover (first post, or a failover replay's fresh stream):
    // every counter restarts, so dup-ack and congestion state from the
    // superseded stream can neither trigger nor suppress a fast
    // retransmit in the new one.
    s.any = true;
    s.epoch = epoch;
    s.reset_epoch_state();
    s.has_cum = true;
    s.max_seq = seq;
    s.visible = visible;
  } else if (!s.has_cum || seq > s.max_seq) {
    s.has_cum = true;
    s.max_seq = seq;
    s.visible = visible;
  } else if (seq == s.max_seq) {
    // A re-ack of the CURRENT mark: the receiver saw something beyond its
    // contiguous prefix and is still missing the next paquet — the genuine
    // duplicate-ack signal the window sender counts toward fast
    // retransmit. Re-acks of OLDER seqs (late retransmits that finally
    // landed, epoch-boundary stragglers) fall through uncounted: they
    // carry no information about the current window front.
    s.dup_post_times.push_back({visible, seq});
  }
  // Every cumulative post still counts in the raw total (observability).
  s.cum_post_times.push_back(visible);
  // The cumulative mark supersedes selective acks it covers.
  while (!s.sacks.empty() && s.sacks.begin()->first <= s.max_seq) {
    s.sacks.erase(s.sacks.begin());
  }
  s.cond->notify_all();
}

void AckRegistry::post_mark(std::uint64_t tag, int receiver_nic,
                            std::uint32_t epoch, sim::Time visible) {
  Stream& s = stream(tag, receiver_nic);
  if (s.any && epoch < s.epoch) {
    return;  // congestion of a superseded stream is meaningless
  }
  if (!s.any || epoch > s.epoch) {
    s.any = true;
    s.epoch = epoch;
    s.reset_epoch_state();
  }
  s.mark_times.push_back(visible);
  s.cond->notify_all();
}

void AckRegistry::post_reject(std::uint64_t tag, int receiver_nic,
                              std::uint32_t epoch, sim::Time visible) {
  Stream& s = stream(tag, receiver_nic);
  if (s.any && epoch < s.epoch) {
    return;  // a reject of a superseded stream arrived late: meaningless
  }
  if (!s.any || epoch > s.epoch) {
    s.any = true;
    s.epoch = epoch;
    s.reset_epoch_state();
  }
  s.reject_times.push_back(visible);
  s.cond->notify_all();
}

void AckRegistry::post_hold(std::uint64_t tag, int receiver_nic,
                            std::uint32_t epoch, sim::Time visible) {
  Stream& s = stream(tag, receiver_nic);
  if (s.any && epoch < s.epoch) {
    return;  // a hold of a superseded stream says nothing about this one
  }
  if (!s.any || epoch > s.epoch) {
    s.any = true;
    s.epoch = epoch;
    s.reset_epoch_state();
  }
  s.hold_times.push_back(visible);
}

void AckRegistry::post_sack(std::uint64_t tag, int receiver_nic,
                            std::uint32_t epoch, std::uint32_t seq,
                            sim::Time visible) {
  Stream& s = stream(tag, receiver_nic);
  if (s.any && epoch < s.epoch) {
    return;
  }
  if (!s.any || epoch > s.epoch) {
    s.any = true;
    s.epoch = epoch;
    s.reset_epoch_state();
  }
  if (!s.has_cum || seq > s.max_seq) {
    // Keep the earliest visibility if the same seq is re-sacked.
    s.sacks.emplace(seq, visible);
  }
  s.cond->notify_all();
}

AckView AckRegistry::view(std::uint64_t tag, int receiver_nic,
                          std::uint32_t epoch) {
  Stream& s = stream(tag, receiver_nic);
  AckView v;
  if (!s.any || s.epoch != epoch) {
    return v;
  }
  const sim::Time now = engine_.now();
  if (s.has_cum) {
    if (s.visible <= now) {
      v.has_cum = true;
      v.cum_seq = s.max_seq;
    } else {
      v.next_visible = std::min(v.next_visible, s.visible);
    }
  }
  while (!s.cum_post_times.empty() && s.cum_post_times.front() <= now) {
    s.cum_post_times.pop_front();
    ++s.cum_posts_seen;
  }
  v.cum_posts = s.cum_posts_seen;
  if (!s.cum_post_times.empty()) {
    v.next_visible = std::min(v.next_visible, s.cum_post_times.front());
  }
  while (!s.dup_post_times.empty() && s.dup_post_times.front().first <= now) {
    // Consume-time re-classification: count the dup only if it re-acked
    // the frontier that is STILL current — the window front it reported
    // lost is otherwise already acked, so it is no loss signal anymore.
    if (s.dup_post_times.front().second == s.max_seq) {
      ++s.dup_posts_seen;
    }
    s.dup_post_times.pop_front();
  }
  v.dup_posts = s.dup_posts_seen;
  if (!s.dup_post_times.empty()) {
    v.next_visible = std::min(v.next_visible, s.dup_post_times.front().first);
  }
  while (!s.mark_times.empty() && s.mark_times.front() <= now) {
    s.mark_times.pop_front();
    ++s.marks_seen;
  }
  v.marks = s.marks_seen;
  if (!s.mark_times.empty()) {
    v.next_visible = std::min(v.next_visible, s.mark_times.front());
  }
  while (!s.reject_times.empty() && s.reject_times.front() <= now) {
    s.reject_times.pop_front();
    ++s.rejects_seen;
  }
  v.rejects = s.rejects_seen;
  if (!s.reject_times.empty()) {
    v.next_visible = std::min(v.next_visible, s.reject_times.front());
  }
  // A hold wakes no sender: it only matters once a timer expires.
  while (!s.hold_times.empty() && s.hold_times.front() <= now) {
    s.last_hold = s.hold_times.front();
    s.hold_times.pop_front();
  }
  v.last_hold = s.last_hold;
  for (const auto& [sack_seq, sack_visible] : s.sacks) {
    if (sack_visible <= now) {
      v.sacks.push_back(sack_seq);
    } else {
      v.next_visible = std::min(v.next_visible, sack_visible);
    }
  }
  return v;
}

sim::Time AckRegistry::posted_cover_time(std::uint64_t tag, int receiver_nic,
                                         std::uint32_t epoch,
                                         std::uint32_t seq) {
  Stream& s = stream(tag, receiver_nic);
  if (!s.any || s.epoch != epoch) {
    return sim::kForever;
  }
  if (s.has_cum && s.max_seq >= seq) {
    return s.visible;
  }
  const auto it = s.sacks.find(seq);
  if (it != s.sacks.end()) {
    return it->second;
  }
  return sim::kForever;
}

void AckRegistry::wait_activity(std::uint64_t tag, int receiver_nic,
                                sim::Time deadline) {
  Stream& s = stream(tag, receiver_nic);
  if (engine_.now() >= deadline) {
    return;
  }
  s.cond->wait_until(deadline);
}

}  // namespace mad::net
