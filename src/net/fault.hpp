// Deterministic fault injection + hop-level acknowledgement bookkeeping.
//
// The paper assumes perfect links and ever-alive gateways (§4 leaves fault
// handling as future work). This layer lets a test or bench attach a seeded
// FaultPlan to a Network: probabilistic packet drop / corruption /
// duplication, timed link-down windows, and NIC crash-at-time events.
// Decisions are drawn from one Rng in engine order, so a given
// (plan, workload) pair always produces the same fault sequence — retransmit
// counts are reproducible and assertable.
//
// AckRegistry is the companion piece used by the reliable GTM mode
// (fwd/reliable.hpp): receivers acknowledge (epoch, seq) per wire stream and
// senders block on the ack with a timeout, all in virtual time. It lives
// next to the injector because ack visibility is subject to the same fault
// plan (a crashed receiver's acks are suppressed — that is exactly how a
// sender discovers a dead gateway).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/condition.hpp"
#include "sim/engine.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace mad::sim {
class MetricsRegistry;
}  // namespace mad::sim

namespace mad::net {

/// Outcome of the injector's per-packet decision: counted in FaultStats,
/// traced as a `pkt.fault` instant and labelled on the `net.packets`
/// counter.
enum class FaultAction : std::uint8_t {
  Deliver,
  Drop,       // packet vanishes on the wire
  Corrupt,    // payload delivered with one byte flipped
  Duplicate,  // packet delivered twice
};

const char* fault_action_name(FaultAction action);

/// A [from, until) window during which packets are dropped. src/dst restrict
/// the window to one direction of one NIC pair; -1 matches any index. A
/// non-zero `period` makes the window repeat (a flapping link): it is down
/// whenever ((now - from) mod period) < (until - from), for every now >=
/// from. `bidirectional` matches the reversed pair too (a symmetric cable
/// pull instead of a one-direction fault).
struct LinkDownWindow {
  sim::Time from = 0;
  sim::Time until = sim::kForever;
  int src = -1;
  int dst = -1;
  sim::Time period = 0;  // 0 = one-shot
  bool bidirectional = false;
};

/// A brownout: during the (possibly repeating) window, matching packets
/// still flow but arrive `extra_latency` later and faultable-size packets
/// suffer an extra `drop_rate` loss. Models a degraded link that a health
/// monitor should demote — not kill — before it recovers.
struct DegradedLinkWindow {
  sim::Time from = 0;
  sim::Time until = sim::kForever;
  int src = -1;
  int dst = -1;
  sim::Time period = 0;  // 0 = one-shot
  bool bidirectional = false;
  sim::Time extra_latency = 0;
  double drop_rate = 0.0;
};

/// From `at` until `recover_at`, the NIC neither delivers nor emits
/// anything: every packet it sources or sinks is dropped and its
/// acknowledgements are suppressed. The default recover_at = kForever keeps
/// the PR-1 permanent-crash semantics; a finite value models a reboot.
struct NicCrash {
  int nic_index = -1;
  sim::Time at = 0;
  sim::Time recover_at = sim::kForever;
};

struct FaultPlan {
  std::uint64_t seed = 1;
  double drop_rate = 0.0;
  double corrupt_rate = 0.0;
  double duplicate_rate = 0.0;
  /// Packets smaller than this are protocol control frames (preambles,
  /// message headers, announces); they are exempt from the probabilistic
  /// faults so that plans exercise paquet payloads, not channel bootstrap.
  /// Crash and link-down faults still apply to every packet.
  std::uint32_t min_faultable_size = 256;
  std::vector<LinkDownWindow> link_downs;
  std::vector<DegradedLinkWindow> degraded;
  std::vector<NicCrash> crashes;

  /// Appends a symmetric (both directions of the a<->b pair) link-down
  /// window and returns it for further tweaking (e.g. a flap period).
  LinkDownWindow& add_symmetric_link_down(sim::Time from, sim::Time until,
                                          int nic_a, int nic_b,
                                          sim::Time period = 0);

  /// Panics on inconsistent settings: rates outside [0, 1] (or summing
  /// past 1), windows with until <= from, repeating windows whose period
  /// is shorter than the down phase (they would never come up), crashes
  /// with a negative NIC index or recover_at <= at. Called by the
  /// FaultInjector constructor, mirroring ReliableOptions::validate().
  void validate() const;
};

struct FaultStats {
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;  // probabilistic drops only
  std::uint64_t corrupted = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t link_down_drops = 0;
  std::uint64_t crash_drops = 0;
  std::uint64_t degraded_drops = 0;  // brownout-window extra losses
  std::uint64_t degraded_delays = 0;
  std::uint64_t acks_suppressed = 0;
};

/// Aggregate brownout effect on one (src, dst) packet at one instant.
struct Degradation {
  sim::Time extra_latency = 0;
  double drop_rate = 0.0;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }
  FaultStats& stats() { return stats_; }
  const FaultStats& stats() const { return stats_; }

  /// Dual-writes future FaultStats increments as `fault.*` counters with
  /// `label` (e.g. "network=myri0") so churn benches can plot injected
  /// faults against observed health scores. Pass nullptr to detach.
  void set_metrics(sim::MetricsRegistry* metrics, std::string label);

  /// Per-packet verdict, in send order. Consumes at most one Rng draw
  /// (plus one more while a degraded window covers the pair).
  FaultAction decide(int src_nic, int dst_nic, std::uint32_t size,
                     sim::Time now);

  /// True while `nic_index` is inside a crash's [at, recover_at) window.
  bool nic_down(int nic_index, sim::Time now) const;

  /// True when any crash window of `nic_index` overlaps [since, until] —
  /// the "did it crash while I was working?" query a recovered gateway
  /// uses to discard state from before its own outage.
  bool nic_down_within(int nic_index, sim::Time since, sim::Time until) const;

  /// True while any matching link-down window covers `now`.
  bool link_down(int src_nic, int dst_nic, sim::Time now) const;

  /// Sum of brownout effects covering (src, dst) at `now`: extra latencies
  /// add, drop rates combine as independent losses. Counts a
  /// degraded_delay when the result inflates latency.
  Degradation degradation(int src_nic, int dst_nic, sim::Time now);

  /// Counts one suppressed acknowledgement (the Network ack path calls
  /// this so the metrics dual-write stays inside the injector).
  void count_ack_suppressed();

  /// Flips one byte of `payload` to a different value (Corrupt verdict).
  void corrupt(util::MutByteSpan payload);

 private:
  void bump(std::uint64_t FaultStats::* field, const char* name);

  FaultPlan plan_;
  FaultStats stats_;
  util::Rng rng_;
  sim::MetricsRegistry* metrics_ = nullptr;
  std::string metrics_label_;
};

/// Sender-visible snapshot of one ack stream at the current virtual time
/// (AckRegistry::view). Posts whose visibility latency has not elapsed are
/// excluded; `next_visible` tells the sender when the earliest such post
/// lands (kForever when nothing is in flight).
struct AckView {
  bool has_cum = false;
  std::uint32_t cum_seq = 0;    // highest contiguous acked seq
  std::uint64_t cum_posts = 0;  // cum posts seen this epoch, incl. dups
  /// Cum posts that re-acked the cumulative frontier without advancing
  /// it — the genuine duplicate-ack signal. Classified twice: at post
  /// time (a re-ack of an OLDER seq — a retransmit that finally landed,
  /// an epoch-boundary straggler — is never queued) and again when the
  /// post becomes visible (a dup whose frontier has since advanced is
  /// dropped: it spoke about a window front that no longer exists). The
  /// second check lets a sender that was blocked in a long pack trust the
  /// counter delta across a frontier move instead of discarding it.
  std::uint64_t dup_posts = 0;
  /// Congestion marks (post_mark) visible this epoch — the ECN signal the
  /// adaptive sender reads as "slow down" without any loss.
  std::uint64_t marks = 0;
  /// Admission rejects (post_reject) visible this epoch — a gateway
  /// refused the stream's message outright (overload); the sender should
  /// abandon the epoch and retry the whole message after a backoff.
  std::uint64_t rejects = 0;
  /// When the latest hold (post_hold) of this epoch became visible, -1
  /// when none has.
  sim::Time last_hold = -1;
  std::vector<std::uint32_t> sacks;  // selective acks above cum_seq
  sim::Time next_visible = sim::kForever;
};

/// Hop-level acknowledgement board, one per Network.
///
/// A wire stream is identified by (tag, receiver NIC index) — the tag alone
/// is not enough because a >2-member channel reuses the sender's tx tag
/// toward every peer. Receivers post cumulative acks (highest contiguous
/// (epoch, seq) accepted) and, for the sliding-window protocol, selective
/// acks for out-of-order paquets parked in the reorder buffer. Senders
/// poll the stream state (view) and park until it changes
/// (wait_activity). An ack becomes visible to the sender one wire
/// latency after it is posted, modelling the reverse control message
/// without simulating its packet.
class AckRegistry {
 public:
  AckRegistry(sim::Engine& engine, std::string name);

  /// Records that the receiver accepted everything up to (epoch, seq). A
  /// newer epoch replaces the stream state; within an epoch only the max
  /// seq advances the cumulative mark, but every post is counted (the
  /// window protocol reads duplicate cumulative acks as a loss signal).
  void post(std::uint64_t tag, int receiver_nic, std::uint32_t epoch,
            std::uint32_t seq, sim::Time visible);

  /// Records a selective ack: (epoch, seq) was received out of order and
  /// sits in the receiver's reorder buffer. Ignored when the cumulative
  /// mark already covers it.
  void post_sack(std::uint64_t tag, int receiver_nic, std::uint32_t epoch,
                 std::uint32_t seq, sim::Time visible);

  /// Records an ECN-style congestion mark on the stream: the receiver (a
  /// gateway whose per-flow queue crossed its threshold) asks the sender
  /// to shrink its window. Marks ride the same visibility latency as acks
  /// and reset with the epoch, so a failover never replays stale
  /// congestion into the new stream.
  void post_mark(std::uint64_t tag, int receiver_nic, std::uint32_t epoch,
                 sim::Time visible);

  /// Records an admission reject on the stream: the receiving gateway's
  /// admission controller refused this epoch's message (budget exhausted
  /// or load shedding). Rides the same visibility latency and epoch-reset
  /// rules as marks; the sender surfaces it as fwd::FlowRejected.
  void post_reject(std::uint64_t tag, int receiver_nic, std::uint32_t epoch,
                   sim::Time visible);

  /// Records a hold on the stream: the receiver has accepted the epoch's
  /// stream but does not read it yet, so the paquets it has not acked are
  /// waiting, not lost. A receiver repeats it while it holds the stream;
  /// the sender re-arms a retransmit timer that expires under a hold
  /// instead of spending its retry budget. Same visibility latency and
  /// epoch-reset rules as marks.
  void post_hold(std::uint64_t tag, int receiver_nic, std::uint32_t epoch,
                 sim::Time visible);

  /// Snapshot of the stream state visible at the current virtual time for
  /// `epoch` (an empty view when the stream is on a different epoch).
  AckView view(std::uint64_t tag, int receiver_nic, std::uint32_t epoch);

  /// When a post covering (epoch, seq) exists — cumulative or selective,
  /// visible or with its latency still running — returns its visibility
  /// time; kForever otherwise. A post counts once it is made, so the
  /// window sender never times out a paquet whose ack is already on the
  /// wire.
  sim::Time posted_cover_time(std::uint64_t tag, int receiver_nic,
                              std::uint32_t epoch, std::uint32_t seq);

  /// Parks the caller until any post lands on the stream or `deadline`
  /// passes (the window sender's wait primitive; it re-reads view() after
  /// every wake).
  void wait_activity(std::uint64_t tag, int receiver_nic,
                     sim::Time deadline);

 private:
  struct Stream {
    bool any = false;
    std::uint32_t epoch = 0;
    bool has_cum = false;      // a cumulative post arrived this epoch
    std::uint32_t max_seq = 0;
    sim::Time visible = 0;     // visibility of the latest cum advance
    // Visibility times of cum posts not yet folded into cum_posts_seen
    // (monotonic: posts happen in time order with a constant latency).
    std::deque<sim::Time> cum_post_times;
    std::uint64_t cum_posts_seen = 0;
    // Same folding scheme for genuine duplicate posts (re-acks of the
    // current max_seq that did not advance it) and congestion marks.
    // Dup entries carry the seq they re-acked: entries the frontier has
    // moved past by the time they fold are stale and are not counted.
    std::deque<std::pair<sim::Time, std::uint32_t>> dup_post_times;
    std::uint64_t dup_posts_seen = 0;
    std::deque<sim::Time> mark_times;
    std::uint64_t marks_seen = 0;
    std::deque<sim::Time> reject_times;
    std::uint64_t rejects_seen = 0;
    std::deque<sim::Time> hold_times;
    sim::Time last_hold = -1;
    std::map<std::uint32_t, sim::Time> sacks;  // seq -> visibility
    std::unique_ptr<sim::Condition> cond;

    /// Epoch turnover: wipe every per-epoch accumulator in one place so
    /// post/post_sack/post_mark cannot drift apart on what "reset" means.
    void reset_epoch_state();
  };

  Stream& stream(std::uint64_t tag, int receiver_nic);

  sim::Engine& engine_;
  std::string name_;
  std::map<std::pair<std::uint64_t, int>, Stream> streams_;
};

}  // namespace mad::net
