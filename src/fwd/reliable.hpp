// Reliable GTM mode: sliding-window ack/retransmit per hop.
//
// When VcOptions::reliable.enabled is set, every forwarded GTM element —
// block headers, payload fragments, the end-of-message marker — travels as
// one *reliable paquet*: the payload plus a GtmPaquetTrailer (seq, epoch,
// checksum). A ReliableSender keeps up to `ReliableOptions::window` paquets
// in flight per hop; the matching ReliableReceiver validates the checksum
// (corruption → silent drop, the sender retransmits), filters duplicates
// by (epoch, seq), parks out-of-order paquets in a bounded reorder buffer,
// and releases them to the unpack path strictly in sequence. Acks flow
// back through the network's AckRegistry: a cumulative ack per accepted
// prefix plus selective acks for parked paquets. Each in-flight paquet
// carries its own retransmit timer with an adaptive RTO (SRTT/RTTVAR from
// RTT samples, Karn's rule, clamped exponential backoff); three duplicate
// cumulative acks trigger a fast retransmit of the window's front without
// waiting for the timer. Exhausting max_attempts throws HopFailure, which
// the virtual-channel writer and the gateway relay translate into route
// invalidation + failover (or a diagnosable "unreachable" panic when no
// alternate gateway exists).
//
// window = 1 reproduces the PR-1 stop-and-wait protocol exactly: one
// paquet in flight, fixed ack_timeout base, no RTT adaptation, no fast
// retransmit — the same virtual-time event sequence, retransmit counts and
// traces as the original implementation.
//
// Only the preamble, the GTM message header and the channel announce stay
// outside this framing: they bootstrap the per-hop stream. A framing
// paquet lost to a *transient* fault window (not a dead hop) would
// desynchronize the stream forever — nothing retransmits it — so every
// retransmission of paquet 0 re-sends the framing prologue in front of it
// (set_framing below) and the receive side reads headers tolerantly,
// skipping duplicated framing and unacknowledged stray data paquets
// (VirtualChannel::read_stream_head). Losing the framing to a
// genuine crash still starves the first paquet's ack, so the sender
// detects the dead hop via the first paquet's retry budget as before.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fwd/generic_tm.hpp"
#include "mad/types.hpp"
#include "sim/time.hpp"
#include "util/arena.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace mad {
class Channel;
class MessageReader;
class MessageWriter;
struct Connection;
}  // namespace mad

namespace mad::net {
class Network;
}  // namespace mad::net

namespace mad::sim {
class Engine;
class MetricsRegistry;
class Trace;
}  // namespace mad::sim

namespace mad::fwd {

class RdmaTm;
class VirtualChannel;

struct ReliableOptions {
  bool enabled = false;
  /// First-attempt ack deadline (and the RTO floor once RTT samples
  /// exist). The ack only posts once the receiver has fully consumed the
  /// paquet (receive-side PCI flow + overheads), so for the paper-scale
  /// 64–128 KB paquets a round trip is 1–4 ms of virtual time; a
  /// sub-millisecond default would retransmit constantly.
  sim::Time ack_timeout = sim::milliseconds(5);
  /// Deadline multiplier per retry (exponential backoff).
  double timeout_backoff = 2.0;
  /// Attempts (including the first) before the hop is declared dead.
  int max_attempts = 6;
  /// Paquets a sender may keep in flight per hop before blocking. 1 is
  /// stop-and-wait; larger windows pipeline the ack round trip. With
  /// `adaptive` set this is the CAP, not the operating point.
  int window = 1;
  /// Congestion-reactive window (AIMD): the sender starts at one paquet,
  /// opens the window on acks (slow start, then one paquet per round
  /// trip), and halves it on loss signals — fast retransmit, timeout, or
  /// an ECN-style congestion mark from a gateway whose per-flow queue
  /// backed up (AckView::marks). `window` becomes a hard cap, so a deep
  /// static cap no longer collapses goodput under loss: the window only
  /// stays deep while the path actually sustains it. Off by default; the
  /// static-window event sequences are unchanged.
  bool adaptive = false;
  /// Hard ceiling on any backed-off retransmit deadline. Keeps the
  /// exponential chain from overflowing Time and bounds how long a retry
  /// can stall failover detection.
  sim::Time max_ack_timeout = sim::seconds(2);
  /// Fraction of each backed-off deadline added as deterministic
  /// pseudo-random jitter (uniform in [0, jitter·rto), seeded per sender).
  /// Without it the backoff chain is strictly periodic, and against a
  /// periodic fault (a flapping link whose period divides the backoff
  /// steps) every retransmission can phase-lock into the down-windows and
  /// exhaust the retry budget on a hop that is up more than half the time.
  /// 0 disables jitter and restores the exact PR-1/PR-5 deadline sequence.
  double retransmit_jitter = 0.25;

  /// Panics on inconsistent settings (called by the VirtualChannel ctor).
  void validate() const;
};

/// Applies one backoff step to `timeout`, clamping to `cap`. The multiply
/// happens in double; any overflow, inf or NaN lands on the cap instead of
/// wrapping through the double→Time cast.
sim::Time backed_off_timeout(sim::Time timeout, double backoff,
                             sim::Time cap);

/// Reliable-mode counters, per node (GatewayStats::reliability).
struct ReliabilityStats {
  std::uint64_t paquets_acked = 0;  // sender side: completed round trips
  std::uint64_t retransmits = 0;
  std::uint64_t fast_retransmits = 0;  // subset of retransmits (dup acks)
  std::uint64_t timeouts = 0;
  std::uint64_t congestion_marks = 0;  // sender side: ECN marks consumed
  std::uint64_t window_decreases = 0;  // adaptive mode: AIMD halvings
  std::uint64_t flow_rejects = 0;   // sender side: admission rejects seen
  std::uint64_t dup_drops = 0;      // receiver side
  std::uint64_t corrupt_drops = 0;  // receiver side
  std::uint64_t stale_drops = 0;    // late paquets of a finished stream
  std::uint64_t failovers = 0;      // reroutes that found an alternate
  std::uint64_t peers_declared_dead = 0;
};

/// Thrown by the sender when a hop exhausts its retry budget — the
/// reliable protocol's "this peer is dead" signal.
struct HopFailure {
  NodeRank next_hop = -1;
  int attempts = 0;
};

/// Thrown by a ReliableReceiver in detect_dead mode when the upstream peer
/// is marked dead or crashed while the receiver waits for the next paquet.
/// The virtual-channel reader turns this into stream adoption (waiting for
/// the origin's replayed message on the failover route).
struct PeerDied {
  NodeRank peer = -1;
};

/// Thrown by the sender when the receiving gateway's admission controller
/// rejected this epoch's message (net::AckRegistry::post_reject). Unlike
/// HopFailure nothing is condemned: the hop is healthy, the gateway is
/// overloaded. The writer abandons the epoch and replays the whole message
/// after an exponential backoff (VcOptions::flow reject_backoff knobs).
struct FlowRejected {
  NodeRank gateway = -1;
};

/// Sliding-window sender for one hop of one open GTM message. Owns the
/// in-flight queue; send() blocks only while the window is full, flush()
/// blocks until everything is acked. Throws HopFailure when a paquet
/// exhausts its retry budget — the caller abandons this sender (its
/// remaining in-flight paquets are discarded with it) and replays on a new
/// route with a fresh epoch.
class ReliableSender {
 public:
  ReliableSender(VirtualChannel& vc, NodeRank self, MessageWriter& out,
                 Channel& out_channel, NodeRank peer, std::uint32_t epoch);
  /// Gives the wire buffers still in flight back to their pool.
  ~ReliableSender();
  ReliableSender(const ReliableSender&) = delete;
  ReliableSender& operator=(const ReliableSender&) = delete;

  /// Registers the unreliable framing prologue (preamble, message header,
  /// optional stripe header) that opened this hop message. The prologue
  /// carries no trailer, so no retransmit timer covers it; instead every
  /// retransmission of paquet 0 re-sends it in front of the paquet. A
  /// receiver that lost the header to a fault window re-frames from the
  /// retransmitted copy; one that has it drops the duplicates on size and
  /// checksum grounds (tolerant header reads, ReliableReceiver).
  void set_framing(const Preamble& preamble, const GtmMsgHeader& header,
                   const std::optional<GtmStripeHeader>& stripe);

  /// Enqueues `payload` as reliable paquet `seq` (must be the successor of
  /// the previous send) and transmits it; blocks while the window is full.
  /// With `one_sided` set (and the hop's egress RDMA-eligible) the paquet
  /// — and every retransmission of it — crosses as a one-sided write with
  /// completion (fwd/rdma_tm.hpp): the receiver still sees and acks every
  /// paquet, but the data moves as DMA on both host buses. An RDMA-capable
  /// sender's wire buffers come from its own registered pool, so repeated
  /// paquets and retransmits hit the pin-down cache instead of re-pinning.
  /// The payload's copy into the wire buffer and its checksum are one
  /// pass (gtm_copy_checksum).
  void send(std::uint32_t seq, util::ByteSpan payload,
            bool one_sided = false);

  /// Blocks until every in-flight paquet is acknowledged.
  void flush();

  /// Blocks until the (adaptive or static) window has room for `slots`
  /// more paquets (clamped to the window size). send() makes room for one
  /// implicitly; a caller that must not hold a shared scheduling grant
  /// while the window drains (the gateway's DRR arbiter) calls it
  /// explicitly first — for a whole bundle when several paquets ride one
  /// grant.
  void make_room(std::size_t slots = 1);

  std::size_t in_flight() const { return inflight_.size(); }
  std::uint32_t epoch() const { return epoch_; }
  /// Current operating window: the AIMD cwnd clamped to the configured
  /// cap in adaptive mode, the static cap otherwise.
  std::size_t effective_window() const;

 private:
  struct InFlight {
    std::uint32_t seq = 0;
    util::Bytes wire;  // payload + trailer, ready to re-pack
    sim::Time tx_begin = 0;  // last attempt start (rel.ack_us base)
    sim::Time sent_at = 0;   // last attempt pack-complete (RTO base)
    sim::Time deadline = 0;
    sim::Time rto = 0;
    int attempts = 1;
    bool retransmitted = false;  // Karn: no RTT sample once retransmitted
    bool sacked = false;
    bool sack_rtx = false;  // lost-retransmit resend spent (one per front)
    bool one_sided = false;  // transmit via RdmaTm::write, not the writer
  };

  void transmit(InFlight& p);
  /// Wire buffers: from the channel's paquet pool, or from this sender's
  /// registered-buffer arena when it can send one-sided (see wire_arena_).
  util::Bytes pool_take(std::size_t size);
  void pool_return(util::Bytes wire);
  /// Blocks until at most `target` paquets remain in flight.
  void drain_to(std::size_t target);
  /// Times out `p`: throws HopFailure past the budget, else retransmits
  /// with a backed-off deadline.
  void expire(InFlight& p);
  /// Completes `p` (acked): stats + RTT sample.
  void sample_ack(InFlight& p);
  sim::Time initial_rto() const;
  /// AIMD multiplicative decrease (adaptive mode; no-op otherwise). One
  /// decrease per window of data — subsequent signals inside the recovery
  /// window are absorbed. A timeout is treated as heavier than a mark or
  /// fast retransmit: the window collapses to one paquet.
  void on_congestion(bool timeout);
  /// AIMD additive increase on a completed round trip (adaptive mode).
  void on_ack_growth();

  VirtualChannel& vc_;
  NodeRank self_;
  MessageWriter& out_;
  NodeRank peer_;
  std::uint32_t epoch_;
  // Framing prologue blobs re-sent ahead of every paquet-0 retransmission
  // (see set_framing). Empty until the caller registers them.
  std::vector<std::vector<std::byte>> framing_;
  Connection* conn_;
  net::Network* network_;
  sim::Engine* engine_;
  sim::MetricsRegistry* metrics_;
  sim::Trace* trace_;
  std::string node_label_;
  std::size_t window_;
  /// One-sided transmission module of the egress NIC; nullptr when the
  /// channel has rdma off or the egress TM is not RDMA-eligible (static
  /// or hybrid buffers). send(..., one_sided=true) silently degrades to
  /// the two-sided path when null.
  RdmaTm* rdma_ = nullptr;
  // An RDMA-capable sender's retired wire buffers, reused best fit: the
  // pin-down cache keys on buffer addresses, so every reuse — including a
  // retransmit, which re-sends the very buffer pinned for the first
  // attempt — hits, and a tiny block-header paquet does not claim (and
  // re-key) an MTU-sized registered fragment buffer.
  util::BufferArena wire_arena_;
  std::deque<InFlight> inflight_;
  // Duplicate-cumulative-ack tracking (fast retransmit, window > 1 only).
  // The ack board counts a duplicate only when a cum post re-acks the
  // *current* frontier without advancing it (AckView::dup_posts), so a late
  // re-ack of an older seq — a retransmitted paquet the receiver already
  // passed — can no longer masquerade as a loss signal across an epoch
  // bump or failover.
  std::uint64_t seen_dup_posts_ = 0;
  int dup_acks_ = 0;
  // Last cumulative frontier seen; dup_acks_ resets when it moves (dups of
  // the old frontier say nothing about the new window front).
  bool have_cum_mark_ = false;
  std::uint32_t cum_mark_ = 0;
  // Congestion marks consumed so far (AckView::marks, adaptive mode).
  std::uint64_t seen_marks_ = 0;
  // Admission rejects consumed so far (AckView::rejects). A fresh delta
  // makes drain_to throw FlowRejected.
  std::uint64_t seen_rejects_ = 0;
  // AIMD congestion window (adaptive mode only). cwnd_ is fractional so
  // congestion avoidance can grow by 1/cwnd per ack; the operating window
  // is floor(cwnd_) clamped to [1, window_].
  double cwnd_ = 1.0;
  double ssthresh_ = 0.0;  // set from window_ in the ctor
  // One multiplicative decrease per window of data: after a decrease,
  // further loss signals are ignored until the cumulative frontier passes
  // the highest seq in flight at decrease time.
  bool in_recovery_ = false;
  std::uint32_t recover_seq_ = 0;
  // The single retransmit timer: armed for the oldest unsacked paquet,
  // re-armed whenever the window advances past it.
  bool have_timer_ = false;
  std::uint32_t timer_seq_ = 0;
  // Adaptive RTO state (window > 1 only).
  bool have_rtt_ = false;
  double srtt_us_ = 0.0;
  double rttvar_us_ = 0.0;
  // Lowest Karn-valid RTT seen — the path's unloaded round trip. The
  // adaptive window stops growing once srtt is well above this floor:
  // past the bandwidth-delay product, more window only deepens the
  // sender's own queue and stretches every loss recovery.
  double min_rtt_us_ = 0.0;
  // Latest Karn-valid sample. The growth gate reads this, NOT srtt: after
  // a window collapse the smoothed estimate stays inflated by the queue
  // the old window built, and gating on it would freeze slow start just
  // when the drained pipe needs refilling.
  double last_rtt_us_ = 0.0;
  // RFC 6298 §5.7: once a retransmit timer fires, the backed-off RTO is
  // the sender's RTO until a fresh (non-retransmitted, Karn-valid) RTT
  // sample arrives. Without this, every new paquet restarts from the
  // stale SRTT-derived deadline, and under congestion-grown round trips
  // the sender never escapes the spurious-timeout spiral: retransmitted
  // paquets yield no samples, so SRTT never catches up.
  sim::Time backed_off_rto_ = 0;
  // Retransmit-deadline jitter source, seeded from (self, peer, epoch) so
  // runs stay reproducible while no two senders share a backoff phase.
  util::Rng jitter_rng_;
};

/// Sliding-window receiver for one hop of one open GTM message: validates,
/// deduplicates and reorders incoming paquets, releasing them strictly in
/// (epoch, seq) order. With detect_dead set, receive waits poll in
/// ack_timeout slices and throw PeerDied once the upstream peer is marked
/// dead or crashed — a blocking receiver would hang forever on a stream
/// whose sender died mid-message.
class ReliableReceiver {
 public:
  ReliableReceiver(VirtualChannel& vc, NodeRank self, Channel& in_channel,
                   NodeRank peer, std::uint32_t epoch, bool detect_dead);
  /// Gives the staging buffer and any parked paquets back to their pool.
  ~ReliableReceiver();
  ReliableReceiver(const ReliableReceiver&) = delete;
  ReliableReceiver& operator=(const ReliableReceiver&) = delete;

  /// Receives reliable paquet `expected_seq` (must be the successor of the
  /// previous recv) into `payload_dst` (size must match the original
  /// payload exactly) and acknowledges it. A wire paquet whose trailer
  /// names it as this in-order paquet is verified and written to
  /// `payload_dst` in one pass; until recv returns, `payload_dst` may hold
  /// the bytes of a corrupt copy that failed verification.
  void recv(MessageReader& in, std::uint32_t expected_seq,
            util::MutByteSpan payload_dst);

  /// Posts an ECN-style congestion mark back to this hop's sender (same
  /// ack-board path and fault handling as a cumulative ack). The gateway
  /// relay calls this when the flow's relay queue crosses its threshold;
  /// an adaptive sender reacts with a multiplicative decrease.
  void post_congestion_mark();

  /// Completes the stream once its end marker (paquet `last_seq`) was
  /// consumed. Boundary drains then re-ack its late retransmits (the sender
  /// may have lost our acks to a fault window) and the ghost filter keeps
  /// its duplicated framing from reopening it; a tail acker keeps
  /// re-advertising the final ack, so the sender cannot exhaust its retry
  /// budget on a message this end already owns.
  void complete(std::uint32_t last_seq);

 private:
  VirtualChannel& vc_;
  NodeRank self_;
  Channel& in_channel_;
  NodeRank peer_;
  std::uint32_t epoch_;
  bool detect_dead_;
  int self_nic_;
  std::string node_label_;
  std::size_t window_;
  std::uint32_t next_ = 0;      // next seq to hand to the caller
  std::uint32_t cum_next_ = 0;  // first seq not yet received in order
  // Parked out-of-order paquets and the wire staging buffer, all from the
  // channel's paquet pool.
  std::map<std::uint32_t, util::Bytes> reorder_;
  util::Bytes scratch_;
};

/// Reads one hop message's GTM elements in stream order — block headers,
/// MTU fragments, the end marker — straight off the reader on a plain
/// stream, through a ReliableReceiver window on a reliable one. Shared by
/// the final receiver, each striped rail and the gateway relay.
class HopReader {
 public:
  /// Reads the hop stream `header` opened on `channel`, sent by the
  /// upstream hop `reader.source()` — the last gateway in general, not the
  /// origin. With `detect_dead` a reliable reader throws PeerDied when
  /// that peer dies mid-stream.
  HopReader(VirtualChannel& vc, NodeRank self, MessageReader& reader,
            Channel& channel, const GtmMsgHeader& header, bool detect_dead);

  GtmBlockHeader block_header();
  void fragment(util::MutByteSpan dst);
  /// Every fragment of a block of `dst`'s size.
  void fragments(util::MutByteSpan dst);
  /// One application block into `dst`: its self-description must match
  /// the unpack call (`dst`'s size and the pack flag pair).
  void block(util::MutByteSpan dst, SendMode smode, RecvMode rmode);
  /// Reads the end marker, then finish().
  void end();
  /// After the end marker: completes a reliable stream
  /// (ReliableReceiver::complete).
  void finish();

  ReliableReceiver* receiver() { return rel_.get(); }

 private:
  MessageReader& reader_;
  std::uint32_t mtu_;
  std::unique_ptr<ReliableReceiver> rel_;
  std::uint32_t seq_ = 0;
};

}  // namespace mad::fwd
