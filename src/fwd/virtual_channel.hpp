// Virtual channels (paper §2.2).
//
// A virtual channel bundles, per physical network, two real Madeleine
// channels:
//   * a REGULAR channel carrying messages delivered on that network to
//     their final destination (native format for direct traffic, GTM
//     format after the last gateway);
//   * a SPECIAL channel carrying messages that still have to cross the
//     receiving gateway (always GTM format).
//
// When the application sends over the virtual channel, the appropriate
// real channel is chosen dynamically from the routing table; receiving is
// multiplexed over all regular channels of the node by per-network polling
// actors. Gateways additionally run forward-listener actors on the special
// channels (src/fwd/gateway.cpp) with the pipelined retransmission engine.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <list>
#include <vector>

#include "fwd/generic_tm.hpp"
#include "fwd/rdma_tm.hpp"
#include "fwd/regulation.hpp"
#include "fwd/reliable.hpp"
#include "mad/madeleine.hpp"
#include "sim/mailbox.hpp"
#include "sim/trace.hpp"
#include "topo/health.hpp"
#include "topo/routing.hpp"
#include "util/arena.hpp"

namespace mad::fwd {

/// Multi-flow forwarding at the gateway relay (fwd/gateway.cpp). When
/// enabled, the relay keys concurrent forwarded messages by origin node
/// into per-flow queues, schedules their egress paquets with deficit
/// round-robin (optionally weighted), and posts an ECN-style congestion
/// mark back to the origin's reliable sender whenever a flow's relay
/// queue crosses `mark_threshold` — pair with ReliableOptions::adaptive
/// so marked senders shrink their windows instead of piling the queue
/// higher. Requires reliable mode (the mark rides the ack board, and
/// only reliable streams carry the per-paquet structure the relay
/// queues). Off by default: the relay keeps its serial per-message path
/// and the event sequences of every existing test.
struct FlowOptions {
  bool enabled = false;
  /// DRR quantum in bytes per visit; 0 = auto (one route-MTU paquet).
  std::uint64_t quantum = 0;
  /// Per-flow relay queue depth (paquets buffered between a flow's
  /// ingress and its scheduled egress). The queue is a bounded mailbox:
  /// a full queue blocks the flow's ingress reader, which stalls its
  /// hop acks and backpressures the origin's window.
  std::uint32_t queue_limit = 32;
  /// Queue depth at which an arriving paquet gets a congestion mark
  /// posted to its sender. Must be <= queue_limit.
  std::uint32_t mark_threshold = 8;
  /// Per-origin scheduling weights, indexed by origin node rank; nodes
  /// beyond the vector (or with a 0 entry) default to weight 1.
  std::vector<double> weights;
  /// TrafficClass every writer stamps into its messages unless overridden
  /// per origin below. Gateways arbitrate classes strictly (control before
  /// latency before bulk, fwd/regulation.hpp) and shed in reverse order.
  TrafficClass default_class = TrafficClass::Bulk;
  /// Per-origin class overrides, indexed by origin node rank; origins
  /// beyond the vector use `default_class`.
  std::vector<TrafficClass> classes;
  /// Gateway admission control: per-class budgets plus the CoDel-style
  /// sojourn shedding policy. Disabled by default — flows then rely on
  /// plain blocking backpressure, exactly the PR 7 behaviour.
  AdmissionOptions admission;
  /// Sender backoff after a FlowRejected admission verdict: base delay,
  /// multiplied by `reject_backoff_factor` per consecutive rejection of
  /// the same message, capped at `reject_backoff_cap`, with deterministic
  /// ±25% jitter so synchronized rejectees do not retry in lockstep.
  sim::Time reject_backoff = sim::milliseconds(2);
  double reject_backoff_factor = 2.0;
  sim::Time reject_backoff_cap = sim::milliseconds(100);

  /// The backoff before retry number `attempts` + 1 of a rejected message,
  /// its jitter drawn from `seed`.
  sim::Time reject_delay(int attempts, std::uint64_t seed) const;

  /// Class used for messages originating at `origin`.
  TrafficClass class_of(NodeRank origin) const {
    if (origin >= 0 && static_cast<std::size_t>(origin) < classes.size()) {
      return classes[static_cast<std::size_t>(origin)];
    }
    return default_class;
  }

  /// Panics on inconsistent settings (called by VcOptions::validate).
  void validate(bool reliable_enabled) const;
};

struct VcOptions {
  /// Paquet (fragment) size used by the GTM; 0 = auto (largest size every
  /// network on the virtual channel carries unfragmented). The Fig 6/7
  /// benches sweep this from 8 KB to 128 KB.
  std::uint32_t paquet_size = 0;
  /// Number of buffers in the gateway retransmission pipeline; 2 is the
  /// paper's double-buffer scheme, 1 degrades to per-paquet
  /// store-and-forward (ablation).
  int pipeline_depth = 2;
  /// Receive straight into outgoing static buffers / send straight from
  /// incoming static buffers on gateways (paper §2.3). Off = every paquet
  /// goes through the reader/writer copy paths (ablation).
  bool zero_copy = true;
  /// Software cost of one gateway buffer switch (paper §3.3.1 measured
  /// ≈40 µs on the PII-450 testbed).
  sim::Time gateway_sw_overhead = sim::microseconds(40);
  /// Incoming-flow regulation on gateways, in bytes/s (paper §4 future
  /// work: "some sophisticated bandwidth control mechanism is needed to
  /// regulate the incoming communication flow on gateways"). 0 = off.
  double regulation_rate = 0.0;
  /// Optional interval tracing of gateway steps (Fig 5 / Fig 8 benches).
  sim::Trace* trace = nullptr;
  /// Reliable GTM mode: sequence/checksum trailers, per-hop ack/retransmit
  /// and gateway failover for forwarded traffic (fwd/reliable.hpp). Direct
  /// (gateway-free) messages keep the native format and are NOT protected.
  ReliableOptions reliable;
  /// Multi-rail striping (fwd/stripe.hpp): forwarded messages split across
  /// up to this many node-disjoint routes, each rail on its own channel
  /// pair. 1 = off (the default; no extra channels or actors exist).
  /// Striped transfers to one destination endpoint must not overlap in
  /// time (rails of interleaved messages on shared channels could block
  /// each other); sequential transfers and different destinations are
  /// unrestricted.
  int max_rails = 1;
  /// Per-rail credit window, in chunks: how many chunks pack() may hand a
  /// rail before blocking on that rail's progress.
  std::uint32_t rail_credit_chunks = 4;
  /// Overrides the MTU-derived per-rail shares (paquets per round-robin
  /// round) when non-empty — the "measured rate" weighting knob. Entries
  /// beyond the actual rail count are ignored; missing entries default
  /// to the derived share.
  std::vector<std::uint32_t> rail_weights;
  /// Link-health monitoring (topo/health.hpp): EWMA edge scores from the
  /// reliable layer's RTT/loss signals drive quality-weighted routing,
  /// quarantine of browned-out gateways, flap-damped readmission, and
  /// stripe-rail demotion. Off by default (zero behaviour change).
  topo::HealthOptions health;
  /// Per-flow queueing + DRR scheduling + congestion marks at gateway
  /// relays (FlowOptions above). Requires reliable.enabled.
  FlowOptions flow;
  /// One-sided RDMA-style forwarding (fwd/rdma_tm.hpp): gateway-egress
  /// blocks at or above rdma.rendezvous_threshold cross dynamic-buffer
  /// networks as one-sided writes — bus-master DMA on both host buses, no
  /// receiver software per fragment — after a rendezvous that registers
  /// the remote region through its pin-down cache. Eliminates the PIO
  /// send / DMA receive PCI-arbitration conflict of §3.4.1 on SCI-style
  /// egress. Off by default: every path then behaves exactly as before.
  RdmaOptions rdma;

  /// Panics loudly on any unsupported option combination (called by the
  /// VirtualChannel ctor; callers building options programmatically can
  /// validate early). Notably: flow mode requires reliable mode and is
  /// mutually exclusive with multi-rail striping / rail_weights — a
  /// striped message fans one origin across rails, which would split one
  /// DRR flow across independent schedulers.
  void validate() const;
};

class VcEndpoint;
class VcMessageWriter;
class VcMessageReader;
class Egress;
struct StoredBlock;
class Striper;
class Reassembler;

/// Per-node forwarding counters (forwarding ones only move on gateways;
/// the reliability block also counts sender/receiver work on end nodes).
struct GatewayStats {
  std::uint64_t messages_forwarded = 0;
  std::uint64_t paquets_forwarded = 0;
  std::uint64_t bytes_forwarded = 0;  // payload bytes relayed
  std::uint64_t flow_marks = 0;  // ECN marks posted by this relay's queues
  std::uint64_t admission_rejects = 0;  // messages refused by admission
  std::uint64_t admission_sheds = 0;    // the CoDel-shed subset of those
  ReliabilityStats reliability;
};

/// Channel-wide one-sided counters, summed over every per-NIC RdmaTm the
/// channel instantiated (benches and tests).
struct RdmaTotals {
  MrCacheStats cache;
  std::uint64_t writes = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t rendezvous = 0;
  std::uint64_t rendezvous_hits = 0;
};

class VirtualChannel {
 public:
  /// Creates the virtual channel over `networks` (all registered Domain
  /// nodes with a NIC on any of them become members), materializes the
  /// underlying real channels, and spawns the polling and gateway actors.
  VirtualChannel(Domain& domain, std::string name,
                 std::vector<net::Network*> networks, VcOptions options = {});
  ~VirtualChannel();

  VirtualChannel(const VirtualChannel&) = delete;
  VirtualChannel& operator=(const VirtualChannel&) = delete;

  const std::string& name() const { return name_; }
  Domain& domain() const { return domain_; }
  const VcOptions& options() const { return options_; }
  /// Paquet *payload* size; in reliable mode the trailer is carved out of
  /// the wire MTU, so payload + trailer still fits every hop.
  std::uint32_t mtu() const { return mtu_; }
  bool reliable() const { return options_.reliable.enabled; }
  /// Paquet buffers of the reliable path, at capacity mtu() plus the
  /// trailer: two-sided ReliableSender wire buffers, ReliableReceiver
  /// staging and reorder buffers, the tolerant framing reads and the
  /// gateway's stored fragments. Each goes back when its owner is done.
  util::BufferPool& buffer_pool() { return buffers_; }
  const util::BufferPool& buffer_pool() const { return buffers_; }
  const topo::Routing& routing() const { return *routing_; }
  const topo::Topology& topology() const { return *topology_; }

  /// Reliable-mode boundary parse: returns the first *genuine* stream head
  /// on `reader` — the preamble, plus the GTM message header when the
  /// stream is forwarded (and the stripe header too when `stripe` is
  /// non-null, i.e. on a stripe-channel poller). Everything in front of it
  /// is dropped with the drain accounting: late data paquets (re-acked
  /// when their epoch completed), duplicated framing from paquet-0
  /// retransmissions, and whole GHOST heads — framing of an epoch the
  /// connection already finished, which would otherwise reopen a delivered
  /// message as a new one. Safe to block: a message announce precedes this
  /// call, and per-connection ordering puts all leftover junk of the
  /// previous hop message before the announced message's framing.
  Preamble read_stream_head(MessageReader& reader, Channel& channel,
                            NodeRank self,
                            std::optional<GtmMsgHeader>& header,
                            GtmStripeHeader* stripe = nullptr);

  /// Called by a receiver right after it consumed a reliable stream's end
  /// marker: spawns a transient actor that re-posts the stream's final
  /// cumulative ack a bounded number of times. A fault window can suppress
  /// every ack of the stream's tail AFTER the receiver is done with it —
  /// at which point nothing re-acks the sender's retransmissions (the next
  /// boundary drain only runs when another message arrives, and the stuck
  /// sender is exactly what prevents that), so the sender would burn its
  /// whole retry budget, wrongly declare the hop dead, and replay a
  /// delivered message. Re-posting is idempotent: the ack board keeps only
  /// the max seq per epoch and drops posts of superseded epochs.
  void spawn_tail_acker(Channel& channel, NodeRank peer, std::uint32_t epoch,
                        std::uint32_t last_seq);

  /// Declares a node dead (reliable mode, after a hop exhausted its retry
  /// budget): removes it from the routing graph and recomputes all routes,
  /// so subsequent and in-flight messages fail over. Idempotent. Distinct
  /// from a health *quarantine* (routing exclusion only): is_dead() stays
  /// false for a quarantined-but-alive node, so receivers keep waiting on
  /// its streams instead of declaring the peer gone.
  void mark_dead(NodeRank rank);
  bool is_dead(NodeRank rank) const;
  /// mark_dead on behalf of `reporter`, whose hop to `peer` exhausted its
  /// retry budget, counted in `reporter`'s stats, metrics and trace.
  void declare_dead(NodeRank reporter, NodeRank peer);
  /// Counts `reporter`'s failover toward `dst` around the dead `around`.
  void note_failover(NodeRank reporter, NodeRank dst, NodeRank around);

  /// Health monitor driving adaptive routing; nullptr unless
  /// options().health.enabled.
  topo::HealthMonitor* health() const { return health_.get(); }

  /// The one-sided transmission module wrapping `nic`, created lazily on
  /// first use (so NICs that never forward one-sided carry no cache).
  /// nullptr unless options().rdma.enabled.
  RdmaTm* rdma_tm(net::Nic& nic) const;

  /// Sums counters across every RdmaTm this channel created so far.
  RdmaTotals rdma_totals() const;

  /// True when `rank`'s NIC on any of this channel's networks has a fault-
  /// plan crash event at or before the current virtual time — lets a
  /// crashed gateway's own actors stand down instead of mis-diagnosing
  /// their peers.
  bool node_crashed(NodeRank rank) const;

  /// True when any crash window of `rank` overlaps [since, now]: a
  /// recovered gateway uses this to discard relay state captured before
  /// its own outage (the downstream copy may already exist).
  bool node_crashed_within(NodeRank rank, sim::Time since) const;

  /// Member = node with a NIC on at least one of the virtual channel's
  /// networks.
  bool is_member(NodeRank rank) const;
  bool is_gateway(NodeRank rank) const;
  VcEndpoint& endpoint(NodeRank rank) const;

  /// Forwarding counters of a gateway node (zeroed for non-gateways).
  const GatewayStats& gateway_stats(NodeRank rank) const;
  GatewayStats& mutable_gateway_stats(NodeRank rank);

  /// Real channels, indexed by the *local* network id (the position of the
  /// network in the constructor list).
  Channel& regular_channel(int local_net, NodeRank rank) const {
    return rail_regular_channel(local_net, 0, rank);
  }
  /// Rail-indexed channel pair: rail 0 is the paper's regular/special
  /// pair, rails >= 1 (striping) each get a dedicated pair so rails never
  /// share a connection's tx lock or a relay actor.
  Channel& rail_regular_channel(int local_net, int rail, NodeRank rank) const {
    return rail_channel(regular_ids_, local_net, rail, rank);
  }
  Channel& rail_special_channel(int local_net, int rail, NodeRank rank) const {
    return rail_channel(special_ids_, local_net, rail, rank);
  }
  int max_rails() const { return options_.max_rails; }
  net::Network& network(int local_net) const;
  int local_net_count() const { return static_cast<int>(networks_.size()); }

 private:
  void spawn_pollers();
  void spawn_gateways();
  /// Health-enabled only: the periodic actor that quarantines unhealthy
  /// gateways, trial-readmits damped ones, and refreshes route costs.
  void spawn_health_actor();
  /// Routing-only exclusion of a live-but-sick gateway, vetoed (undone)
  /// when it would partition any currently-connected member pair.
  void quarantine_node(NodeRank rank, sim::Time now);
  /// Reverses exclusion (quarantine or mark_dead) and wipes the node's
  /// health samples for a clean trial.
  void readmit_node(NodeRank rank, sim::Time now);
  /// Accounts one non-element paquet pulled off a reliable stream and
  /// re-acks it when it is a checksum-valid paquet of an epoch `channel`'s
  /// connection to `peer` already completed.
  void discard_stale_paquet(Channel& channel, NodeRank peer, NodeRank self,
                            util::ByteSpan wire);
  /// Reliable-mode framing read that tolerates what a lossy fault window
  /// leaves in front of the expected element: duplicated framing from
  /// paquet-0 retransmissions (ReliableSender::set_framing) and stray data
  /// paquets whose own framing was lost. Pulls paquets off `reader` until
  /// one matches `element`'s size without being a checksum-valid reliable
  /// paquet, then copies it out. Everything else is dropped with the stale
  /// accounting — unacknowledged unless its epoch already completed — so a
  /// sender whose header was eaten keeps retransmitting paquet 0 (with the
  /// prologue) until the receiver re-frames.
  void read_framing_tolerant(MessageReader& reader, Channel& channel,
                             NodeRank self, util::MutByteSpan element);
  Channel& rail_channel(const std::vector<std::vector<ChannelId>>& ids,
                        int local_net, int rail, NodeRank rank) const;

  Domain& domain_;
  std::string name_;
  std::vector<net::Network*> networks_;
  VcOptions options_;
  std::uint32_t mtu_ = 0;
  util::BufferPool buffers_{0};  // sized once mtu_ is known
  std::unique_ptr<topo::Topology> topology_;
  std::unique_ptr<topo::Routing> routing_;
  std::unique_ptr<topo::HealthMonitor> health_;
  // Nodes declared dead by the retry budget — a (reversible) superset
  // split from routing exclusion, which quarantines also use.
  std::set<NodeRank> dead_;
  // Per rail, per local network (rail 0 is the paper's pair; rails >= 1
  // exist only when striping).
  std::vector<std::vector<ChannelId>> regular_ids_;
  std::vector<std::vector<ChannelId>> special_ids_;
  std::map<NodeRank, std::unique_ptr<VcEndpoint>> endpoints_;
  mutable std::map<NodeRank, GatewayStats> gateway_stats_;
  // One RdmaTm per NIC that ever sent one-sided, lazily created (mutable:
  // creation is caching, not observable state).
  mutable std::map<const net::Nic*, std::unique_ptr<RdmaTm>> rdma_tms_;
};

/// One message arriving at an endpoint, parked after its preamble. The
/// polling actor that produced it waits on `done` before opening the next
/// message of the same real channel, which serializes per-channel delivery.
struct VcIncoming {
  MessageReader reader;
  Preamble preamble;
  /// Read early by the polling actor for forwarded reliable messages (it
  /// needs the epoch to filter ghost reopens from duplicated framing); the
  /// VcMessageReader then must not read it from the stream again.
  std::optional<GtmMsgHeader> gtm_header;
  Channel* channel = nullptr;
  std::shared_ptr<sim::Condition> done;
};

/// One striped rail (rail >= 1) arriving on a stripe channel, parked by
/// its polling actor with all three bootstrap headers already read, so
/// the reassembler can match it to its transfer by (origin, stripe_id,
/// rail) without touching the stream.
struct StripeIncoming {
  MessageReader reader;
  Preamble preamble;
  GtmMsgHeader header;
  GtmStripeHeader stripe;
  Channel* channel = nullptr;
  std::shared_ptr<sim::Condition> done;
};

class VcEndpoint {
 public:
  VcEndpoint(VirtualChannel& vc, NodeRank rank);

  NodeRank rank() const { return rank_; }
  VirtualChannel& vc() const { return vc_; }

  /// Builds a message toward any member of the virtual channel; routing is
  /// transparent — the caller never names gateways.
  VcMessageWriter begin_packing(NodeRank dst);

  /// Waits for the next message from any member, over any of this node's
  /// networks.
  VcMessageReader begin_unpacking();

  /// Non-blocking variant: nullopt when no message is pending.
  std::optional<VcMessageReader> try_begin_unpacking();

  /// Waits until a message arrives or virtual time reaches `deadline`.
  std::optional<VcMessageReader> begin_unpacking_until(sim::Time deadline);

  /// Messages parked in the inbox right now.
  std::size_t pending_messages() const {
    return inbox_.size() + pending_.size();
  }

  sim::Mailbox<VcIncoming>& inbox() { return inbox_; }
  sim::Mailbox<StripeIncoming>& stripe_inbox() { return stripe_inbox_; }

  /// Waits (until `deadline`) for a forwarded message from `origin` — the
  /// replayed stream a reader adopts after its upstream gateway died.
  /// Non-matching arrivals are stashed for later begin_unpacking calls.
  std::optional<VcIncoming> collect_replacement(NodeRank origin,
                                                sim::Time deadline);

  /// Claims the parked rail message matching (origin, stripe_id, rail),
  /// blocking until it arrives; non-matching arrivals are stashed for the
  /// reassemblers they belong to.
  StripeIncoming collect_rail(std::uint32_t origin, std::uint32_t stripe_id,
                              std::uint16_t rail);

  /// Monotonic per-origin striped-transfer id.
  std::uint32_t next_stripe_id() { return stripe_seq_++; }

 private:
  VirtualChannel& vc_;
  NodeRank rank_;
  sim::Mailbox<VcIncoming> inbox_;
  sim::Mailbox<StripeIncoming> stripe_inbox_;
  // Messages received while hunting for a replacement stream; served to
  // later begin_unpacking calls ahead of the inbox (a list for the same
  // move-assignability reason as stripe_pending_).
  std::list<VcIncoming> pending_;
  // Parked rails not yet claimed; a list so claiming one (erase) never
  // needs StripeIncoming to be move-assignable (MessageReader is not).
  std::list<StripeIncoming> stripe_pending_;
  std::uint32_t stripe_seq_ = 0;
};

class VcMessageWriter {
 public:
  VcMessageWriter(VirtualChannel& vc, NodeRank src, NodeRank dst);
  VcMessageWriter(VcMessageWriter&&) noexcept;
  VcMessageWriter& operator=(VcMessageWriter&&) noexcept = delete;
  ~VcMessageWriter();

  NodeRank destination() const { return dst_; }
  /// True when no gateway is involved (native path, full optimizations).
  bool direct() const { return inner_.has_value(); }
  /// True when this message is split across several rails.
  bool striped() const { return striper_ != nullptr; }
  /// The striper of a striped message (rail credit accounting etc);
  /// nullptr on single-rail messages.
  const Striper* striper() const { return striper_.get(); }

  void pack(util::ByteSpan data, SendMode smode = SendMode::Cheaper,
            RecvMode rmode = RecvMode::Cheaper);

  template <typename T>
  void pack_value(const T& value) {
    pack(util::object_bytes(value), SendMode::Safer, RecvMode::Express);
  }

  void end_packing();

 private:
  // Resends every stored block (and the end marker when `finishing`) on
  // the hop the egress just reopened.
  void replay(bool finishing);

  VirtualChannel* vc_;
  NodeRank dst_;
  std::optional<MessageWriter> inner_;  // direct path
  std::unique_ptr<Egress> egress_;      // forwarded single-rail path
  std::unique_ptr<Striper> striper_;    // multi-rail path
  bool ended_ = false;
  std::vector<StoredBlock> replay_;  // reliable mode: kept for failover
};

class VcMessageReader {
 public:
  VcMessageReader(VcEndpoint& endpoint, VcIncoming incoming);
  VcMessageReader(VcMessageReader&&) noexcept;
  VcMessageReader& operator=(VcMessageReader&&) noexcept = delete;
  ~VcMessageReader();

  /// The ORIGIN of the message (not the last gateway).
  NodeRank source() const;
  bool forwarded() const { return incoming_->preamble.forwarded != 0; }
  bool striped() const { return (gtm_header_.flags & kGtmFlagStriped) != 0; }
  /// The reassembler of a striped message (per-rail paquet counts etc);
  /// exists once the first unpack ran.
  const Reassembler& reassembler() const { return *reassembler_; }

  /// Flags must mirror the sender's pack call; on forwarded messages they
  /// are validated against the GTM self-description.
  void unpack(util::MutByteSpan dst, SendMode smode = SendMode::Cheaper,
              RecvMode rmode = RecvMode::Cheaper);

  template <typename T>
  T unpack_value() {
    T value{};
    unpack(util::object_bytes_mut(value), SendMode::Safer,
           RecvMode::Express);
    return value;
  }

  void end_unpacking();

 private:
  // Builds the reassembler on first use: it keeps pointers into this
  // object, which must not move afterwards (readers are only moved
  // between begin_unpacking and the first unpack).
  void ensure_reassembler();
  // The hop stream's reader (with its window receiver when reliable),
  // created lazily at the first unpack for the same movability reason.
  HopReader& hop();
  // Reliable window > 1 only: the upstream gateway died mid-stream.
  // Abandons the current real-channel stream and waits for the origin's
  // replayed message on the failover route, skipping the blocks this
  // reader already consumed.
  void adopt();

  // An optional so adoption can replace it (VcIncoming is movable but not
  // move-assignable).
  std::optional<VcIncoming> incoming_;
  VirtualChannel* vc_ = nullptr;
  VcEndpoint* endpoint_ = nullptr;
  NodeRank self_ = -1;
  GtmMsgHeader gtm_header_;  // valid when forwarded()
  GtmStripeHeader stripe_;   // valid when striped()
  std::unique_ptr<Reassembler> reassembler_;  // striped messages only
  bool ended_ = false;
  std::uint64_t blocks_consumed_ = 0;  // completed blocks (adoption skip)
  std::unique_ptr<HopReader> hop_;  // forwarded, unstriped messages
};

}  // namespace mad::fwd
