// Gateway forward-listeners and the pipelined retransmission engine
// (paper §2.2.2 and Fig 4).
//
// Per (gateway node, bridged network) a daemon actor listens on that
// network's SPECIAL channel. Each arriving message is a GTM stream; the
// listener relays the stream paquet by paquet through the shared hop
// egress (fwd/egress.hpp), which picks the outgoing real channel from the
// routing table (special channel toward the next gateway, regular channel
// toward the final destination — the paper's two-gateway disambiguation).
// Zero-copy paths follow §2.3.
//
// Every message crosses one relay loop: an ingress yields relay items
// (block headers, fragments, the end marker), the egress sends them, and a
// start policy derived from the options decides who runs the egress —
// inline on the listener (unreliable, pipeline_depth 1), after the whole
// message is stored (reliable, window 1 or striped), or on a sender actor
// behind a mailbox (otherwise) that retransmits paquet k while the listener
// receives paquet k+1: the paper's two-threads/two-buffers scheme. A
// reliable relay keeps every block; after a failed egress the egress's
// failover loop replays them through the same relay loop on a freshly
// picked route.
#include "fwd/gateway.hpp"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "fwd/egress.hpp"
#include "fwd/generic_tm.hpp"
#include "fwd/regulation.hpp"
#include "fwd/reliable.hpp"
#include "fwd/virtual_channel.hpp"
#include "mad/copy_stats.hpp"
#include "mad/session.hpp"
#include "net/fabric.hpp"
#include "net/static_pool.hpp"
#include "sim/mailbox.hpp"
#include "sim/metrics.hpp"
#include "util/panic.hpp"

namespace mad::fwd {

namespace {

/// RAII bracket around one scheduled egress paquet: acquires the DRR
/// grant on construction, releases it on destruction — including the
/// HopFailure unwind out of ReliableSender::send, where a leaked grant
/// would wedge every other flow on the gateway forever. No-op when flow
/// scheduling is off (sched == nullptr).
class FlowGrant {
 public:
  FlowGrant(FlowScheduler* sched, int flow, std::uint64_t bytes)
      : sched_(sched), flow_(flow) {
    if (sched_ != nullptr) {
      sched_->acquire(flow_, bytes);
    }
  }
  ~FlowGrant() {
    if (sched_ != nullptr) {
      sched_->release(flow_);
    }
  }
  FlowGrant(const FlowGrant&) = delete;
  FlowGrant& operator=(const FlowGrant&) = delete;

 private:
  FlowScheduler* sched_;
  int flow_;
};

/// One unit of relay work, handed from the ingress to the egress. A
/// fragment's payload sits in one of four places. Three follow the
/// zero-copy matrix of §2.3:
///   * a recycled pool buffer (dynamic→dynamic, and all non-zero-copy
///     paths);
///   * an *outgoing* static buffer the paquet was received straight into
///     (dynamic→static and static→static);
///   * the *incoming* static buffer kept alive and sent from directly
///     (static→dynamic).
/// The fourth is a reliable relay's stored copy of the block, which it
/// keeps for failover replay.
struct RelayItem {
  enum class Kind {
    BlockHeader,
    FragmentDynamic,
    FragmentStaticOut,
    FragmentHoldIn,
    FragmentStored,
    End,
    /// The upstream died mid-message: the egress stops without an end
    /// marker.
    Abort,
  };

  Kind kind = Kind::End;
  GtmBlockHeader header;                  // BlockHeader
  std::uint32_t size = 0;                 // fragments: payload bytes
  std::vector<std::byte> buffer;          // FragmentDynamic (capacity = MTU)
  net::StaticBufferPool::Ref static_out;  // FragmentStaticOut
  net::StaticBufferPool::Ref hold_in;     // FragmentHoldIn
  /// What the egress sends (all fragments but FragmentStaticOut): a view
  /// of `buffer`, of `hold_in` or of the stored block.
  util::ByteSpan payload;
  /// When the fragment entered a sender actor's queue: the admission
  /// ledger's sojourn base. Unset on every other path.
  std::optional<sim::Time> queued_at;

  static RelayItem of(Kind kind, const GtmBlockHeader& header = {}) {
    RelayItem item;
    item.kind = kind;
    item.header = header;
    return item;
  }
  bool fragment() const {
    return kind != Kind::BlockHeader && kind != Kind::End &&
           kind != Kind::Abort;
  }
};

/// One message crossing the gateway, shared by its listener and its sender
/// actor. Heap-owned: during engine shutdown the listener may unwind (and
/// its stack frame be reused) while the sender is still parked inside
/// items.recv(); stack-allocating this state was a use-after-free (see the
/// regression in tests/fwd/test_failures.cpp). Only the two actors' stacks
/// own it, never an actor's closure: the engine keeps closures until it is
/// destroyed, after the channels, and an egress still open then would
/// close its hop message on a dead channel.
struct Transfer {
  Transfer(sim::Engine& engine, util::BufferPool& pool, std::size_t capacity,
           const std::string& name)
      : pool(pool),
        items(engine, capacity, name),
        done(engine, name + ".done") {}
  ~Transfer() {
    for (StoredBlock& block : blocks) {
      for (util::Bytes& fragment : block.fragments) {
        pool.give(std::move(fragment));
      }
    }
  }
  Transfer(const Transfer&) = delete;
  Transfer& operator=(const Transfer&) = delete;

  util::BufferPool& pool;  // the channel's, for the stored fragments

  GtmMsgHeader hdr;
  TrafficClass cls{};
  int flow = -1;
  /// A reliable relay stores every block, one pooled buffer per fragment:
  /// the upstream hop is acked as soon as a paquet lands and cannot be
  /// asked again, so a failed egress replays the message from here. Spans
  /// into the fragments stay valid while the listener appends.
  std::deque<StoredBlock> blocks;
  sim::Mailbox<RelayItem> items;  // listener → sender actor
  sim::Condition done;
  bool finished = false;
  std::optional<Egress> egress;
  Setback outcome;  // of the sender actor's attempt
};

/// A stored message laid out as relay items, read like the sender actor's
/// mailbox.
struct ReplayQueue {
  ReplayQueue(const std::deque<StoredBlock>& blocks, std::uint32_t mtu) {
    for (const StoredBlock& block : blocks) {
      items.push_back(
          RelayItem::of(RelayItem::Kind::BlockHeader, block.header));
      MAD_ASSERT(block.fragments.size() ==
                     fragment_count(block.header.size, mtu),
                 "stored block is missing fragments");
      for (const util::Bytes& fragment : block.fragments) {
        RelayItem& item = items.emplace_back(
            RelayItem::of(RelayItem::Kind::FragmentStored));
        item.size = static_cast<std::uint32_t>(fragment.size());
        item.payload = util::ByteSpan(fragment);
      }
    }
    items.push_back(RelayItem::of(RelayItem::Kind::End));
  }
  RelayItem recv() { return std::move(items[next++]); }
  const RelayItem* peek() const {
    return next < items.size() ? &items[next] : nullptr;
  }

  std::vector<RelayItem> items;
  std::size_t next = 0;
};

/// Per (gateway, incoming network) relay state, reused across messages.
///
/// Heap-owned (shared_ptr): the sender actor keeps using this state
/// (free-buffer pool, regulator) after the listener actor's stack may
/// already have unwound during engine shutdown, so stack ownership would be
/// a use-after-free.
class GatewayRelay : public std::enable_shared_from_this<GatewayRelay> {
 public:
  GatewayRelay(VirtualChannel& vc, NodeRank self, int in_local_net, int rail)
      : vc_(vc),
        self_(self),
        rail_(rail),
        in_channel_(vc.rail_special_channel(in_local_net, rail, self)),
        engine_(vc.domain().engine()),
        free_buffers_(engine_, 0,
                      vc.name() + ".gwbuf." + std::to_string(self)),
        regulator_(engine_, vc.options().regulation_rate),
        flow_turn_(engine_,
                   vc.name() + ".gwturn." + std::to_string(self)) {
    for (int i = 0; i < vc.options().pipeline_depth; ++i) {
      free_buffers_.send(std::vector<std::byte>(vc.mtu()));
    }
    if (vc.options().flow.enabled) {
      const std::uint64_t quantum = vc.options().flow.quantum != 0
                                        ? vc.options().flow.quantum
                                        : vc.mtu();
      flow_sched_ = std::make_unique<FlowScheduler>(
          engine_, quantum,
          vc.name() + ".gwflow." + std::to_string(self));
      if (vc.options().flow.admission.enabled) {
        admission_ =
            std::make_unique<AdmissionController>(vc.options().flow.admission);
      }
    }
  }

  Channel& in_channel() const { return in_channel_; }

  /// Multi-flow forwarding: the accept loop dispatches each message to its
  /// own actor instead of relaying inline (spawn_gateway_actors).
  bool flow_mode() const { return flow_sched_ != nullptr; }

  /// Arrival-order ticket for a message from upstream hop `from`. Messages
  /// sharing an upstream hop share that hop's rx stream, so their relay
  /// actors must read it strictly in arrival order; messages from distinct
  /// hops interleave freely (independent connections).
  std::uint64_t issue_ticket(NodeRank from) {
    return flow_next_ticket_[from]++;
  }
  void await_turn(NodeRank from, std::uint64_t ticket) {
    while (flow_serving_[from] != ticket) {
      flow_turn_.wait();
    }
  }
  void finish_turn(NodeRank from) {
    ++flow_serving_[from];
    flow_turn_.notify_all();
  }

  /// Parses the head of an accepted stream and relays the message.
  void relay_stream(MessageReader& in) {
    try {
      std::optional<GtmMsgHeader> header;
      // Reliable boundary parse: skips late retransmits and ghost framing
      // of streams this relay already completed.
      const Preamble preamble =
          vc_.reliable() ? vc_.read_stream_head(in, in_channel_, self_, header)
                         : read_preamble(in);
      MAD_ASSERT(preamble.forwarded != 0,
                 "native message on a special channel");
      relay_message(std::move(in), header);
    } catch (const PeerDied&) {
      // A cut-through relay abandoned a stream whose upstream (or this
      // gateway itself) died mid-message. The origin replays on a
      // surviving route; keep listening.
    }
  }

 private:
  void relay_message(MessageReader in, std::optional<GtmMsgHeader> pre_hdr) {
    // In reliable mode the accept loop already parsed the header (its epoch
    // feeds the ghost filter in read_stream_head).
    const GtmMsgHeader hdr = pre_hdr ? *pre_hdr : read_msg_header(in);
    // A striped rail carries its GtmStripeHeader on every hop; the relay
    // forwards it verbatim. Rail identity is implied by the channel pair
    // this relay serves, so the relay loop below needs no other change.
    std::optional<GtmStripeHeader> stripe;
    if ((hdr.flags & kGtmFlagStriped) != 0) {
      stripe = read_stripe_header(in);
      MAD_ASSERT(stripe->rail == static_cast<std::uint16_t>(rail_),
                 "rail relayed on the wrong stripe channel");
    }
    MAD_ASSERT(static_cast<NodeRank>(hdr.final_dst) != self_,
               "message to the gateway itself must use a regular channel");
    const TrafficClass cls = traffic_class_from_wire(hdr.traffic_class);
    const bool admitted =
        (hdr.flags & kGtmFlagReliable) != 0 && admission_ != nullptr;
    if (admitted) {
      const bool new_flow =
          flow_ids_.find({static_cast<NodeRank>(hdr.origin),
                          static_cast<int>(traffic_class_index(cls))}) ==
          flow_ids_.end();
      const AdmissionController::Verdict verdict =
          admission_->admit(cls, new_flow);
      if (verdict != AdmissionController::Verdict::Admit) {
        reject_message(in, hdr, cls, verdict);
        return;
      }
      admission_->on_message_admitted(cls);
    }
    try {
      relay(in, hdr, stripe, cls);
    } catch (...) {
      if (admitted) {
        admission_->on_message_done(cls);
      }
      throw;
    }
    if (admitted) {
      admission_->on_message_done(cls);
    }
    in.end_unpacking();
    ++vc_.mutable_gateway_stats(self_).messages_forwarded;
  }

  /// The relay loop: ingress → (mailbox) → egress, under the start policy
  /// the options select (ARCHITECTURE.md §5 has the table).
  ///
  /// Store-then-send (reliable, window 1 or striped — a striped rail's
  /// reassembly protocol assumes a rail appears downstream all-or-nothing)
  /// is strictly two-phase. Phase 1 receives (and acks) the whole message
  /// into owned blocks; the upstream hop is then done with it, so a
  /// downstream failure never has to propagate back. Phase 2 resends it
  /// reliably, declaring dead hops to the routing table and retrying over
  /// the surviving routes. A reliable sender actor cuts through instead,
  /// still storing every block for the same replay. Known limitation: if
  /// THIS gateway crashes after the upstream acks completed but before
  /// downstream delivery, the message is lost (end-to-end acks would be
  /// needed to close that window).
  void relay(MessageReader& in, const GtmMsgHeader& hdr,
             const std::optional<GtmStripeHeader>& stripe, TrafficClass cls) {
    const VcOptions& options = vc_.options();
    const bool reliable = (hdr.flags & kGtmFlagReliable) != 0;
    const auto origin = static_cast<NodeRank>(hdr.origin);
    const int flow = flow_id_for(origin, cls);
    // Sender-actor queue bound. Unreliable: pipeline_depth - 1 items plus
    // the paquet being received reproduce the paper's buffer budget.
    // Reliable: unbounded by default — every fragment is stored for replay
    // anyway, so cut-through depth costs no extra memory and the listener
    // must never block behind a sender that is busy retransmitting (or
    // already failed). In flow mode it is bounded at flow.queue_limit
    // instead — a full queue blocks this flow's listener, which stalls its
    // hop acks and backpressures the origin's window, while the sender
    // keeps draining even after a HopFailure so the bound cannot deadlock
    // the pair. DRR buffer sizing: a weight-w flow drains w quanta per
    // scheduler round, so both its queue bound and its mark point scale
    // with the weight — otherwise a heavy flow's visits go underfilled and
    // its surplus leaks to the light flows.
    std::size_t capacity = 0;
    if (!reliable) {
      capacity = static_cast<std::size_t>(options.pipeline_depth - 1);
    } else if (flow_sched_ != nullptr) {
      capacity = static_cast<std::size_t>(
          static_cast<double>(options.flow.queue_limit) *
          std::max(1.0, flow_sched_->weight_of(flow)));
    }
    auto t = std::make_shared<Transfer>(
        engine_, vc_.buffer_pool(), capacity,
        vc_.name() + ".gwitems." + std::to_string(self_));
    t->hdr = hdr;
    t->cls = cls;
    t->flow = flow;
    Egress& egress = t->egress.emplace(
        vc_, self_, hdr, stripe, rail_, static_cast<std::uint64_t>(self_)
                                            << 40);
    // A reliable delivery stands down quietly once this gateway's own NIC
    // crashed after the delivery began, even if it has recovered since:
    // declaring healthy peers dead off its suppressed acks would be wrong,
    // and the downstream copy may already exist. The delivery begins at
    // the first check.
    std::optional<sim::Time> since;
    const auto stand_down = [&] {
      if (!since) {
        since = engine_.now();
      }
      return vc_.node_crashed_within(self_, *since);
    };

    if (reliable && (options.reliable.window == 1 || stripe)) {
      // Store-then-send.
      Ingress ingress(*this, in, *t, nullptr);
      while (ingress.recv().kind != RelayItem::Kind::End) {
      }
      if (stand_down()) {
        return;
      }
      egress.pick_route();
      egress.open();
      const Setback setback = replay(*t);
      if (!setback.ok() && !stand_down()) {
        egress.recover(setback, [&] { return replay(*t); }, stand_down);
      }
      return;
    }
    egress.pick_route();
    TransmissionModule& out_tm = egress.channel().tm();
    if (!reliable && options.pipeline_depth == 1) {
      // Inline: the listener sends each item as soon as it has it.
      egress.open();
      Ingress ingress(*this, in, *t, &out_tm);
      pump(ingress, *t);
      return;
    }
    // Sender actor.
    engine_.spawn(vc_.name() + ".gwsend." + std::to_string(self_),
                  [self = shared_from_this(),
                   weak = std::weak_ptr<Transfer>(t)] {
                    // The listener holds the transfer until this actor
                    // finishes, or unwinds first at engine shutdown.
                    const std::shared_ptr<Transfer> t = weak.lock();
                    if (t == nullptr) {
                      return;
                    }
                    t->egress->open();
                    t->outcome = self->pump(t->items, *t);
                    t->finished = true;
                    t->done.notify_all();
                  });
    Ingress ingress(*this, in, *t, &out_tm);
    std::optional<PeerDied> upstream_died;
    try {
      for (bool more = true; more;) {
        RelayItem item = ingress.recv();
        more = item.kind != RelayItem::Kind::End;
        const bool fragment = item.fragment();
        const std::uint32_t size = item.size;
        if (fragment) {
          item.queued_at = engine_.now();
        }
        t->items.send(std::move(item));
        if (fragment) {
          note_queued(*t, ingress.hop.receiver(), size);
        }
      }
    } catch (const PeerDied& dead) {
      upstream_died = dead;
      t->items.send(RelayItem::of(RelayItem::Kind::Abort));
    }
    while (!t->finished) {
      t->done.wait();
    }
    if (upstream_died) {
      // Upstream died (or this gateway's own NIC crashed) mid-stream:
      // abandon the partial relay — the origin replays on a surviving
      // route, and downstream readers adopt the replayed stream.
      throw *upstream_died;
    }
    if (t->outcome.ok() || vc_.node_crashed(self_)) {
      return;
    }
    // A downstream admission refusal backs off before the replay (which
    // keeps retrying, and backing off, until the next gateway admits it);
    // a dead hop is declared first. Here the delivery that may stand down
    // begins once that is booked, at the failover loop's first check.
    egress.recover(t->outcome, [&] { return replay(*t); }, stand_down);
  }

  /// The receiving half of the relay loop: yields the upstream hop message
  /// as relay items. A plain ingress receives each paquet along the §2.3
  /// zero-copy matrix toward the egress TM; a reliable one acks it and
  /// stores it into the message's blocks.
  struct Ingress {
    Ingress(GatewayRelay& relay, MessageReader& in, Transfer& t,
            TransmissionModule* out_tm)
        : relay(relay),
          in(in),
          t(t),
          out_tm(out_tm),
          // detect_dead: an upstream that dies (or is rerouted away)
          // mid-stream abandons its half-sent message, and a blocking
          // receiver would wait on the rest of it forever.
          hop(relay.vc_, relay.self_, in, relay.in_channel_, t.hdr,
              /*detect_dead=*/true),
          stored(hop.receiver() != nullptr) {}

    RelayItem recv() {
      const std::uint32_t mtu = relay.vc_.mtu();
      if (fragment < fragments) {
        const std::uint32_t size = fragment_size(block.size, mtu, fragment++);
        relay.regulator_.pace(size);
        const sim::Time begin = relay.engine_.now();
        RelayItem item = stored
                             ? RelayItem::of(RelayItem::Kind::FragmentStored)
                             : relay.receive_zero_copy(in, *out_tm, size);
        if (stored) {
          util::Bytes& dst = t.blocks.back().fragments.emplace_back(
              relay.vc_.buffer_pool().take(size));
          hop.fragment(dst);
          item.payload = util::ByteSpan(dst);
        }
        item.size = size;
        relay.span("recv", begin, size);
        GatewayStats& stats = relay.vc_.mutable_gateway_stats(relay.self_);
        ++stats.paquets_forwarded;
        stats.bytes_forwarded += size;
        // The software cost of handing the buffer to the sender thread
        // (measured ≈40 µs per switch on the paper's testbed, §3.3.1).
        const sim::Time switch_begin = relay.engine_.now();
        relay.engine_.sleep_for(relay.vc_.options().gateway_sw_overhead);
        relay.span("switch", switch_begin);
        return item;
      }
      const GtmBlockHeader bh = hop.block_header();
      if (bh.end_of_message != 0) {
        hop.finish();
        return RelayItem::of(RelayItem::Kind::End);
      }
      block = bh;
      fragment = 0;
      fragments = fragment_count(bh.size, mtu);
      if (stored) {
        t.blocks.emplace_back(bh).fragments.reserve(fragments);
      }
      return RelayItem::of(RelayItem::Kind::BlockHeader, bh);
    }
    /// Items are received on demand: nothing is ever queued to bundle.
    const RelayItem* peek() const { return nullptr; }

    GatewayRelay& relay;
    MessageReader& in;
    Transfer& t;
    TransmissionModule* out_tm;  // plain relays
    HopReader hop;
    bool stored;  // reliable relays store every block for replay
    GtmBlockHeader block{};
    std::uint64_t fragment = 0;
    std::uint64_t fragments = 0;
  };

  /// The egress loop: sends items until the end marker (or an abort), then
  /// closes the hop message. After a HopFailure or a downstream rejection
  /// it keeps draining, so a bounded (flow mode) item queue cannot wedge
  /// the listener; the stored copy replays afterwards.
  template <typename Source>
  Setback pump(Source& items, Transfer& t) {
    Egress& out = *t.egress;
    Setback setback;
    for (bool running = true; running;) {
      RelayItem item = items.recv();
      running = item.kind != RelayItem::Kind::End &&
                item.kind != RelayItem::Kind::Abort;
      if (!setback.ok()) {
        // Drained fragments still leave the admission byte ledger —
        // otherwise a failover would leak their queued bytes against the
        // class budget forever.
        note_dequeue(t.cls, item);
        continue;
      }
      setback = Egress::attempt([&] {
        if (item.kind == RelayItem::Kind::BlockHeader) {
          out.block_header(item.header, one_sided(out, item.header));
        } else if (item.kind == RelayItem::Kind::End) {
          out.end();
        } else if (item.fragment()) {
          send_bundle(out, items, std::move(item), t);
        }
      });
    }
    out.close();
    return setback;
  }

  /// One-sided block cut: rdma is on, the out TM keeps dynamic buffers (a
  /// static or hybrid TM routes received paquets through protocol buffers
  /// the remote write model cannot target) and the block is at/above the
  /// rendezvous threshold (smaller blocks stay eager/two-sided).
  bool one_sided(const Egress& out, const GtmBlockHeader& bh) const {
    const RdmaOptions& rdma = vc_.options().rdma;
    const net::NicModelParams& m = out.channel().tm().model();
    return rdma.enabled && !m.tx_static() && !m.hybrid() &&
           bh.size >= rdma.rendezvous_threshold;
  }

  /// Sends `head` and, in flow mode, the fragments queued behind it.
  template <typename Source>
  void send_bundle(Egress& out, Source& items, RelayItem head,
                   const Transfer& t) {
    // Deficit-round-robin, egress side: bundle the fragments already
    // queued — up to this flow's per-visit allowance (quantum x weight) —
    // so one grant moves a weight-proportional batch. The head fragment
    // always goes, even oversized.
    std::uint64_t bytes = head.size;
    std::vector<RelayItem> bundle;
    bundle.push_back(std::move(head));
    if (flow_sched_ != nullptr) {
      const std::uint64_t allowance = flow_sched_->allowance(t.flow);
      for (const RelayItem* next = items.peek();
           next != nullptr && next->fragment() &&
           bytes + next->size <= allowance;
           next = items.peek()) {
        bytes += next->size;
        bundle.push_back(items.recv());
      }
    }
    // Leaving the item queue IS the dequeue the admission ledger tracks —
    // account before make_room, which can throw (a HopFailure here must
    // not leak the bundle's bytes against the class budget).
    for (const RelayItem& item : bundle) {
      note_dequeue(t.cls, item);
    }
    // Drain the window first so the DRR grant below covers only the wire
    // occupancy of the bundle, never an ack round trip — a flow waiting
    // out its window must not hold the egress against every other flow.
    if (ReliableSender* snd = out.sender()) {
      snd->make_room(bundle.size());
    }
    const sim::Time begin = engine_.now();
    {
      FlowGrant grant(flow_sched_.get(), t.flow, bytes);
      // Occupancy clock starts when the grant is held, not when we began
      // waiting for it.
      const sim::Time granted_at = engine_.now();
      for (const RelayItem& item : bundle) {
        if (item.kind == RelayItem::Kind::FragmentStaticOut) {
          // Zero-copy: the paquet was received straight into this outgoing
          // static buffer; hand it to the TM, bypassing the BMM copy-in.
          const Connection& conn = out.channel().connection_to(out.next());
          out.channel().tm().send_static_buffer(
              conn.peer_nic_index, conn.tx_tag, item.static_out);
        } else {
          // Gather send from the pool buffer, the held incoming buffer or
          // the stored block.
          out.fragment(item.payload);
        }
      }
      // Hold the grant until the bundle's egress-wire occupancy has
      // elapsed since granted_at. The simulator models wires per (src,
      // dst) pair, but a real adapter serializes its egress port — and
      // that serialization is the shared resource the flow scheduler
      // arbitrates. Without it, concurrent flows would each see a private
      // full-rate wire and no queue could ever build, making weights and
      // marks dead code. The sender-side pack cost already spent inside
      // the grant counts toward the occupancy (DMA streams into the NIC
      // FIFO while the wire transmits).
      if (flow_sched_ != nullptr) {
        const sim::Time occupancy = sim::transfer_time(
            bytes, out.channel().network().model().wire_bandwidth);
        const sim::Time elapsed = engine_.now() - granted_at;
        if (elapsed < occupancy) {
          engine_.sleep_for(occupancy - elapsed);
        }
      }
    }
    span("send", begin, bytes);
    for (RelayItem& item : bundle) {
      if (!item.buffer.empty()) {
        MAD_ASSERT(item.buffer.size() == vc_.mtu(),
                   "foreign buffer in gw pool");
        free_buffers_.send(std::move(item.buffer));
      }
    }
  }

  /// Resends the stored message on the freshly opened hop.
  Setback replay(Transfer& t) {
    ReplayQueue queue(t.blocks, vc_.mtu());
    return pump(queue, t);
  }

  /// Refuses an over-budget (or shed) message at the admission gate. The
  /// message's epoch is marked done before a single payload paquet is
  /// consumed: boundary drains re-ack and discard its in-flight
  /// retransmits, exactly as they do for a completed stream, so the
  /// upstream sender cannot wedge on a message this gateway will never
  /// relay. The reject signal rides the ack board (post_reject) and
  /// surfaces as FlowRejected in the sender's drain loop, which backs off
  /// and replays the whole message later. If a fault window suppresses the
  /// reject, the sender falls back to its retransmit-timeout path: slower,
  /// but never wedged.
  void reject_message(MessageReader& in, const GtmMsgHeader& hdr,
                      TrafficClass cls,
                      AdmissionController::Verdict verdict) {
    const NodeRank from = in.source();
    Connection& up = in_channel_.connection_to(from);
    up.rx_epoch_done = std::max(up.rx_epoch_done, hdr.epoch);
    in_channel_.network().post_reject(up.rx_tag,
                                      in_channel_.tm().nic().index(),
                                      up.peer_nic_index, hdr.epoch);
    GatewayStats& stats = vc_.mutable_gateway_stats(self_);
    ++stats.admission_rejects;
    sim::MetricsRegistry& metrics = vc_.domain().fabric().metrics();
    metrics.add("admission.rejects", class_label(cls));
    if (verdict == AdmissionController::Verdict::RejectShed) {
      ++stats.admission_sheds;
      metrics.add("admission.sheds", class_label(cls));
    }
    if (vc_.options().trace != nullptr) {
      vc_.options().trace->instant_here(
          "admission.reject",
          "origin=" + std::to_string(hdr.origin) +
              " class=" + traffic_class_name(cls));
    }
    in.end_unpacking();
  }

  /// Receives the next paquet of `size` bytes, choosing the §2.3 zero-copy
  /// path from the static/dynamic buffer modes of both sides.
  RelayItem receive_zero_copy(MessageReader& in, TransmissionModule& out_tm,
                              std::uint32_t size) {
    TransmissionModule& in_tm = in_channel_.tm();
    const bool in_static = in_tm.model().rx_static();
    const bool out_static = out_tm.model().tx_static();
    const bool zero_copy = vc_.options().zero_copy;
    RelayItem item;
    if (in_static && zero_copy) {
      // Consume the paquet's protocol buffer directly (the GTM discipline
      // guarantees one express paquet == one static buffer).
      const std::uint64_t rx_tag =
          in_channel_.connection_to(in.source()).rx_tag;
      auto in_ref = in_tm.recv_packet_static(rx_tag);
      MAD_ASSERT(in_ref.used() == size, "paquet/static-buffer size mismatch");
      if (!out_static) {
        // static → dynamic: send straight from the incoming buffer.
        item.kind = RelayItem::Kind::FragmentHoldIn;
        item.hold_in = std::move(in_ref);
        item.payload = item.hold_in.data();
        return item;
      }
      // static → static: the one unavoidable copy (paper §2.3).
      item.static_out = out_tm.acquire_static_buffer();
      counted_copy(item.static_out.span().first(size), in_ref.data(),
                   CopyPath::ZeroCopy);
    } else if (out_static && zero_copy) {
      // dynamic → static: "ask the outgoing TM for a static buffer which
      // we use to receive data into" (paper §2.3).
      item.static_out = out_tm.acquire_static_buffer();
      in.unpack(item.static_out.span().first(size), SendMode::Cheaper,
                RecvMode::Express);
    } else {
      // dynamic → dynamic (or zero-copy disabled): a recycled pipeline
      // buffer. Still copy-free for dynamic protocols — the NIC scatters
      // into and gathers out of this buffer directly.
      item.kind = RelayItem::Kind::FragmentDynamic;
      item.buffer = free_buffers_.recv();
      in.unpack(util::MutByteSpan(item.buffer).first(size), SendMode::Cheaper,
                RecvMode::Express);
      item.payload = util::ByteSpan(item.buffer).first(size);
      return item;
    }
    item.kind = RelayItem::Kind::FragmentStaticOut;
    item.static_out.set_used(size);
    return item;
  }

  /// Records one relay step as a "gw.<phase>" trace span and a gw.phase_us
  /// sample — one histogram series per (gateway, phase), feeding the Fig
  /// 5/8 step tables and the metrics JSON report.
  void span(const std::string& phase, sim::Time begin,
            std::optional<std::uint64_t> bytes = std::nullopt) {
    const sim::Time end = engine_.now();
    if (sim::Trace* trace = vc_.options().trace; trace != nullptr) {
      trace->record(begin, end, "gw." + phase,
                    bytes ? "bytes=" + std::to_string(*bytes) : "");
    }
    sim::MetricsRegistry& metrics = vc_.domain().fabric().metrics();
    if (metrics.enabled()) {
      metrics
          .histogram("gw.phase_us",
                     "gateway=" + std::to_string(self_) + ",phase=" + phase)
          .record(sim::to_microseconds(end - begin));
    }
  }

  /// Lazily registers the scheduling flow for a message's (origin node,
  /// traffic class) pair (flows are keyed by origin, not by the upstream
  /// hop: two origins funneled through one intermediate gateway still
  /// compete fairly; one origin's control and bulk traffic land in
  /// distinct priority bands). Returns -1 when flow scheduling is off.
  int flow_id_for(NodeRank origin, TrafficClass cls) {
    if (flow_sched_ == nullptr) {
      return -1;
    }
    const std::pair<NodeRank, int> key{
        origin, static_cast<int>(traffic_class_index(cls))};
    if (const auto it = flow_ids_.find(key); it != flow_ids_.end()) {
      return it->second;
    }
    const std::vector<double>& weights = vc_.options().flow.weights;
    double weight = 1.0;
    if (origin >= 0 && static_cast<std::size_t>(origin) < weights.size() &&
        weights[static_cast<std::size_t>(origin)] > 0.0) {
      weight = weights[static_cast<std::size_t>(origin)];
    }
    const std::int64_t sched_key =
        static_cast<std::int64_t>(origin) *
            static_cast<std::int64_t>(kTrafficClassCount) +
        static_cast<std::int64_t>(traffic_class_index(cls));
    const int id = flow_sched_->add_flow(weight, cls, sched_key);
    flow_ids_.emplace(key, id);
    if (admission_ != nullptr) {
      admission_->on_flow_registered(cls);
    }
    return id;
  }

  std::string flow_label(NodeRank origin) const {
    return "gateway=" + std::to_string(self_) +
           ",origin=" + std::to_string(origin);
  }

  std::string class_label(TrafficClass cls) const {
    return "gateway=" + std::to_string(self_) +
           ",class=" + std::string(traffic_class_name(cls));
  }

  /// Queue accounting for one fragment a sender actor's mailbox just took
  /// (store-then-send and replay never build a standing egress queue, so
  /// they are governed by the message budgets alone). The admission byte
  /// ledger counts it; in flow mode the depth histogram samples the queue,
  /// and once the flow's queue reaches its threshold an ECN-style mark goes
  /// to the upstream sender — the egress scheduler is serving other flows
  /// faster than this one drains, so the origin should shrink its window
  /// rather than pile the queue to the blocking limit.
  void note_queued(const Transfer& t, ReliableReceiver* rx,
                   std::uint32_t size) {
    sim::MetricsRegistry& metrics = vc_.domain().fabric().metrics();
    if (admission_ != nullptr) {
      admission_->on_enqueue(t.cls, size);
      metrics.observe_us("admission.queued_bytes", class_label(t.cls),
                         static_cast<double>(admission_->queued_bytes(t.cls)));
    }
    if (flow_sched_ == nullptr) {
      return;
    }
    const auto origin = static_cast<NodeRank>(t.hdr.origin);
    const std::size_t depth = t.items.size();
    metrics.observe_us("flow.queue_depth", flow_label(origin),
                       static_cast<double>(depth));
    // Threshold scales with the flow's weight, mirroring its queue bound:
    // a weight-w flow legitimately holds w quanta of scheduled backlog.
    const double weight = std::max(1.0, flow_sched_->weight_of(t.flow));
    if (static_cast<double>(depth) >=
        static_cast<double>(vc_.options().flow.mark_threshold) * weight) {
      rx->post_congestion_mark();
      ++vc_.mutable_gateway_stats(self_).flow_marks;
      metrics.add("flow.marks", flow_label(origin));
      if (vc_.options().trace != nullptr) {
        vc_.options().trace->instant_here(
            "flow.mark", "origin=" + std::to_string(origin) +
                             " depth=" + std::to_string(depth));
      }
    }
  }

  /// Admission byte accounting, dequeue side, for items that went through
  /// note_queued: feeds the CoDel-style sojourn tracker and the per-class
  /// sojourn histogram.
  void note_dequeue(TrafficClass cls, const RelayItem& item) {
    if (admission_ == nullptr || !item.queued_at) {
      return;
    }
    const sim::Time sojourn = admission_->on_dequeue(
        cls, item.size, *item.queued_at, engine_.now());
    sim::MetricsRegistry& metrics = vc_.domain().fabric().metrics();
    if (metrics.enabled()) {
      metrics.histogram("admission.sojourn_us", class_label(cls))
          .record(sim::to_microseconds(sojourn));
    }
  }

  VirtualChannel& vc_;
  NodeRank self_;
  int rail_;
  Channel& in_channel_;
  sim::Engine& engine_;
  sim::Mailbox<std::vector<std::byte>> free_buffers_;
  Regulator regulator_;
  // Multi-flow forwarding (VcOptions::flow): DRR egress arbiter, lazy
  // (origin, class)→flow registry, the overload admission gate, and
  // per-upstream-hop turn tickets that keep same-stream messages in
  // arrival order while the dispatcher fans everything else out to
  // concurrent relay actors.
  std::unique_ptr<FlowScheduler> flow_sched_;
  std::unique_ptr<AdmissionController> admission_;
  std::map<std::pair<NodeRank, int>, int> flow_ids_;
  std::map<NodeRank, std::uint64_t> flow_next_ticket_;
  std::map<NodeRank, std::uint64_t> flow_serving_;
  sim::Condition flow_turn_;
};

}  // namespace

void spawn_gateway_actors(VirtualChannel& vc) {
  sim::Engine& engine = vc.domain().engine();
  for (NodeRank rank = 0;
       static_cast<std::size_t>(rank) < vc.domain().node_count(); ++rank) {
    if (!vc.is_member(rank) || !vc.is_gateway(rank)) {
      continue;
    }
    for (const int local : vc.topology().networks_of(rank)) {
      // One relay actor per (gateway, network, rail): each rail's channel
      // pair gets its own listener, so striped rails relay concurrently
      // and never serialize behind each other's store-and-forward.
      for (int rail = 0; rail < vc.max_rails(); ++rail) {
        std::string actor_name = vc.name() + ".gw." + std::to_string(rank) +
                                 "." + vc.network(local).name();
        if (rail > 0) {
          actor_name += ".r" + std::to_string(rail);
        }
        engine.spawn(
            actor_name,
            [&vc, rank, local, rail, actor_name] {
              auto relay =
                  std::make_shared<GatewayRelay>(vc, rank, local, rail);
              sim::Engine& engine = vc.domain().engine();
              for (;;) {
                relay->in_channel().wait_incoming();
                MessageReader in = relay->in_channel().begin_unpacking();
                if (!relay->flow_mode() ||
                    !relay->in_channel().uses_announce()) {
                  relay->relay_stream(in);
                  continue;
                }
                // Multi-flow dispatch: accept the message, hand it to a
                // relay actor of its own, and go straight back to
                // accepting — concurrent origins relay (and compete for
                // egress via DRR) instead of serializing behind one
                // store-and-forward. Messages sharing an upstream hop
                // still read that hop's rx stream in arrival order via
                // turn tickets. MessageReader is move-only and
                // Engine::spawn needs a copyable closure, so the reader
                // rides in a shared_ptr.
                //
                // Announce channels only: begin_unpacking consumes the
                // announce packet, so the next wait_incoming blocks
                // until a NEW message arrives. A two-member channel has
                // no announce stream — its peek would see the pending
                // message's paquets until the spawned actor drains
                // them, and this loop would spin spawning an actor per
                // peek. It also has exactly one upstream, whose
                // messages serialize on the rx stream anyway, so the
                // inline path above loses no concurrency there (egress
                // still goes through the DRR scheduler by origin).
                const NodeRank from = in.source();
                const std::uint64_t ticket = relay->issue_ticket(from);
                auto reader = std::make_shared<MessageReader>(std::move(in));
                engine.spawn(actor_name + ".msg",
                             [relay, reader, from, ticket] {
                               relay->await_turn(from, ticket);
                               relay->relay_stream(*reader);
                               relay->finish_turn(from);
                             });
              }
            },
            /*daemon=*/true);
      }
    }
  }
}

}  // namespace mad::fwd
