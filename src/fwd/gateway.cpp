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
// Every message crosses one relay path, the paper's two threads sharing
// the gateway's buffers: the actor that receives it (the listener, or in
// flow mode its upstream hop's relay actor) hands its relay items (block
// headers, fragments, the end marker) through a mailbox to its one send
// actor, which runs the egress; paquet k leaves while paquet k+1 arrives,
// within the pipeline budget. A striped rail is one more such message. A
// reliable relay keeps every block; after a failed egress the receiving
// actor's failover loop replays them on a freshly picked route.
#include "fwd/gateway.hpp"

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
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
#include "util/arena.hpp"
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
/// fragment's payload sits in one of five places. Four follow the
/// zero-copy matrix of §2.3:
///   * the network buffer the paquet arrived in, sent on as the outgoing
///     packet (dynamic→dynamic, neither side hybrid);
///   * a packet-pool buffer the paquet was received into (a hybrid side,
///     and the non-zero-copy paths);
///   * an *outgoing* static buffer the paquet was received straight into
///     (dynamic→static and static→static);
///   * the *incoming* static buffer kept alive and sent from directly
///     (static→dynamic).
/// The fifth is a reliable relay's stored fragment, kept for failover
/// replay in the network buffer the paquet arrived in.
struct RelayItem {
  enum class Kind {
    BlockHeader,
    FragmentAdopted,
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
  /// The slot of the plain relay's pipeline budget the fragment holds
  /// until it is sent (FragmentAdopted, FragmentDynamic; any at depth 1).
  int slot = -1;
  /// FragmentAdopted: the paquet's own network buffer, back to the
  /// fabric's packet pool unless the egress sends it on. FragmentDynamic:
  /// the packet-pool buffer the paquet was received into.
  std::optional<util::BufferLease> paquet;
  net::StaticBufferPool::Ref static_out;  // FragmentStaticOut
  net::StaticBufferPool::Ref hold_in;     // FragmentHoldIn
  /// What the egress sends as a view (FragmentDynamic, FragmentHoldIn and
  /// FragmentStored): of `paquet`, of `hold_in` or of the stored block.
  util::ByteSpan payload;
  /// FragmentStored: the stored fragment's digest, which the egress seals
  /// its trailers from.
  std::optional<std::uint64_t> digest;
  /// When the fragment entered a cut-through send actor's queue: the
  /// admission ledger's sojourn base. Unset on every other path.
  std::optional<sim::Time> queued_at;

  static RelayItem of(Kind kind, const GtmBlockHeader& header = {}) {
    RelayItem item;
    item.kind = kind;
    item.header = header;
    return item;
  }
  static RelayItem stored(const StoredFragment& fragment) {
    RelayItem item = of(Kind::FragmentStored);
    item.size = static_cast<std::uint32_t>(fragment.body.size());
    item.payload = util::ByteSpan(fragment.body.buffer());
    item.digest = fragment.digest;
    return item;
  }
  bool fragment() const {
    return kind != Kind::BlockHeader && kind != Kind::End &&
           kind != Kind::Abort;
  }
};

/// The message crossing the gateway, shared by the actor that receives it
/// and its send actor. A receiving actor has one message in flight at a
/// time, so it keeps one Transfer and reuses it for each. Owned by the two
/// actors' stacks (and the send actor's inbox) only: at engine shutdown
/// either may unwind first while the other still uses it (stack
/// allocation was a use-after-free, see tests/fwd/test_failures.cpp), and
/// the engine keeps actor bodies past the channels, where an egress still
/// open would close its hop message.
struct Transfer {
  Transfer(sim::Engine& engine, const std::string& name)
      : items(engine, 0, name), done(engine, name + ".done") {}

  /// Readies the transfer for the next message, whose item queue holds at
  /// most `capacity` items (0 = unbounded).
  void begin(const GtmMsgHeader& header, TrafficClass traffic_class,
             int flow_id, std::size_t capacity) {
    hdr = header;
    cls = traffic_class;
    flow = flow_id;
    items.set_capacity(capacity);
    outcome.reset();
  }
  /// Once the message is over: gives back its stored fragments and closes
  /// the egress.
  void end() {
    blocks.clear();
    egress.reset();
  }

  GtmMsgHeader hdr;
  TrafficClass cls{};
  int flow = -1;
  /// A reliable relay stores every block, each fragment in the network
  /// buffer it arrived in, with its digest: the upstream hop is acked as
  /// soon as a paquet lands and cannot be asked again, so a failed egress
  /// replays the message from here. Spans into the fragments stay valid
  /// while the receiving actor appends.
  std::deque<StoredBlock> blocks;
  sim::Mailbox<RelayItem> items;  // receiving actor → send actor
  std::optional<Egress> egress;
  /// The send actor's attempt, set when it is over, with a notify of done.
  std::optional<Setback> outcome;
  sim::Condition done;
};

/// A persistent daemon actor, spawned with the first work item handed to
/// it, that runs `run` on each in turn: a send actor, or in flow mode an
/// upstream hop's relay actor. An item carries the token its hand-over
/// took (Engine::KeepAlive), dropped with it. Owned by the handing actor's
/// stack and its own, never by an actor's body, which the engine keeps
/// past the channels the work uses.
template <typename Work>
class Worker : public std::enable_shared_from_this<Worker<Work>> {
 public:
  Worker(sim::Engine& engine, std::string name,
         std::function<void(Work&)> run)
      : engine_(engine),
        name_(std::move(name)),
        run_(std::move(run)),
        inbox_(engine, 0, name_) {}

  void hand(Work work) {
    if (!actor_.valid()) {
      actor_ = engine_.spawn(
          name_,
          [weak = this->weak_from_this()] {
            // Its owner unwinds first at engine shutdown.
            if (const auto self = weak.lock()) {
              self->serve();
            }
          },
          /*daemon=*/true);
    }
    inbox_.send({sim::Engine::KeepAlive(engine_, actor_), std::move(work)});
  }

 private:
  struct Item {
    sim::Engine::KeepAlive alive;
    Work work;  // dropped before the token
  };

  void serve() {
    for (;;) {
      {
        Item item = inbox_.recv();
        run_(item.work);
      }
      if (!inbox_.empty()) {
        engine_.yield();  // behind the actors readied meanwhile, like a spawn
      }
    }
  }

  sim::Engine& engine_;
  std::string name_;
  std::function<void(Work&)> run_;
  sim::ActorHandle actor_;
  sim::Mailbox<Item> inbox_;
};

using Sender = Worker<std::shared_ptr<Transfer>>;

/// Per (gateway, incoming network) relay state, reused across messages.
///
/// Heap-owned (shared_ptr): the send and hop relay actors keep using this
/// state (free-buffer pool, regulator) after the listener actor's stack may
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
        region_owner_((static_cast<std::uint64_t>(self) << 32) |
                      (static_cast<std::uint64_t>(in_local_net) << 16) |
                      static_cast<std::uint64_t>(rail)),
        free_slots_(engine_, 0, vc.name() + ".gwbuf." + std::to_string(self)),
        regulator_(engine_, vc.options().regulation_rate) {
    for (int slot = 0; slot < vc.options().pipeline_depth; ++slot) {
      free_slots_.send(slot);
    }
    if (vc.options().flow.enabled) {
      // DRR quantum: one route-MTU paquet per visit.
      flow_sched_ = std::make_unique<FlowScheduler>(
          engine_, vc.mtu(), vc.name() + ".gwflow." + std::to_string(self));
      if (vc.options().flow.admission.enabled) {
        admission_ =
            std::make_unique<AdmissionController>(vc.options().flow.admission);
      }
    }
  }

  Channel& in_channel() const { return in_channel_; }

  /// A receiving actor's transfer, reused for each message it relays.
  std::shared_ptr<Transfer> make_transfer() const {
    return std::make_shared<Transfer>(
        engine_, vc_.name() + ".gwitems." + std::to_string(self_));
  }

  /// A receiving actor's send actor: it opens each message's egress and
  /// pumps its items while the receiving actor waits for the outcome.
  std::shared_ptr<Sender> make_sender(std::string name) {
    return std::make_shared<Sender>(
        engine_, std::move(name),
        [self = shared_from_this(),
         bundle = std::make_shared<std::vector<RelayItem>>()](
            std::shared_ptr<Transfer>& t) {
          t->egress->open();
          t->outcome = self->pump(t->items, *t, *bundle);
          t->done.notify_all();
        });
  }

  /// Parses the head of an accepted stream and relays the message through
  /// `sender`, the calling actor's send actor, in `t`, its transfer.
  void relay_stream(MessageReader& in, Sender& sender,
                    const std::shared_ptr<Transfer>& t) {
    try {
      std::optional<GtmMsgHeader> header;
      // Reliable boundary parse: skips late retransmits and ghost framing
      // of streams this relay already completed.
      const Preamble preamble =
          vc_.reliable() ? vc_.read_stream_head(in, in_channel_, self_, header)
                         : read_preamble(in);
      MAD_ASSERT(preamble.forwarded != 0,
                 "native message on a special channel");
      relay_message(std::move(in), header, sender, t);
    } catch (const PeerDied&) {
      // A cut-through relay abandoned a stream whose upstream (or this
      // gateway itself) died mid-message. The origin replays on a
      // surviving route; keep listening.
    }
  }

 private:
  void relay_message(MessageReader in, std::optional<GtmMsgHeader> pre_hdr,
                     Sender& sender, const std::shared_ptr<Transfer>& t) {
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
      const AdmissionController::Verdict verdict = admission_->admit(cls);
      if (verdict != AdmissionController::Verdict::Admit) {
        reject_message(in, hdr, cls, verdict);
        return;
      }
      admission_->on_message_admitted(cls);
    }
    try {
      relay(in, hdr, stripe, cls, sender, t);
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

  /// The relay path (ARCHITECTURE.md §5): ingress → send actor → egress,
  /// then the failover loop here. Known limitation (§8): if THIS gateway
  /// crashes after the upstream acked a paquet but before it went
  /// downstream, the message is lost.
  void relay(MessageReader& in, const GtmMsgHeader& hdr,
             const std::optional<GtmStripeHeader>& stripe, TrafficClass cls,
             Sender& sender, const std::shared_ptr<Transfer>& t) {
    const VcOptions& options = vc_.options();
    const bool reliable = (hdr.flags & kGtmFlagReliable) != 0;
    const int flow = flow_id_for(static_cast<NodeRank>(hdr.origin), cls);
    // Item queue bound. Unreliable: pipeline_depth - 1 items plus the
    // paquet being received reproduce the paper's buffer budget. Reliable:
    // unbounded — every fragment is stored anyway, and the receiver must
    // never block behind a send actor that is retransmitting (or failed).
    // In flow mode a cut-through queue is bounded at flow.queue_limit x the
    // flow's weight (a weight-w flow drains w quanta per DRR round, so its
    // mark point scales too): a full queue stalls this flow's hop acks and
    // backpressures the origin's window, while the send actor keeps
    // draining even after a HopFailure, so the bound cannot deadlock.
    std::size_t capacity = 0;
    if (!reliable) {
      capacity = static_cast<std::size_t>(options.pipeline_depth - 1);
    } else if (flow_sched_ != nullptr) {
      capacity = static_cast<std::size_t>(
          static_cast<double>(options.flow.queue_limit) *
          std::max(1.0, flow_sched_->weight_of(flow)));
    }
    t->begin(hdr, cls, flow, capacity);
    Egress& egress = t->egress.emplace(
        vc_, self_, hdr, stripe, rail_, static_cast<std::uint64_t>(self_)
                                            << 40);
    egress.pick_route();
    sender.hand(t);
    // Every exit from here, a throw included, ends the message, once the
    // send actor is done with it (at engine shutdown one still pumping
    // keeps it).
    struct EndTransfer {
      Transfer& t;
      ~EndTransfer() {
        if (t.outcome) {
          t.end();
        }
      }
    } ending{*t};
    HopReader hop(vc_, self_, in, in_channel_, hdr);
    try {
      for (GtmBlockHeader bh = hop.block_header(); bh.end_of_message == 0;
           bh = hop.block_header()) {
        const std::uint64_t fragments = fragment_count(bh.size, vc_.mtu());
        if (reliable) {
          t->blocks.emplace_back(bh).fragments.reserve(fragments);
        }
        t->items.send(RelayItem::of(RelayItem::Kind::BlockHeader, bh));
        for (std::uint64_t i = 0; i < fragments; ++i) {
          RelayItem item = receive_fragment(
              in, hop, *t, fragment_size(bh.size, vc_.mtu(), i));
          const std::uint32_t size = item.size;
          item.queued_at = engine_.now();
          t->items.send(std::move(item));
          note_queued(*t, hop.receiver(), size);
        }
      }
      hop.finish();
      t->items.send(RelayItem::of(RelayItem::Kind::End));
    } catch (const PeerDied&) {
      // Upstream died (or this gateway's own NIC crashed) mid-stream:
      // abandon the partial relay once the send actor has stopped — the
      // origin replays on a surviving route, and downstream readers adopt
      // the replayed stream.
      t->items.send(RelayItem::of(RelayItem::Kind::Abort));
      while (!t->outcome) {
        t->done.wait();
      }
      throw;
    }
    while (!t->outcome) {
      t->done.wait();
    }
    if (t->outcome->ok() || vc_.node_crashed(self_)) {
      return;
    }
    // The redelivery begins once the failover loop has booked the setback,
    // at the first check, and stands down quietly once this gateway's own
    // NIC crashed, even if it has recovered since: its suppressed acks
    // must not condemn healthy peers, and the downstream copy may already
    // exist.
    std::optional<sim::Time> since;
    const auto stand_down = [&] {
      if (!since) {
        since = engine_.now();
      }
      return vc_.node_crashed_within(self_, *since);
    };
    std::vector<RelayItem> bundle;
    egress.recover(*t->outcome, [&] { return replay(*t, bundle); },
                   stand_down);
  }

  /// Receives the next fragment, of `size` bytes, of `t`: along the §2.3
  /// zero-copy matrix toward the egress TM, or, reliable, into `t`'s blocks.
  RelayItem receive_fragment(MessageReader& in, HopReader& hop, Transfer& t,
                             std::uint32_t size) {
    regulator_.pace(size);
    const sim::Time begin = engine_.now();
    RelayItem item =
        hop.receiver() == nullptr
            ? receive_zero_copy(in, t.egress->channel().tm(), size)
            : RelayItem::stored(store_fragment(hop, t, size));
    span("recv", begin, size);
    GatewayStats& stats = vc_.mutable_gateway_stats(self_);
    ++stats.paquets_forwarded;
    stats.bytes_forwarded += size;
    // The software cost of handing the buffer to the sender thread
    // (measured ≈40 µs per switch on the paper's testbed, §3.3.1).
    const sim::Time switch_begin = engine_.now();
    engine_.sleep_for(vc_.options().gateway_sw_overhead);
    span("switch", switch_begin);
    return item;
  }

  /// Receives a reliable fragment, verified in place, into `t`'s last block
  /// in its network buffer. Stored only once the receive returns, so an
  /// upstream that dies meanwhile leaves no empty fragment behind.
  const StoredFragment& store_fragment(HopReader& hop, Transfer& t,
                                       std::uint32_t size) {
    util::Bytes body;
    const std::uint64_t digest = hop.fragment(body);
    MAD_ASSERT(body.size() == size, "paquet/fragment size mismatch");
    return t.blocks.back().fragments.emplace_back(StoredFragment{
        util::BufferLease(in_channel_.tm().packet_pool(), std::move(body)),
        digest});
  }

  /// The egress loop: sends items until the end marker (or an abort), then
  /// closes the hop message. After a HopFailure or a downstream rejection
  /// it keeps draining, so a bounded (flow mode) item queue cannot wedge
  /// the receiver; the stored copy replays afterwards.
  Setback pump(sim::Mailbox<RelayItem>& items, Transfer& t,
               std::vector<RelayItem>& bundle) {
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
          // One-sided when rdma is on, the out TM keeps dynamic buffers (a
          // static or hybrid TM routes received paquets through protocol
          // buffers the remote write model cannot target) and the block is
          // at/above the rendezvous threshold.
          const RdmaOptions& rdma = vc_.options().rdma;
          const net::NicModelParams& m = out.channel().tm().model();
          out.block_header(item.header,
                           rdma.enabled && !m.tx_static() && !m.hybrid() &&
                               item.header.size >= rdma.rendezvous_threshold);
        } else if (item.kind == RelayItem::Kind::End) {
          out.end();
        } else if (item.fragment()) {
          send_bundle(out, items, std::move(item), t, bundle);
        }
      });
    }
    out.close();
    return setback;
  }

  /// Sends `head` and, in flow mode, the fragments queued behind it,
  /// gathered in the scratch vector `rest`.
  void send_bundle(Egress& out, sim::Mailbox<RelayItem>& items, RelayItem head,
                   const Transfer& t, std::vector<RelayItem>& rest) {
    // Deficit-round-robin, egress side: bundle the fragments already
    // queued — up to this flow's per-visit allowance (quantum x weight) —
    // so one grant moves a weight-proportional batch. The head fragment
    // always goes, even oversized.
    std::uint64_t bytes = head.size;
    rest.clear();
    if (flow_sched_ != nullptr) {
      const std::uint64_t allowance = flow_sched_->allowance(t.flow);
      for (const RelayItem* next = items.peek();
           next != nullptr && next->fragment() &&
           bytes + next->size <= allowance;
           next = items.peek()) {
        bytes += next->size;
        rest.push_back(items.recv());
      }
    }
    const auto each = [&](auto&& step) {
      step(head);
      for (RelayItem& item : rest) {
        step(item);
      }
    };
    // Leaving the item queue IS the dequeue the admission ledger tracks —
    // account before make_room, which can throw (a HopFailure here must
    // not leak the bundle's bytes against the class budget).
    each([&](const RelayItem& item) { note_dequeue(t.cls, item); });
    // Drain the window first so the DRR grant below covers only the wire
    // occupancy of the bundle, never an ack round trip — a flow waiting
    // out its window must not hold the egress against every other flow.
    if (ReliableSender* snd = out.sender()) {
      snd->make_room(1 + rest.size());
    }
    const sim::Time begin = engine_.now();
    {
      FlowGrant grant(flow_sched_.get(), t.flow, bytes);
      // Occupancy clock starts when the grant is held, not when we began
      // waiting for it.
      const sim::Time granted_at = engine_.now();
      each([&](RelayItem& item) {
        if (item.kind == RelayItem::Kind::FragmentStaticOut) {
          // Zero-copy: the paquet was received straight into this outgoing
          // static buffer; hand it to the TM, bypassing the BMM copy-in.
          const Connection& conn = out.channel().connection_to(out.next());
          out.channel().tm().send_static_buffer(
              conn.peer_nic_index, conn.tx_tag, item.static_out);
        } else if (item.kind == RelayItem::Kind::FragmentAdopted) {
          // Zero-copy: the paquet leaves in the buffer it arrived in.
          out.fragment(item.paquet->release(), region(item));
        } else {
          // Gather send from the received paquet, the held incoming buffer
          // or the stored block (sealed from its digest).
          out.fragment(item.payload, region(item), item.digest);
        }
      });
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
    each([&](const RelayItem& item) {
      if (item.slot >= 0) {
        free_slots_.send(item.slot);
      }
    });
  }

  /// The registered region a plain hop's one-sided write of `item` pins:
  /// its pipeline slot, or the incoming static buffer it is sent from.
  /// Stored fragments cross a reliable hop, whose sender names its own.
  std::optional<RegionKey> region(const RelayItem& item) const {
    if (item.hold_in.valid()) {
      return RegionKey{RegionKey::Kind::StaticBuffer, region_owner_,
                       item.hold_in.slot(), 0};
    }
    if (item.slot >= 0) {
      return RegionKey{RegionKey::Kind::PipelineSlot, region_owner_,
                       static_cast<std::uint64_t>(item.slot), 0};
    }
    return std::nullopt;
  }

  /// Resends the stored message on the freshly opened hop.
  Setback replay(Transfer& t, std::vector<RelayItem>& bundle) {
    sim::Mailbox<RelayItem> queue(engine_, 0, vc_.name() + ".gwreplay");
    for (const StoredBlock& block : t.blocks) {
      queue.send(RelayItem::of(RelayItem::Kind::BlockHeader, block.header));
      for (const StoredFragment& fragment : block.fragments) {
        queue.send(RelayItem::stored(fragment));
      }
    }
    queue.send(RelayItem::of(RelayItem::Kind::End));
    return pump(queue, t, bundle);
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

  /// Receives the next paquet of `size` bytes of `block`, choosing the
  /// §2.3 zero-copy path from the static/dynamic buffer modes of both
  /// sides.
  RelayItem receive_zero_copy(MessageReader& in, TransmissionModule& out_tm,
                              std::uint32_t size) {
    TransmissionModule& in_tm = in_channel_.tm();
    const bool in_static = in_tm.model().rx_static();
    const bool out_static = out_tm.model().tx_static();
    const bool zero_copy = vc_.options().zero_copy;
    RelayItem item;
    item.size = size;
    // The pipeline budget, waited for exactly as the paper's buffers are.
    // A dynamic paquet's slot is the buffer it crosses in. At depth 1 the
    // one slot holds every paquet until it has left, so no paquet k+1 is
    // received while the send actor sends paquet k.
    if ((!in_static && !out_static) || !zero_copy ||
        vc_.options().pipeline_depth == 1) {
      item.slot = free_slots_.recv();
    }
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
      // dynamic → dynamic (or zero-copy disabled).
      if (!in_static && !out_static && !in_tm.model().hybrid() &&
          !out_tm.model().hybrid()) {
        // The paquet goes on in the network buffer it arrived in: no
        // software copy at all (paper §2.3). A hybrid side would route
        // small paquets through its protocol buffers.
        item.kind = RelayItem::Kind::FragmentAdopted;
        item.paquet.emplace(in_tm.packet_pool(), in.take_paquet());
        MAD_ASSERT(item.paquet->size() == size,
                   "paquet/fragment size mismatch");
        return item;
      }
      // Still copy-free for dynamic protocols — the NIC scatters into and
      // gathers out of this buffer directly.
      item.kind = RelayItem::Kind::FragmentDynamic;
      item.paquet.emplace(in_tm.packet_pool(), size);
      in.unpack(util::MutByteSpan(item.paquet->buffer()), SendMode::Cheaper,
                RecvMode::Express);
      item.payload = util::ByteSpan(item.paquet->buffer());
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
    if (sim::TraceSink* trace = vc_.options().trace; trace != nullptr) {
      trace->span_here(begin, end, "gw." + phase,
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

  /// Queue accounting for one fragment a send actor's mailbox just took (a
  /// replay reads the stored blocks, so it builds no standing egress queue:
  /// it is governed by the message budgets alone). The admission byte
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
      if (metrics.enabled()) {
        metrics.histogram("admission.queued_bytes", class_label(t.cls))
            .record(static_cast<double>(admission_->queued_bytes(t.cls)));
      }
    }
    if (flow_sched_ == nullptr) {
      return;
    }
    const auto origin = static_cast<NodeRank>(t.hdr.origin);
    const std::size_t depth = t.items.size();
    if (metrics.enabled()) {
      metrics.histogram("flow.queue_depth", flow_label(origin))
          .record(static_cast<double>(depth));
    }
    // Threshold scales with the flow's weight, mirroring its queue bound:
    // a weight-w flow legitimately holds w quanta of scheduled backlog.
    const double weight = std::max(1.0, flow_sched_->weight_of(t.flow));
    if (static_cast<double>(depth) >=
        static_cast<double>(vc_.options().flow.mark_threshold) * weight) {
      rx->post_congestion_mark();
      ++vc_.mutable_gateway_stats(self_).flow_marks;
      if (metrics.enabled()) {
        metrics.counter("flow.marks", flow_label(origin)).add();
      }
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
  // The regions this relay registers are named after it (RegionKey).
  std::uint64_t region_owner_;
  // The pipeline budget: pipeline_depth slot ids, cycled in mailbox order.
  sim::Mailbox<int> free_slots_;
  Regulator regulator_;
  // Multi-flow forwarding (VcOptions::flow): DRR egress arbiter, lazy
  // (origin, class)→flow registry and the overload admission gate.
  std::unique_ptr<FlowScheduler> flow_sched_;
  std::unique_ptr<AdmissionController> admission_;
  std::map<std::pair<NodeRank, int>, int> flow_ids_;
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
      // and never serialize behind each other.
      for (int rail = 0; rail < vc.max_rails(); ++rail) {
        std::string actor_name = vc.name() + ".gw." + std::to_string(rank) +
                                 "." + vc.network(local).name();
        if (rail > 0) {
          actor_name += ".r" + std::to_string(rail);
        }
        engine.spawn(
            actor_name,
            [&vc, &engine, rank, local, rail, actor_name] {
              auto relay =
                  std::make_shared<GatewayRelay>(vc, rank, local, rail);
              const auto sender = relay->make_sender(actor_name + ".send");
              const auto transfer = relay->make_transfer();
              // Flow mode: each upstream hop's relay actor.
              std::map<NodeRank, std::shared_ptr<Worker<MessageReader>>> hops;
              for (;;) {
                relay->in_channel().wait_incoming();
                MessageReader in = relay->in_channel().begin_unpacking();
                if (!vc.options().flow.enabled ||
                    !relay->in_channel().uses_announce()) {
                  relay->relay_stream(in, *sender, transfer);
                  continue;
                }
                // Multi-flow dispatch: hand the message to its upstream
                // hop's relay actor, which reads the hop's rx stream in
                // arrival order, and go straight back to accepting, so hops
                // relay concurrently (competing for egress via DRR, by
                // origin). Announce channels only: begin_unpacking consumes
                // the announce packet, whereas a two-member channel's peek
                // would see the pending message until the relay actor
                // drains it, and this loop would spin (its one upstream
                // serializes on the rx stream anyway).
                const NodeRank from = in.source();
                auto& hop = hops[from];
                if (hop == nullptr) {
                  const std::string name =
                      actor_name + ".from" + std::to_string(from);
                  hop = std::make_shared<Worker<MessageReader>>(
                      engine, name,
                      [relay, sender = relay->make_sender(name + ".send"),
                       transfer = relay->make_transfer()](
                          MessageReader& hop_in) {
                        relay->relay_stream(hop_in, *sender, transfer);
                      });
                }
                hop->hand(std::move(in));
              }
            },
            /*daemon=*/true);
      }
    }
  }
}

}  // namespace mad::fwd
