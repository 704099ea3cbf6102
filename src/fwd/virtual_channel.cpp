#include "fwd/virtual_channel.hpp"

#include <algorithm>
#include <cstring>

#include "fwd/egress.hpp"
#include "fwd/gateway.hpp"
#include "fwd/stripe.hpp"
#include "mad/channel.hpp"
#include "mad/session.hpp"
#include "net/fabric.hpp"
#include "net/link.hpp"
#include "sim/metrics.hpp"
#include "util/arena.hpp"
#include "util/panic.hpp"

namespace mad::fwd {

namespace {

/// Admission-reject backoff (FlowOptions::reject_delay): first delay,
/// growth per consecutive reject, and ceiling before jitter.
constexpr sim::Time kRejectBackoff = sim::milliseconds(2);
constexpr double kRejectBackoffFactor = 2.0;
constexpr sim::Time kRejectBackoffCap = sim::milliseconds(100);

/// Reads the heads a forwarded message's polling actor left on its stream:
/// the GTM header, unless a reliable poller pre-read it, and a striped
/// message's rail 0 stripe header.
void read_heads(VcIncoming& incoming) {
  if (!incoming.gtm_header) {
    incoming.gtm_header = read_msg_header(incoming.reader);
  }
  if ((incoming.gtm_header->flags & kGtmFlagStriped) != 0) {
    incoming.stripe = read_stripe_header(incoming.reader);
    MAD_ASSERT(incoming.stripe.rail == 0,
               "rail 0 must arrive on the regular channel");
  }
}

}  // namespace

void FlowOptions::validate(bool reliable_enabled) const {
  if (!enabled) {
    return;
  }
  MAD_ASSERT(reliable_enabled,
             "flow scheduling requires reliable mode (congestion marks ride "
             "the ack board and only reliable streams are relay-queued)");
  MAD_ASSERT(queue_limit >= 1, "flow queue_limit must hold at least one "
                               "paquet");
  MAD_ASSERT(mark_threshold >= 1 && mark_threshold <= queue_limit,
             "flow mark_threshold must be within [1, queue_limit]");
  for (const double w : weights) {
    MAD_ASSERT(w >= 0.0, "flow weights must be >= 0 (0 = default)");
  }
}

sim::Time FlowOptions::reject_delay(int attempts, std::uint64_t seed) {
  double delay = static_cast<double>(kRejectBackoff);
  const double cap = static_cast<double>(kRejectBackoffCap);
  for (int i = 0; i < attempts && delay < cap; ++i) {
    delay *= kRejectBackoffFactor;
  }
  delay = std::min(delay, cap);
  util::Rng jitter(seed);
  delay += delay * 0.25 * jitter.next_double();
  return static_cast<sim::Time>(delay);
}

void VcOptions::validate() const {
  MAD_ASSERT(pipeline_depth >= 1, "pipeline depth must be >= 1");
  MAD_ASSERT(max_rails >= 1, "max_rails must be >= 1");
  if (reliable.enabled) {
    reliable.validate();
  }
  if (rdma.enabled) {
    rdma.validate();
  }
  flow.validate(reliable.enabled);
  if (flow.enabled) {
    MAD_ASSERT(max_rails == 1,
               "flow scheduling and multi-rail striping are mutually "
               "exclusive (a striped message would split one origin's flow "
               "across independent per-rail schedulers)");
    MAD_ASSERT(rail_weights.empty(),
               "rail_weights configure striping, which flow scheduling "
               "excludes — remove one of the two");
  }
}

VirtualChannel::VirtualChannel(Domain& domain, std::string name,
                               std::vector<net::Network*> networks,
                               VcOptions options)
    : domain_(domain),
      name_(std::move(name)),
      networks_(std::move(networks)),
      options_(options) {
  MAD_ASSERT(!networks_.empty(), "virtual channel needs networks");
  options_.validate();
  mtu_ = compute_route_mtu(domain_, networks_, options_.paquet_size);
  if (options_.reliable.enabled) {
    MAD_ASSERT(mtu_ > kGtmTrailerBytes,
               "route MTU too small for the reliable paquet trailer");
    // Carve the trailer out of the wire MTU so payload + trailer still
    // crosses every hop unfragmented.
    mtu_ -= kGtmTrailerBytes;
  }

  // Topology over *local* network ids (positions in networks_).
  topology_ = std::make_unique<topo::Topology>(domain_.node_count());
  for (NodeRank rank = 0;
       static_cast<std::size_t>(rank) < domain_.node_count(); ++rank) {
    for (int local = 0; local < local_net_count(); ++local) {
      if (domain_.has_nic(rank, *networks_[static_cast<std::size_t>(local)])) {
        topology_->attach(rank, local);
      }
    }
  }
  routing_ = std::make_unique<topo::Routing>(*topology_);

  // Two real channels per device per virtual channel (paper Fig 3). Each
  // extra rail gets its own regular/special pair per device, so striped
  // rails never contend for a connection tx lock or interleave on a relay
  // actor with rail 0 (or each other).
  for (int rail = 0; rail < options_.max_rails; ++rail) {
    const std::string prefix =
        rail == 0 ? name_ : name_ + ".st" + std::to_string(rail);
    regular_ids_.emplace_back();
    special_ids_.emplace_back();
    for (int local = 0; local < local_net_count(); ++local) {
      net::Network& network = *networks_[static_cast<std::size_t>(local)];
      regular_ids_.back().push_back(
          domain_.create_channel(prefix + ".reg." + network.name(), network));
      special_ids_.back().push_back(
          domain_.create_channel(prefix + ".fwd." + network.name(), network));
    }
  }

  for (NodeRank rank = 0;
       static_cast<std::size_t>(rank) < domain_.node_count(); ++rank) {
    if (is_member(rank)) {
      endpoints_.emplace(rank, std::make_unique<VcEndpoint>(*this, rank));
    }
  }

  spawn_pollers();
  spawn_gateways();

  if (options_.health.enabled) {
    health_ = std::make_unique<topo::HealthMonitor>(options_.health);
    routing_->set_cost_provider(health_.get());
    spawn_health_actor();
  }
}

VirtualChannel::~VirtualChannel() {
  // Channel teardown deregisters everything the channel pinned.
  for (auto& [id, tm] : rdma_tms_) {
    tm->invalidate();
  }
}

void VirtualChannel::discard_stale_paquet(Channel& channel, NodeRank peer,
                                          NodeRank self, util::ByteSpan wire) {
  count_reliability(self, &ReliabilityStats::stale_drops, "rel.stale_drops");
  const auto trailer = verified_trailer(wire);
  if (!trailer) {
    return;  // duplicated framing or noise: nothing to acknowledge
  }
  // A valid paquet of an epoch this endpoint finished is a late retransmit
  // whose final ack was lost: re-ack it, or the sender burns its retry
  // budget and replays an already-delivered message. Later epochs stay
  // unacked — their framing was lost, and the sender's paquet-0 prologue
  // retransmission (ReliableSender::set_framing) re-frames the stream.
  const Connection& conn = channel.connection_to(peer);
  if (trailer->epoch <= conn.rx_epoch_done) {
    channel.network().post_ack(conn.rx_tag, channel.tm().nic().index(),
                               conn.peer_nic_index, trailer->epoch,
                               trailer->seq);
  }
}

void VirtualChannel::read_framing_tolerant(MessageReader& reader,
                                           Channel& channel, NodeRank self,
                                           util::MutByteSpan element) {
  for (;;) {
    const util::BufferLease paquet(channel.tm().packet_pool(),
                                   reader.take_paquet());
    const util::ByteSpan wire(paquet.buffer());
    if (wire.size() == element.size()) {
      // The element size can collide with a small data paquet's wire size;
      // only a valid checksum identifies the imposter.
      if (!verified_trailer(wire)) {
        std::memcpy(element.data(), wire.data(), element.size());
        return;
      }
    }
    discard_stale_paquet(channel, reader.source(), self, wire);
  }
}

Preamble VirtualChannel::read_stream_head(MessageReader& reader,
                                          Channel& channel, NodeRank self,
                                          std::optional<GtmMsgHeader>& header,
                                          GtmStripeHeader* stripe) {
  header.reset();
  const NodeRank peer = reader.source();
  std::optional<Preamble> preamble;
  const auto count_ghost = [&](util::ByteSpan wire) {
    discard_stale_paquet(channel, peer, self, wire);
  };
  for (;;) {
    const util::BufferLease paquet(channel.tm().packet_pool(),
                                   reader.take_paquet());
    const util::ByteSpan wire(paquet.buffer());
    if (verified_trailer(wire)) {
      // A late data paquet, never a framing element (framing carries no
      // trailer). Re-acked inside when its epoch already completed.
      discard_stale_paquet(channel, peer, self, wire);
      continue;
    }
    if (wire.size() == sizeof(Preamble)) {
      if (preamble) {
        // Two preambles in a row: the first was ghost framing whose header
        // a fault window ate. Charge it as stale and adopt the new one.
        count_ghost(util::object_bytes(*preamble));
      }
      Preamble p;
      std::memcpy(&p, wire.data(), sizeof(Preamble));
      preamble = p;
      if (p.forwarded == 0) {
        return p;  // native stream: no GTM header follows
      }
      continue;
    }
    if (wire.size() == sizeof(GtmMsgHeader) && preamble && !header) {
      GtmMsgHeader h;
      std::memcpy(&h, wire.data(), sizeof(GtmMsgHeader));
      if ((h.flags & kGtmFlagReliable) != 0) {
        const Connection& conn = channel.connection_to(peer);
        if (h.epoch <= conn.rx_epoch_done) {
          // Ghost head: duplicated framing of a stream this connection
          // already received to the end marker. Reopening it would deliver
          // the message twice — drop the whole head and keep parsing (the
          // genuine head of the announced message is still behind it).
          count_ghost(util::object_bytes(*preamble));
          count_ghost(wire);
          preamble.reset();
          continue;
        }
      }
      header = h;
      if (stripe != nullptr) {
        read_framing_tolerant(reader, channel, self,
                              util::object_bytes_mut(*stripe));
        MAD_ASSERT(stripe->rails > 0 && stripe->rail < stripe->rails,
                   "bad rail index on the wire");
        MAD_ASSERT(stripe->share > 0, "zero stripe share on the wire");
      }
      return *preamble;
    }
    // Anything else — wrong-sized junk, or a header with no preamble in
    // front of it — is a leftover of the previous stream.
    discard_stale_paquet(channel, peer, self, wire);
  }
}

void VirtualChannel::queue_tail_acks(Channel& channel, NodeRank peer,
                                     std::uint32_t epoch,
                                     std::uint32_t last_seq) {
  const Connection& conn = channel.connection_to(peer);
  tail_acks_.push_back(
      {&channel.network(), conn.rx_tag, channel.tm().nic().index(),
       conn.peer_nic_index, epoch, last_seq,
       domain_.engine().now() + options_.reliable.ack_timeout,
       options_.reliable.max_attempts});
  if (tail_acks_.size() > 1) {
    return;  // the daemon is draining the FIFO
  }
  domain_.engine().spawn(
      name_ + ".tailack",
      [this] {
        sim::Engine& eng = domain_.engine();
        // One repost surviving suppression is enough (the ack board
        // retains it and wakes the sender), so max_attempts reposts spaced
        // ack_timeout apart outlast any transient fault window the sender
        // itself is expected to ride out.
        while (!tail_acks_.empty()) {
          eng.sleep_until(tail_acks_.front().deadline);  // now, if due
          TailAck ack = tail_acks_.front();
          tail_acks_.pop_front();
          ack.network->post_ack(ack.tag, ack.self_nic, ack.peer_nic,
                                ack.epoch, ack.last_seq);
          if (--ack.reposts_left > 0) {
            ack.deadline += options_.reliable.ack_timeout;
            tail_acks_.push_back(ack);
          }
        }
      },
      /*daemon=*/true);
}

void VirtualChannel::mark_dead(NodeRank rank) {
  dead_.insert(rank);
  const bool was_excluded = routing_->excluded(rank);
  routing_->exclude(rank);
  if (health_ != nullptr && !was_excluded) {
    health_->note_excluded(rank, domain_.engine().now());
  }
  // The dead node's adapters take their registration state with them:
  // every cached pin on its NICs is invalid the moment it crashes.
  for (net::Network* network : networks_) {
    if (!domain_.has_nic(rank, *network)) {
      continue;
    }
    const auto it = rdma_tms_.find(
        {network->id(), domain_.nic_of(rank, *network).index()});
    if (it != rdma_tms_.end()) {
      it->second->invalidate();
    }
  }
}

void VirtualChannel::declare_dead(NodeRank reporter, NodeRank peer) {
  mark_dead(peer);
  count_reliability(reporter, &ReliabilityStats::peers_declared_dead,
                    "rel.dead_peers");
  if (options_.trace != nullptr) {
    options_.trace->instant_here("rel.dead",
                                 "peer=" + std::to_string(peer));
  }
}

void VirtualChannel::note_failover(NodeRank reporter, NodeRank dst,
                                   NodeRank around) {
  count_reliability(reporter, &ReliabilityStats::failovers, "rel.failovers");
  if (options_.trace != nullptr) {
    options_.trace->instant_here("rel.failover",
                                 "dst=" + std::to_string(dst) +
                                     " around=" + std::to_string(around));
  }
}

RdmaTm* VirtualChannel::rdma_tm(net::Nic& nic) const {
  if (!options_.rdma.enabled) {
    return nullptr;
  }
  const std::pair<int, int> key{nic.network().id(), nic.index()};
  auto it = rdma_tms_.find(key);
  if (it == rdma_tms_.end()) {
    it = rdma_tms_
             .emplace(key, std::make_unique<RdmaTm>(
                                domain_.engine(), nic, options_.rdma,
                                name_ + ".rdma." + nic.network().name() +
                                    ".nic" + std::to_string(nic.index())))
             .first;
  }
  return it->second.get();
}

RdmaTotals VirtualChannel::rdma_totals() const {
  RdmaTotals totals;
  for (const auto& [id, tm] : rdma_tms_) {
    const MrCacheStats& s = tm->cache().stats();
    totals.cache.hits += s.hits;
    totals.cache.misses += s.misses;
    totals.cache.evictions += s.evictions;
    totals.cache.invalidations += s.invalidations;
    totals.writes += tm->writes();
    totals.bytes_written += tm->bytes_written();
    totals.rendezvous += tm->rendezvous_count();
    totals.rendezvous_hits += tm->rendezvous_hits();
  }
  return totals;
}

bool VirtualChannel::is_dead(NodeRank rank) const {
  return dead_.count(rank) != 0;
}

bool VirtualChannel::node_crashed(NodeRank rank) const {
  return node_crashed_within(rank, domain_.engine().now());
}

bool VirtualChannel::node_crashed_within(NodeRank rank,
                                         sim::Time since) const {
  const sim::Time now = domain_.engine().now();
  for (const int local : topology_->networks_of(rank)) {
    net::Network& net = network(local);
    const net::FaultInjector* injector = net.fault_injector();
    if (injector != nullptr &&
        injector->nic_down_within(domain_.nic_of(rank, net).index(), since,
                                  now)) {
      return true;
    }
  }
  return false;
}

void VirtualChannel::quarantine_node(NodeRank rank, sim::Time now) {
  // Snapshot which member pairs can currently talk; if dropping the node
  // would disconnect any of them, keep the sick gateway — degraded service
  // beats a partition.
  std::vector<std::pair<NodeRank, NodeRank>> connected;
  for (const auto& [a, unused_a] : endpoints_) {
    for (const auto& [b, unused_b] : endpoints_) {
      if (a < b && a != rank && b != rank && routing_->reachable(a, b)) {
        connected.emplace_back(a, b);
      }
    }
  }
  routing_->exclude(rank);
  for (const auto& [a, b] : connected) {
    if (!routing_->reachable(a, b)) {
      routing_->readmit(rank);
      domain_.fabric().metrics().add("health.quarantine_vetoed",
                                     "node=" + std::to_string(rank));
      return;
    }
  }
  health_->note_excluded(rank, now);
  domain_.fabric().metrics().add("health.quarantines",
                                 "node=" + std::to_string(rank));
  if (options_.trace != nullptr) {
    options_.trace->instant_here("health.quarantine",
                                 "node=" + std::to_string(rank));
  }
}

void VirtualChannel::readmit_node(NodeRank rank, sim::Time now) {
  routing_->readmit(rank);
  dead_.erase(rank);
  health_->note_readmitted(rank, now);
  domain_.fabric().metrics().add("health.readmissions",
                                 "node=" + std::to_string(rank));
  if (options_.trace != nullptr) {
    options_.trace->instant_here("health.readmit",
                                 "node=" + std::to_string(rank));
  }
}

void VirtualChannel::spawn_health_actor() {
  domain_.engine().spawn(
      name_ + ".health",
      [this] {
        sim::Engine& eng = domain_.engine();
        for (;;) {
          eng.sleep_for(options_.health.check_interval);
          const sim::Time now = eng.now();
          for (const auto& [rank, endpoint] : endpoints_) {
            if (!is_gateway(rank)) {
              continue;
            }
            if (!routing_->excluded(rank)) {
              if (!health_->node_healthy(rank, now)) {
                quarantine_node(rank, now);
              }
            } else if (health_->may_readmit(rank, now) &&
                       !node_crashed(rank)) {
              // Trial readmission: a still-sick node fails fast, gets
              // re-excluded with a grown flap penalty, and is eventually
              // suppressed until the penalty decays — BGP damping.
              readmit_node(rank, now);
            }
          }
          health_->advance(now);
          if (health_->take_costs_dirty()) {
            routing_->refresh_costs();
            domain_.fabric().metrics().add("health.cost_refreshes",
                                           "vc=" + name_);
          }
        }
      },
      /*daemon=*/true);
}

bool VirtualChannel::is_member(NodeRank rank) const {
  return !topology_->networks_of(rank).empty();
}

bool VirtualChannel::is_gateway(NodeRank rank) const {
  return topology_->is_gateway(rank);
}

VcEndpoint& VirtualChannel::endpoint(NodeRank rank) const {
  const auto it = endpoints_.find(rank);
  MAD_ASSERT(it != endpoints_.end(),
             "node " + std::to_string(rank) +
                 " is not a member of virtual channel '" + name_ + "'");
  return *it->second;
}

const GatewayStats& VirtualChannel::gateway_stats(NodeRank rank) const {
  return gateway_stats_[rank];
}

GatewayStats& VirtualChannel::mutable_gateway_stats(NodeRank rank) {
  return gateway_stats_[rank];
}

void VirtualChannel::count_reliability(NodeRank node,
                                       std::uint64_t ReliabilityStats::* field,
                                       const char* name, std::uint64_t n) {
  gateway_stats_[node].reliability.*field += n;
  sim::MetricsRegistry& metrics = domain_.fabric().metrics();
  if (metrics.enabled()) {
    metrics.counter(name, "node=" + std::to_string(node)).add(n);
  }
}

Channel& VirtualChannel::rail_channel(
    const std::vector<std::vector<ChannelId>>& ids, int local_net, int rail,
    NodeRank rank) const {
  MAD_ASSERT(local_net >= 0 && local_net < local_net_count(),
             "bad local network id");
  MAD_ASSERT(rail >= 0 && rail < options_.max_rails, "bad rail index");
  return domain_.endpoint(ids[static_cast<std::size_t>(rail)]
                             [static_cast<std::size_t>(local_net)],
                          rank);
}

net::Network& VirtualChannel::network(int local_net) const {
  MAD_ASSERT(local_net >= 0 && local_net < local_net_count(),
             "bad local network id");
  return *networks_[static_cast<std::size_t>(local_net)];
}

void VirtualChannel::spawn_pollers() {
  sim::Engine& engine = domain_.engine();
  for (const auto& [rank, endpoint] : endpoints_) {
    for (const int local : topology_->networks_of(rank)) {
      // Rail 0 is the regular channel. A stripe channel (rail >= 1) also
      // reads the stripe header, so its park is already matchable by
      // (origin, stripe_id, rail).
      for (int rail = 0; rail < options_.max_rails; ++rail) {
        Channel& channel = rail_regular_channel(local, rail, rank);
        VcEndpoint* ep = endpoint.get();
        const std::string actor_name =
            name_ +
            (rail == 0 ? ".poll." : ".stpoll" + std::to_string(rail) + ".") +
            std::to_string(rank) + "." + network(local).name();
        engine.spawn(
            actor_name,
            [this, &channel, ep, actor_name, rail] {
              sim::Engine& eng = domain_.engine();
              for (;;) {
                channel.wait_incoming();
                MessageReader reader = channel.begin_unpacking();
                Preamble preamble{};
                std::optional<GtmMsgHeader> header;
                GtmStripeHeader stripe{};
                if (options_.reliable.enabled) {
                  // Boundary parse: skips late retransmits and ghost
                  // framing of finished streams; pre-reads the GTM header
                  // of a forwarded message (the ghost filter needs its
                  // epoch).
                  preamble = read_stream_head(reader, channel, ep->rank(),
                                              header,
                                              rail > 0 ? &stripe : nullptr);
                } else {
                  preamble = read_preamble(reader);
                  if (rail > 0 && preamble.forwarded != 0) {
                    header = read_msg_header(reader);
                    stripe = read_stripe_header(reader);
                  }
                }
                if (rail > 0) {
                  MAD_ASSERT(header && (header->flags & kGtmFlagStriped) != 0,
                             "non-striped message on a stripe channel");
                  MAD_ASSERT(stripe.rail == static_cast<std::uint16_t>(rail),
                             "rail delivered on the wrong stripe channel");
                }
                const NodeRank from = reader.source();
                const bool held = options_.reliable.enabled && header &&
                                  (header->flags & kGtmFlagStriped) != 0;
                auto park = std::make_shared<Park>(eng, actor_name + ".done");
                (rail == 0 ? ep->inbox() : ep->stripe_inbox())
                    .send(VcIncoming{std::move(reader), preamble, header,
                                     stripe, &channel, park});
                // Serialize messages per real channel: the next
                // begin_unpacking would otherwise steal packets of the
                // message the application is still consuming. A reliable
                // rail is acked only as it is read, and a reassembler reads
                // a rail only once rail 0 has arrived and only as far as
                // the app unpacks, which may wait on another rail's repair:
                // meanwhile the rail is held, so its sender does not
                // condemn this node for the wait. A hold covers one
                // ack_timeout, the shortest retransmit timer.
                while (!park->done) {
                  if (held && !park->reading) {
                    const Connection& conn = channel.connection_to(from);
                    channel.network().post_hold(
                        conn.rx_tag, channel.tm().nic().index(),
                        conn.peer_nic_index, header->epoch);
                    park->changed.wait_until(eng.now() +
                                             options_.reliable.ack_timeout);
                  } else {
                    park->changed.wait();
                  }
                }
              }
            },
            /*daemon=*/true);
      }
    }
  }
}

void VirtualChannel::spawn_gateways() { spawn_gateway_actors(*this); }

// ------------------------------------------------------------- VcEndpoint

namespace {

/// Claims the first parked arrival `matches` accepts, else receives until
/// one arrives (or `recv` gives up), parking the others for their own
/// claimants.
template <typename T, typename Recv, typename Match>
std::optional<T> claim(std::list<T>& parked, Recv recv, Match matches) {
  for (auto it = parked.begin(); it != parked.end(); ++it) {
    if (matches(*it)) {
      T item = std::move(*it);
      parked.erase(it);
      return item;
    }
  }
  for (;;) {
    std::optional<T> item = recv();
    if (!item || matches(*item)) {
      return item;
    }
    parked.push_back(std::move(*item));
  }
}

bool any_message(const VcIncoming&) { return true; }

std::optional<VcMessageReader> reader_for(VcEndpoint& endpoint,
                                          std::optional<VcIncoming> incoming) {
  if (!incoming) {
    return std::nullopt;
  }
  return VcMessageReader(endpoint, std::move(*incoming));
}

}  // namespace

VcEndpoint::VcEndpoint(VirtualChannel& vc, NodeRank rank)
    : vc_(vc),
      rank_(rank),
      inbox_(vc.domain().engine(), /*capacity=*/0,
             vc.name() + ".inbox." + std::to_string(rank)),
      stripe_inbox_(vc.domain().engine(), /*capacity=*/0,
                    vc.name() + ".stinbox." + std::to_string(rank)) {}

std::optional<VcIncoming> VcEndpoint::collect(NodeRank origin,
                                              const GtmStripeHeader& stripe,
                                              sim::Time deadline) {
  const auto from = static_cast<std::uint32_t>(origin);
  std::optional<VcIncoming> inc =
      stripe.rail == 0
          ? claim(
                pending_, [&] { return inbox_.recv_until(deadline); },
                [&](const VcIncoming& inc) {
                  return inc.preamble.forwarded != 0 &&
                         inc.preamble.origin == from;
                })
          : claim(
                stripe_pending_,
                [&] { return stripe_inbox_.recv_until(deadline); },
                [&](const VcIncoming& inc) {
                  return inc.preamble.origin == from &&
                         inc.stripe.stripe_id == stripe.stripe_id &&
                         inc.stripe.rail == stripe.rail;
                });
  if (inc) {
    if (stripe.rail == 0) {
      read_heads(*inc);
    }
    inc->park->reading = true;
    inc->park->changed.notify_all();
  }
  return inc;
}

VcMessageWriter VcEndpoint::begin_packing(NodeRank dst) {
  return VcMessageWriter(vc_, rank_, dst);
}

VcMessageReader VcEndpoint::begin_unpacking() {
  return VcMessageReader(
      *this,
      *claim(pending_, [&] { return std::optional<VcIncoming>(inbox_.recv()); },
             any_message));
}

std::optional<VcMessageReader> VcEndpoint::try_begin_unpacking() {
  return reader_for(
      *this, claim(pending_, [&] { return inbox_.try_recv(); }, any_message));
}

std::optional<VcMessageReader> VcEndpoint::begin_unpacking_until(
    sim::Time deadline) {
  return reader_for(*this, claim(pending_,
                                 [&] { return inbox_.recv_until(deadline); },
                                 any_message));
}

// -------------------------------------------------------- VcMessageWriter

VcMessageWriter::VcMessageWriter(VirtualChannel& vc, NodeRank src,
                                 NodeRank dst)
    : vc_(&vc), dst_(dst) {
  MAD_ASSERT(vc.is_member(src) && vc.is_member(dst),
             "both ends must be members of the virtual channel");
  // Route by value: a reliable writer elsewhere on this node can call
  // mark_dead (rebuilding the routing table) while this writer blocks in
  // begin_packing — references into the table would dangle.
  const topo::Route route = vc.routing().route(src, dst);
  if (route.size() == 1) {
    // No gateway: regular channel, native format, full optimizations.
    // (Also no reliability: the reliable framing protects forwarded
    // traffic only.)
    Channel& channel = vc.regular_channel(route.front().network, src);
    inner_.emplace(channel.begin_packing(dst));
    write_preamble(*inner_, Preamble{static_cast<std::uint32_t>(src), 0});
    return;
  }
  if (vc.max_rails() > 1) {
    std::vector<RailPlan> plans = plan_rails(vc, src, dst, vc.max_rails());
    if (plans.size() > 1) {
      striper_ = std::make_unique<Striper>(
          vc, src, dst, std::move(plans), vc.endpoint(src).next_stripe_id());
      return;
    }
  }
  // At least one gateway: GTM format with self-description, on the special
  // channel of the first device.
  egress_ = std::make_unique<Egress>(
      vc, src,
      GtmMsgHeader{static_cast<std::uint32_t>(dst),
                   static_cast<std::uint32_t>(src), vc.mtu(), 0,
                   vc.reliable() ? kGtmFlagReliable : std::uint8_t{0},
                   static_cast<std::uint8_t>(vc.options().flow.class_of(src))},
      std::nullopt, /*rail=*/0,
      (static_cast<std::uint64_t>(src) << 40) ^
          (static_cast<std::uint64_t>(dst) << 20));
  egress_->set_route(route);
  egress_->open();
}

VcMessageWriter::VcMessageWriter(VcMessageWriter&&) noexcept = default;
VcMessageWriter::~VcMessageWriter() = default;

void VcMessageWriter::replay(bool finishing) {
  for (const StoredBlock& block : replay_) {
    egress_->block(block.header, block.data);
  }
  if (finishing) {
    egress_->end();
  }
}

void VcMessageWriter::pack(util::ByteSpan data, SendMode smode,
                           RecvMode rmode) {
  MAD_ASSERT(!ended_, "pack after end_packing");
  if (striper_ != nullptr) {
    striper_->pack(data, smode, rmode);
    return;
  }
  if (inner_) {
    inner_->pack(data, smode, rmode);
    return;
  }
  const GtmBlockHeader header = block_header_for(data.size(), smode, rmode);
  if (vc_->reliable()) {
    // Keep the block for replay: a downstream gateway crash can surface
    // any number of blocks later, and the message restarts from scratch on
    // the alternate route. Replays and retransmissions happen only inside
    // pack() and end_packing(), until which a Cheaper buffer stays
    // unchanged. Safer and Later let the caller change it once pack()
    // returns, but every retransmission must carry the bytes its first
    // transmission sealed, so those blocks are snapshotted (the
    // SendMode::Later contract in mad/types.hpp).
    replay_.push_back(
        smode != SendMode::Cheaper
            ? StoredBlock(header,
                          std::vector<std::byte>(data.begin(), data.end()))
            : StoredBlock(header, data));
    data = replay_.back().data;
  }
  // A stale route reroutes proactively here, at the block boundary: the
  // health actor (or a concurrent writer) condemned the next hop, so the
  // writer does not wait for the retry budget to discover it.
  egress_->send([&] { egress_->block(header, data); },
                [&] { replay(/*finishing=*/false); });
}

void VcMessageWriter::end_packing() {
  MAD_ASSERT(!ended_, "end_packing called twice");
  if (striper_ != nullptr) {
    striper_->end_packing();
  } else if (inner_) {
    inner_->end_packing();
  } else {
    egress_->send([&] { egress_->end(); },
                  [&] { replay(/*finishing=*/true); });
    egress_->close();
  }
  ended_ = true;
}

// ----------------------------------------------------------- StreamReader

void expect_message(const VcIncoming& incoming, const GtmMsgHeader& header,
                    const GtmStripeHeader& stripe, const char* what) {
  const GtmMsgHeader& got = *incoming.gtm_header;
  MAD_ASSERT(got.final_dst == header.final_dst && got.origin == header.origin &&
                 got.mtu == header.mtu && got.flags == header.flags &&
                 incoming.stripe.stripe_id == stripe.stripe_id &&
                 incoming.stripe.rails == stripe.rails,
             what);
}

StreamReader::StreamReader(VcEndpoint& endpoint, VcIncoming incoming)
    : endpoint_(&endpoint), incoming_(std::move(incoming)) {}

HopReader& StreamReader::hop() {
  if (hop_ == nullptr) {
    hop_ = std::make_unique<HopReader>(
        endpoint_->vc(), endpoint_->rank(), incoming_->reader,
        *incoming_->channel, *incoming_->gtm_header);
  }
  return *hop_;
}

void StreamReader::block(util::MutByteSpan dst, SendMode smode,
                         RecvMode rmode) {
  for (;;) {
    try {
      hop().block(dst, smode, rmode);
      ++blocks_consumed_;
      return;
    } catch (const PeerDied&) {
      adopt();  // restarts this block on the replayed stream
    }
  }
}

void StreamReader::end() {
  for (;;) {
    try {
      // On a reliable stream the end marker is a paquet too: its ack
      // confirms the whole stream made it across this hop.
      hop().end();
      return;
    } catch (const PeerDied&) {
      adopt();
    }
  }
}

void StreamReader::release() {
  // In paquet mode the reader holds no partial-packet state, so closing an
  // abandoned stream is a no-op at the BMM level.
  incoming_->reader.end_unpacking();
  incoming_->park->done = true;
  incoming_->park->changed.notify_all();
}

void StreamReader::adopt() {
  const GtmMsgHeader abandoned = *incoming_->gtm_header;
  const GtmStripeHeader stripe = incoming_->stripe;
  const auto origin = static_cast<NodeRank>(abandoned.origin);
  const NodeRank self = endpoint_->rank();
  VirtualChannel& vc = endpoint_->vc();
  sim::Engine& engine = vc.domain().engine();
  const sim::Time poll = vc.options().reliable.ack_timeout;
  std::vector<std::byte> skip;
  for (;;) {
    // Abandon the dead gateway's stream (or the replacement's, when its
    // gateway died too), which frees its polling actor to park the
    // replacement when it arrives on this same real channel.
    release();
    incoming_.reset();
    hop_.reset();
    while (!incoming_) {  // recheck reachability each ack_timeout slice
      if (!vc.routing().reachable(origin, self)) {
        MAD_PANIC("node " + std::to_string(self) +
                  " cannot adopt the stream from origin " +
                  std::to_string(origin) +
                  ": origin unreachable, no route survives the failed nodes");
      }
      if (auto replay =
              endpoint_->collect(origin, stripe, engine.now() + poll)) {
        incoming_.emplace(std::move(*replay));
      }
    }
    MAD_ASSERT(incoming_->gtm_header.has_value(),
               "reliable replacement stream arrived without its header");
    expect_message(*incoming_, abandoned, stripe,
                   "replayed message does not match the abandoned stream");
    // The origin replays the whole stream; skip what was already consumed
    // so reading resumes exactly where the old stream broke.
    try {
      for (std::uint64_t b = 0; b < blocks_consumed_; ++b) {
        const GtmBlockHeader h = hop().block_header();
        MAD_ASSERT(h.end_of_message == 0,
                   "replayed message shorter than the consumed prefix");
        skip.resize(h.size);
        hop().fragments(skip);
      }
      return;
    } catch (const PeerDied&) {
      // The replacement's gateway died too: keep waiting.
    }
  }
}

// -------------------------------------------------------- VcMessageReader

VcMessageReader::VcMessageReader(VcEndpoint& endpoint, VcIncoming incoming)
    : endpoint_(&endpoint), stream_(endpoint, std::move(incoming)) {
  if (forwarded()) {
    VcIncoming& in = stream_.incoming();
    read_heads(in);
    const GtmMsgHeader& header = *in.gtm_header;
    MAD_ASSERT(header.final_dst == static_cast<std::uint32_t>(endpoint.rank()),
               "forwarded message delivered to the wrong node");
    MAD_ASSERT(header.origin == in.preamble.origin,
               "preamble/GTM origin mismatch");
    MAD_ASSERT(header.mtu == endpoint.vc().mtu(), "GTM MTU mismatch");
    MAD_ASSERT(((header.flags & kGtmFlagReliable) != 0) ==
                   endpoint.vc().reliable(),
               "reliable-mode mismatch between sender and receiver");
  }
}

VcMessageReader::VcMessageReader(VcMessageReader&&) noexcept = default;
VcMessageReader::~VcMessageReader() = default;

void VcMessageReader::ensure_reassembler() {
  if (reassembler_ == nullptr) {
    reassembler_ = std::make_unique<Reassembler>(*endpoint_, stream_);
  }
}

NodeRank VcMessageReader::source() const {
  return static_cast<NodeRank>(stream_.incoming().preamble.origin);
}

void VcMessageReader::unpack(util::MutByteSpan dst, SendMode smode,
                             RecvMode rmode) {
  MAD_ASSERT(!ended_, "unpack after end_unpacking");
  if (!forwarded()) {
    stream_.incoming().reader.unpack(dst, smode, rmode);
  } else if (striped()) {
    ensure_reassembler();
    reassembler_->unpack(dst, smode, rmode);
  } else {
    stream_.block(dst, smode, rmode);
  }
}

void VcMessageReader::end_unpacking() {
  MAD_ASSERT(!ended_, "end_unpacking called twice");
  if (striped()) {
    // All rails' end markers (a zero-block striped message still built no
    // reassembler yet — build it so rails 1..k-1 get claimed and closed).
    ensure_reassembler();
    reassembler_->end_unpacking();
  } else if (forwarded()) {
    stream_.end();
  }
  ended_ = true;
  stream_.release();
}

}  // namespace mad::fwd
