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
#include "util/log.hpp"
#include "util/panic.hpp"

namespace mad::fwd {

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
  admission.validate();
  MAD_ASSERT(reject_backoff > 0, "flow reject_backoff must be positive");
  MAD_ASSERT(reject_backoff_factor >= 1.0,
             "flow reject_backoff_factor must be >= 1");
  MAD_ASSERT(reject_backoff_cap >= reject_backoff,
             "flow reject_backoff_cap must be >= reject_backoff");
}

sim::Time FlowOptions::reject_delay(int attempts, std::uint64_t seed) const {
  double delay = static_cast<double>(reject_backoff);
  const double cap = static_cast<double>(reject_backoff_cap);
  for (int i = 0; i < attempts && delay < cap; ++i) {
    delay *= reject_backoff_factor;
  }
  delay = std::min(delay, cap);
  util::Rng jitter(seed);
  delay += delay * 0.25 * jitter.next_double();
  return static_cast<sim::Time>(delay);
}

void VcOptions::validate() const {
  MAD_ASSERT(pipeline_depth >= 1, "pipeline depth must be >= 1");
  MAD_ASSERT(max_rails >= 1, "max_rails must be >= 1");
  MAD_ASSERT(rail_credit_chunks >= 1,
             "rail credit window must hold at least one chunk");
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
  buffers_ = util::BufferPool(static_cast<std::size_t>(mtu_) +
                              kGtmTrailerBytes);

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
  for (auto& [nic, tm] : rdma_tms_) {
    tm->invalidate();
  }
}

void VirtualChannel::discard_stale_paquet(Channel& channel, NodeRank peer,
                                          NodeRank self, util::ByteSpan wire) {
  ++mutable_gateway_stats(self).reliability.stale_drops;
  domain_.fabric().metrics().add("rel.stale_drops",
                                 "node=" + std::to_string(self));
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
  util::BufferLease scratch(buffers_, buffers_.capacity());
  for (;;) {
    const std::uint32_t got =
        reader.unpack_paquet(util::MutByteSpan(scratch.buffer()));
    const util::ByteSpan wire(scratch.data(), got);
    if (got == element.size()) {
      // The element size can collide with a small data paquet's wire size;
      // only a valid checksum identifies the imposter.
      if (!verified_trailer(wire)) {
        std::memcpy(element.data(), scratch.data(), element.size());
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
  util::BufferLease scratch(buffers_, buffers_.capacity());
  std::optional<Preamble> preamble;
  const auto count_ghost = [&](util::ByteSpan wire) {
    discard_stale_paquet(channel, peer, self, wire);
  };
  for (;;) {
    const std::uint32_t got =
        reader.unpack_paquet(util::MutByteSpan(scratch.buffer()));
    const util::ByteSpan wire(scratch.data(), got);
    if (verified_trailer(wire)) {
      // A late data paquet, never a framing element (framing carries no
      // trailer). Re-acked inside when its epoch already completed.
      discard_stale_paquet(channel, peer, self, wire);
      continue;
    }
    if (got == static_cast<std::uint32_t>(sizeof(Preamble))) {
      if (preamble) {
        // Two preambles in a row: the first was ghost framing whose header
        // a fault window ate. Charge it as stale and adopt the new one.
        count_ghost(util::object_bytes(*preamble));
      }
      Preamble p;
      std::memcpy(&p, scratch.data(), sizeof(Preamble));
      preamble = p;
      if (p.forwarded == 0) {
        return p;  // native stream: no GTM header follows
      }
      continue;
    }
    if (got == static_cast<std::uint32_t>(sizeof(GtmMsgHeader)) && preamble &&
        !header) {
      GtmMsgHeader h;
      std::memcpy(&h, scratch.data(), sizeof(GtmMsgHeader));
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

void VirtualChannel::spawn_tail_acker(Channel& channel, NodeRank peer,
                                      std::uint32_t epoch,
                                      std::uint32_t last_seq) {
  const Connection& conn = channel.connection_to(peer);
  net::Network& network = channel.network();
  const std::uint64_t tag = conn.rx_tag;
  const int self_nic = channel.tm().nic().index();
  const int peer_nic = conn.peer_nic_index;
  const sim::Time interval = options_.reliable.ack_timeout;
  const int reposts = options_.reliable.max_attempts;
  domain_.engine().spawn(
      name_ + ".tailack." + std::to_string(peer),
      [this, &network, tag, self_nic, peer_nic, epoch, last_seq, interval,
       reposts] {
        sim::Engine& eng = domain_.engine();
        // One repost surviving suppression is enough (the ack board
        // retains it and wakes the sender), so max_attempts reposts spaced
        // ack_timeout apart outlast any transient fault window the sender
        // itself is expected to ride out.
        for (int i = 0; i < reposts; ++i) {
          eng.sleep_for(interval);
          network.post_ack(tag, self_nic, peer_nic, epoch, last_seq);
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
    const auto it = rdma_tms_.find(&domain_.nic_of(rank, *network));
    if (it != rdma_tms_.end()) {
      it->second->invalidate();
    }
  }
}

void VirtualChannel::declare_dead(NodeRank reporter, NodeRank peer) {
  ReliabilityStats& stats = mutable_gateway_stats(reporter).reliability;
  mark_dead(peer);
  ++stats.peers_declared_dead;
  domain_.fabric().metrics().add("rel.dead_peers",
                                 "node=" + std::to_string(reporter));
  if (options_.trace != nullptr) {
    options_.trace->instant_here("rel.dead",
                                 "peer=" + std::to_string(peer));
  }
}

void VirtualChannel::note_failover(NodeRank reporter, NodeRank dst,
                                   NodeRank around) {
  ++mutable_gateway_stats(reporter).reliability.failovers;
  domain_.fabric().metrics().add("rel.failovers",
                                 "node=" + std::to_string(reporter));
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
  auto it = rdma_tms_.find(&nic);
  if (it == rdma_tms_.end()) {
    it = rdma_tms_
             .emplace(&nic, std::make_unique<RdmaTm>(
                                domain_.engine(), nic, options_.rdma,
                                name_ + ".rdma." + nic.network().name() +
                                    ".nic" + std::to_string(nic.index())))
             .first;
  }
  return it->second.get();
}

RdmaTotals VirtualChannel::rdma_totals() const {
  RdmaTotals totals;
  for (const auto& [nic, tm] : rdma_tms_) {
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
      Channel& channel = regular_channel(local, rank);
      VcEndpoint* ep = endpoint.get();
      const std::string actor_name = name_ + ".poll." + std::to_string(rank) +
                                     "." + network(local).name();
      engine.spawn(
          actor_name,
          [this, &channel, ep, actor_name] {
            sim::Engine& eng = domain_.engine();
            for (;;) {
              channel.wait_incoming();
              MessageReader reader = channel.begin_unpacking();
              Preamble preamble{};
              std::optional<GtmMsgHeader> header;
              if (options_.reliable.enabled) {
                // Boundary parse: skips late retransmits and ghost framing
                // of finished streams; pre-reads the GTM header of a
                // forwarded message (the ghost filter needs its epoch).
                preamble =
                    read_stream_head(reader, channel, ep->rank(), header);
              } else {
                preamble = read_preamble(reader);
              }
              auto done =
                  std::make_shared<sim::Condition>(eng, actor_name + ".done");
              ep->inbox().send(VcIncoming{std::move(reader), preamble,
                                          header, &channel, done});
              // Serialize messages per real channel: the next
              // begin_unpacking would otherwise steal packets of the
              // message the application is still consuming.
              done->wait();
            }
          },
          /*daemon=*/true);
      // Stripe-channel pollers (rails >= 1): read all three bootstrap
      // headers so the park is already matchable by (origin, stripe_id,
      // rail), then serialize per channel exactly like the regular poller.
      for (int rail = 1; rail < options_.max_rails; ++rail) {
        Channel& stripe_channel = rail_regular_channel(local, rail, rank);
        const std::string stripe_name = name_ + ".stpoll" +
                                        std::to_string(rail) + "." +
                                        std::to_string(rank) + "." +
                                        network(local).name();
        engine.spawn(
            stripe_name,
            [this, &stripe_channel, ep, stripe_name, rail] {
              sim::Engine& eng = domain_.engine();
              for (;;) {
                stripe_channel.wait_incoming();
                MessageReader reader = stripe_channel.begin_unpacking();
                Preamble preamble{};
                GtmMsgHeader header{};
                GtmStripeHeader stripe{};
                if (options_.reliable.enabled) {
                  std::optional<GtmMsgHeader> h;
                  preamble = read_stream_head(reader, stripe_channel,
                                              ep->rank(), h, &stripe);
                  MAD_ASSERT(h.has_value(),
                             "native message on a stripe channel");
                  header = *h;
                } else {
                  preamble = read_preamble(reader);
                  MAD_ASSERT(preamble.forwarded != 0,
                             "native message on a stripe channel");
                  header = read_msg_header(reader);
                  stripe = read_stripe_header(reader);
                }
                MAD_ASSERT((header.flags & kGtmFlagStriped) != 0,
                           "non-striped message on a stripe channel");
                MAD_ASSERT(stripe.rail == static_cast<std::uint16_t>(rail),
                           "rail delivered on the wrong stripe channel");
                auto done = std::make_shared<sim::Condition>(
                    eng, stripe_name + ".done");
                ep->stripe_inbox().send(StripeIncoming{
                    std::move(reader), preamble, header, stripe,
                    &stripe_channel, done});
                done->wait();
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

StripeIncoming VcEndpoint::collect_rail(std::uint32_t origin,
                                        std::uint32_t stripe_id,
                                        std::uint16_t rail) {
  return *claim(
      stripe_pending_,
      [&] { return std::optional<StripeIncoming>(stripe_inbox_.recv()); },
      [&](const StripeIncoming& inc) {
        return inc.preamble.origin == origin &&
               inc.stripe.stripe_id == stripe_id && inc.stripe.rail == rail;
      });
}

std::optional<VcIncoming> VcEndpoint::collect_replacement(
    NodeRank origin, sim::Time deadline) {
  return claim(
      pending_, [&] { return inbox_.recv_until(deadline); },
      [&](const VcIncoming& inc) {
        return inc.preamble.forwarded != 0 &&
               inc.preamble.origin == static_cast<std::uint32_t>(origin);
      });
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
    // the alternate route. Replays happen only inside pack() and
    // end_packing(), until which Cheaper and Later leave the caller's
    // buffer unchanged; Safer lets the caller reuse it once pack()
    // returns, so only Safer blocks are snapshotted.
    replay_.push_back(
        smode == SendMode::Safer
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

// -------------------------------------------------------- VcMessageReader

VcMessageReader::VcMessageReader(VcEndpoint& endpoint, VcIncoming incoming)
    : incoming_(std::move(incoming)),
      vc_(&endpoint.vc()),
      endpoint_(&endpoint),
      self_(endpoint.rank()) {
  if (forwarded()) {
    // In reliable mode the polling actor already pulled the header off the
    // stream (its epoch drives the ghost filter); re-reading it here would
    // desynchronize the stream.
    gtm_header_ = incoming_->gtm_header ? *incoming_->gtm_header
                                        : read_msg_header(incoming_->reader);
    MAD_ASSERT(gtm_header_.final_dst ==
                   static_cast<std::uint32_t>(endpoint.rank()),
               "forwarded message delivered to the wrong node");
    MAD_ASSERT(gtm_header_.origin == incoming_->preamble.origin,
               "preamble/GTM origin mismatch");
    MAD_ASSERT(gtm_header_.mtu == vc_->mtu(), "GTM MTU mismatch");
    MAD_ASSERT(((gtm_header_.flags & kGtmFlagReliable) != 0) ==
                   vc_->reliable(),
               "reliable-mode mismatch between sender and receiver");
    if (striped()) {
      stripe_ = read_stripe_header(incoming_->reader);
      MAD_ASSERT(stripe_.rail == 0,
                 "rail 0 must arrive on the regular channel");
    }
  }
}

VcMessageReader::VcMessageReader(VcMessageReader&&) noexcept = default;
VcMessageReader::~VcMessageReader() = default;

void VcMessageReader::ensure_reassembler() {
  if (reassembler_ == nullptr) {
    reassembler_ = std::make_unique<Reassembler>(*endpoint_, *incoming_,
                                                 gtm_header_, stripe_);
  }
}

HopReader& VcMessageReader::hop() {
  if (hop_ == nullptr) {
    // window = 1 keeps the PR-1 blocking receive (no liveness polling);
    // only the windowed protocol streams partial messages through
    // gateways, so only it can strand a reader on a dead upstream hop.
    hop_ = std::make_unique<HopReader>(
        *vc_, self_, incoming_->reader, *incoming_->channel, gtm_header_,
        /*detect_dead=*/vc_->options().reliable.window > 1);
  }
  return *hop_;
}

void VcMessageReader::adopt() {
  const NodeRank origin = source();
  sim::Engine& engine = vc_->domain().engine();
  const sim::Time poll = vc_->options().reliable.ack_timeout;
  std::vector<std::byte> skip;
  for (;;) {
    // Abandon the dead gateway's stream (or the replacement's, when its
    // gateway died too): in paquet mode the reader holds no partial-packet
    // state, so closing it is a no-op at the BMM level, and releasing
    // `done` lets the polling actor pick up the replacement message on
    // this same real channel.
    incoming_->reader.end_unpacking();
    incoming_->done->notify_all();
    incoming_.reset();
    hop_.reset();
    while (!incoming_) {  // recheck reachability each ack_timeout slice
      if (!vc_->routing().reachable(origin, self_)) {
        MAD_PANIC("node " + std::to_string(self_) +
                  " cannot adopt the stream from origin " +
                  std::to_string(origin) +
                  ": origin unreachable, no route survives the failed nodes");
      }
      if (auto replacement =
              endpoint_->collect_replacement(origin, engine.now() + poll)) {
        incoming_.emplace(std::move(*replacement));
      }
    }
    MAD_ASSERT(incoming_->gtm_header.has_value(),
               "reliable replacement stream arrived without its header");
    const GtmMsgHeader header = *incoming_->gtm_header;
    MAD_ASSERT(header.final_dst == gtm_header_.final_dst &&
                   header.origin == gtm_header_.origin &&
                   header.mtu == gtm_header_.mtu &&
                   header.flags == gtm_header_.flags,
               "replayed message does not match the abandoned stream");
    gtm_header_ = header;  // fresh epoch
    // The origin replays the whole message; skip what was already
    // consumed so unpack resumes exactly where the old stream broke.
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

NodeRank VcMessageReader::source() const {
  return static_cast<NodeRank>(incoming_->preamble.origin);
}

void VcMessageReader::unpack(util::MutByteSpan dst, SendMode smode,
                             RecvMode rmode) {
  MAD_ASSERT(!ended_, "unpack after end_unpacking");
  if (!forwarded()) {
    incoming_->reader.unpack(dst, smode, rmode);
    return;
  }
  if (striped()) {
    ensure_reassembler();
    reassembler_->unpack(dst, smode, rmode);
    return;
  }
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

void VcMessageReader::end_unpacking() {
  MAD_ASSERT(!ended_, "end_unpacking called twice");
  if (striped()) {
    // All rails' end markers (a zero-block striped message still built no
    // reassembler yet — build it so rails 1..k-1 get claimed and closed).
    ensure_reassembler();
    reassembler_->end_unpacking();
  } else {
    while (forwarded()) {
      try {
        // On a reliable stream the end marker is a paquet too: its ack
        // confirms the whole message made it across this hop.
        hop().end();
        break;
      } catch (const PeerDied&) {
        adopt();
      }
    }
  }
  incoming_->reader.end_unpacking();
  ended_ = true;
  incoming_->done->notify_all();
}

}  // namespace mad::fwd
