#include "fwd/virtual_channel.hpp"

#include <algorithm>
#include <cstring>

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

  // Two real channels per device per virtual channel (paper Fig 3).
  for (int local = 0; local < local_net_count(); ++local) {
    net::Network& network = *networks_[static_cast<std::size_t>(local)];
    regular_ids_.push_back(
        domain_.create_channel(name_ + ".reg." + network.name(), network));
    special_ids_.push_back(
        domain_.create_channel(name_ + ".fwd." + network.name(), network));
  }
  // Each extra rail gets its own regular/special pair per device, so
  // striped rails never contend for a connection tx lock or interleave on
  // a relay actor with rail 0 (or each other).
  for (int rail = 1; rail < options_.max_rails; ++rail) {
    std::vector<ChannelId> reg;
    std::vector<ChannelId> spec;
    const std::string prefix = name_ + ".st" + std::to_string(rail);
    for (int local = 0; local < local_net_count(); ++local) {
      net::Network& network = *networks_[static_cast<std::size_t>(local)];
      reg.push_back(
          domain_.create_channel(prefix + ".reg." + network.name(), network));
      spec.push_back(
          domain_.create_channel(prefix + ".fwd." + network.name(), network));
    }
    stripe_regular_ids_.push_back(std::move(reg));
    stripe_special_ids_.push_back(std::move(spec));
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

namespace {

/// True when `wire` parses as a checksum-valid reliable paquet — used to
/// tell a re-sent framing element from a stray data paquet of equal size,
/// and a re-ackable late retransmit from line noise.
bool checksum_valid_paquet(util::ByteSpan wire, GtmPaquetTrailer* trailer) {
  if (wire.size() < kGtmTrailerBytes) {
    return false;
  }
  std::memcpy(trailer, wire.data() + wire.size() - kGtmTrailerBytes,
              kGtmTrailerBytes);
  return trailer->checksum ==
         gtm_paquet_checksum(
             util::ByteSpan(wire.data(), wire.size() - kGtmTrailerBytes),
             trailer->seq, trailer->epoch);
}

}  // namespace

void VirtualChannel::discard_stale_paquet(Channel& channel, NodeRank peer,
                                          NodeRank self, util::ByteSpan wire) {
  ++mutable_gateway_stats(self).reliability.stale_drops;
  domain_.fabric().metrics().add("rel.stale_drops",
                                 "node=" + std::to_string(self));
  GtmPaquetTrailer trailer;
  if (!checksum_valid_paquet(wire, &trailer)) {
    return;  // duplicated framing or noise: nothing to acknowledge
  }
  // A valid paquet of an epoch this endpoint finished is a late retransmit
  // whose final ack was lost: re-ack it, or the sender burns its retry
  // budget and replays an already-delivered message. Later epochs stay
  // unacked — their framing was lost, and the sender's paquet-0 prologue
  // retransmission (ReliableSender::set_framing) re-frames the stream.
  const Connection& conn = channel.connection_to(peer);
  if (trailer.epoch <= conn.rx_epoch_done) {
    channel.network().post_ack(conn.rx_tag, channel.tm().nic().index(),
                               conn.peer_nic_index, trailer.epoch,
                               trailer.seq);
  }
}

void VirtualChannel::drain_stale_paquets(MessageReader& reader,
                                         Channel& channel, NodeRank self) {
  // MTU-sized scratch comes from the channel arena: these tolerant-read
  // paths run once per message, and per-call malloc of ~MTU buffers was a
  // measurable slice of gateway receive cost.
  util::BufferLease scratch(scratch_arena_, mtu_ + kGtmTrailerBytes);
  while (reader.peek_paquet_size() !=
         static_cast<std::uint32_t>(sizeof(Preamble))) {
    const std::uint32_t got =
        reader.unpack_paquet(util::MutByteSpan(scratch.buffer()));
    discard_stale_paquet(channel, reader.source(), self,
                         util::ByteSpan(scratch.data(), got));
  }
}

void VirtualChannel::read_framing_tolerant(MessageReader& reader,
                                           Channel& channel, NodeRank self,
                                           util::MutByteSpan element) {
  util::BufferLease scratch(scratch_arena_,
                            static_cast<std::size_t>(mtu_) +
                                kGtmTrailerBytes);
  for (;;) {
    const std::uint32_t got =
        reader.unpack_paquet(util::MutByteSpan(scratch.buffer()));
    const util::ByteSpan wire(scratch.data(), got);
    if (got == element.size()) {
      // The element size can collide with a small data paquet's wire size;
      // only a valid checksum identifies the imposter.
      GtmPaquetTrailer trailer;
      if (!checksum_valid_paquet(wire, &trailer)) {
        std::memcpy(element.data(), scratch.data(), element.size());
        return;
      }
    }
    discard_stale_paquet(channel, reader.source(), self, wire);
  }
}

GtmMsgHeader VirtualChannel::read_msg_header_tolerant(MessageReader& reader,
                                                      Channel& channel,
                                                      NodeRank self) {
  GtmMsgHeader header{};
  read_framing_tolerant(reader, channel, self, util::object_bytes_mut(header));
  return header;
}

GtmStripeHeader VirtualChannel::read_stripe_header_tolerant(
    MessageReader& reader, Channel& channel, NodeRank self) {
  GtmStripeHeader header{};
  read_framing_tolerant(reader, channel, self, util::object_bytes_mut(header));
  MAD_ASSERT(header.rails > 0 && header.rail < header.rails,
             "bad rail index on the wire");
  MAD_ASSERT(header.share > 0, "zero stripe share on the wire");
  return header;
}

Preamble VirtualChannel::read_stream_head(MessageReader& reader,
                                          Channel& channel, NodeRank self,
                                          std::optional<GtmMsgHeader>& header,
                                          GtmStripeHeader* stripe) {
  header.reset();
  const NodeRank peer = reader.source();
  util::BufferLease scratch(scratch_arena_,
                            static_cast<std::size_t>(mtu_) +
                                kGtmTrailerBytes);
  std::optional<Preamble> preamble;
  const auto count_ghost = [&](util::ByteSpan wire) {
    discard_stale_paquet(channel, peer, self, wire);
  };
  for (;;) {
    const std::uint32_t got =
        reader.unpack_paquet(util::MutByteSpan(scratch.buffer()));
    const util::ByteSpan wire(scratch.data(), got);
    GtmPaquetTrailer trailer;
    if (checksum_valid_paquet(wire, &trailer)) {
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
      if (stripe == nullptr) {
        return *preamble;
      }
      *stripe = read_stripe_header_tolerant(reader, channel, self);
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
  const sim::Time now = domain_.engine().now();
  for (const int local : topology_->networks_of(rank)) {
    net::Network& net = network(local);
    const net::FaultInjector* injector = net.fault_injector();
    if (injector != nullptr &&
        injector->nic_down(domain_.nic_of(rank, net).index(), now)) {
      return true;
    }
  }
  return false;
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

Channel& VirtualChannel::regular_channel(int local_net, NodeRank rank) const {
  MAD_ASSERT(local_net >= 0 && local_net < local_net_count(),
             "bad local network id");
  return domain_.endpoint(regular_ids_[static_cast<std::size_t>(local_net)],
                          rank);
}

Channel& VirtualChannel::special_channel(int local_net, NodeRank rank) const {
  MAD_ASSERT(local_net >= 0 && local_net < local_net_count(),
             "bad local network id");
  return domain_.endpoint(special_ids_[static_cast<std::size_t>(local_net)],
                          rank);
}

Channel& VirtualChannel::rail_regular_channel(int local_net, int rail,
                                              NodeRank rank) const {
  if (rail == 0) {
    return regular_channel(local_net, rank);
  }
  MAD_ASSERT(local_net >= 0 && local_net < local_net_count(),
             "bad local network id");
  MAD_ASSERT(rail > 0 && rail < options_.max_rails, "bad rail index");
  return domain_.endpoint(
      stripe_regular_ids_[static_cast<std::size_t>(rail - 1)]
                         [static_cast<std::size_t>(local_net)],
      rank);
}

Channel& VirtualChannel::rail_special_channel(int local_net, int rail,
                                              NodeRank rank) const {
  if (rail == 0) {
    return special_channel(local_net, rank);
  }
  MAD_ASSERT(local_net >= 0 && local_net < local_net_count(),
             "bad local network id");
  MAD_ASSERT(rail > 0 && rail < options_.max_rails, "bad rail index");
  return domain_.endpoint(
      stripe_special_ids_[static_cast<std::size_t>(rail - 1)]
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
  const auto matches = [&](const StripeIncoming& inc) {
    return inc.preamble.origin == origin && inc.stripe.stripe_id == stripe_id &&
           inc.stripe.rail == rail;
  };
  for (auto it = stripe_pending_.begin(); it != stripe_pending_.end(); ++it) {
    if (matches(*it)) {
      StripeIncoming inc = std::move(*it);
      stripe_pending_.erase(it);
      return inc;
    }
  }
  for (;;) {
    StripeIncoming inc = stripe_inbox_.recv();
    if (matches(inc)) {
      return inc;
    }
    stripe_pending_.push_back(std::move(inc));
  }
}

std::optional<VcIncoming> VcEndpoint::collect_replacement(
    NodeRank origin, sim::Time deadline) {
  const auto matches = [&](const VcIncoming& inc) {
    return inc.preamble.forwarded != 0 &&
           inc.preamble.origin == static_cast<std::uint32_t>(origin);
  };
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (matches(*it)) {
      VcIncoming inc = std::move(*it);
      pending_.erase(it);
      return inc;
    }
  }
  for (;;) {
    auto inc = inbox_.recv_until(deadline);
    if (!inc) {
      return std::nullopt;
    }
    if (matches(*inc)) {
      return std::move(*inc);
    }
    pending_.push_back(std::move(*inc));
  }
}

VcMessageWriter VcEndpoint::begin_packing(NodeRank dst) {
  return VcMessageWriter(vc_, rank_, dst);
}

VcMessageReader VcEndpoint::begin_unpacking() {
  if (!pending_.empty()) {
    VcIncoming inc = std::move(pending_.front());
    pending_.pop_front();
    return VcMessageReader(*this, std::move(inc));
  }
  return VcMessageReader(*this, inbox_.recv());
}

std::optional<VcMessageReader> VcEndpoint::try_begin_unpacking() {
  if (!pending_.empty()) {
    VcIncoming inc = std::move(pending_.front());
    pending_.pop_front();
    return VcMessageReader(*this, std::move(inc));
  }
  auto incoming = inbox_.try_recv();
  if (!incoming) {
    return std::nullopt;
  }
  return VcMessageReader(*this, std::move(*incoming));
}

std::optional<VcMessageReader> VcEndpoint::begin_unpacking_until(
    sim::Time deadline) {
  if (!pending_.empty()) {
    VcIncoming inc = std::move(pending_.front());
    pending_.pop_front();
    return VcMessageReader(*this, std::move(inc));
  }
  auto incoming = inbox_.recv_until(deadline);
  if (!incoming) {
    return std::nullopt;
  }
  return VcMessageReader(*this, std::move(*incoming));
}

// -------------------------------------------------------- VcMessageWriter

VcMessageWriter::VcMessageWriter(VirtualChannel& vc, NodeRank src,
                                 NodeRank dst)
    : vc_(&vc), src_(src), dst_(dst), mtu_(vc.mtu()) {
  MAD_ASSERT(vc.is_member(src) && vc.is_member(dst),
             "both ends must be members of the virtual channel");
  // Route by value: a reliable writer elsewhere on this node can call
  // mark_dead (rebuilding the routing table) while this writer blocks in
  // begin_packing — references into the table would dangle.
  const topo::Route route = vc.routing().route(src, dst);
  const topo::Hop first = route.front();
  direct_ = route.size() == 1;
  if (!direct_ && vc.max_rails() > 1) {
    std::vector<RailPlan> plans = plan_rails(vc, src, dst, vc.max_rails());
    if (plans.size() > 1) {
      striper_ = std::make_unique<Striper>(
          vc, src, dst, std::move(plans), vc.endpoint(src).next_stripe_id());
      return;
    }
  }
  if (direct_) {
    // No gateway: regular channel, native format, full optimizations.
    // (Also no reliability: the reliable framing protects forwarded
    // traffic only.)
    Channel& channel = vc.regular_channel(first.network, src);
    inner_.emplace(channel.begin_packing(dst));
    write_preamble(*inner_, Preamble{static_cast<std::uint32_t>(src), 0});
  } else if (vc.reliable()) {
    open_reliable_hop();
  } else {
    // At least one gateway: special channel of the first device, GTM
    // format with self-description.
    Channel& channel = vc.special_channel(first.network, src);
    inner_.emplace(channel.begin_packing(first.node));
    write_preamble(*inner_, Preamble{static_cast<std::uint32_t>(src), 1});
    write_msg_header(
        *inner_,
        GtmMsgHeader{static_cast<std::uint32_t>(dst),
                     static_cast<std::uint32_t>(src), mtu_, 0, 0,
                     static_cast<std::uint8_t>(
                         vc.options().flow.class_of(src))});
  }
}

void VcMessageWriter::open_reliable_hop() {
  // Single-rail path only: a striped writer delegates to its Striper (each
  // rail opens hops on its own rail channels), so using the primary route
  // here is correct even when disjoint_routes() would return more.
  MAD_ASSERT(striper_ == nullptr, "striped writer on the single-rail path");
  // Route by value: recover() may trigger a concurrent rebuild.
  const topo::Hop first = vc_->routing().route(src_, dst_).front();
  next_hop_ = first.node;
  route_epoch_ = vc_->routing().epoch();
  out_channel_ = &vc_->special_channel(first.network, src_);
  epoch_ = ++out_channel_->connection_to(next_hop_).tx_epoch;
  seq_ = 0;
  sender_.reset();
  inner_.emplace(out_channel_->begin_packing(next_hop_));
  write_preamble(*inner_, Preamble{static_cast<std::uint32_t>(src_), 1});
  write_msg_header(*inner_,
                   GtmMsgHeader{static_cast<std::uint32_t>(dst_),
                                static_cast<std::uint32_t>(src_), mtu_,
                                epoch_, kGtmFlagReliable,
                                static_cast<std::uint8_t>(
                                    vc_->options().flow.class_of(src_))});
}

ReliableSender& VcMessageWriter::sender() {
  if (sender_ == nullptr) {
    sender_ = std::make_unique<ReliableSender>(*vc_, src_, *inner_,
                                               *out_channel_, next_hop_,
                                               epoch_);
    // Mirror of what open_reliable_hop wrote, re-sent with every paquet-0
    // retransmission in case a fault window ate the original framing.
    sender_->set_framing(
        Preamble{static_cast<std::uint32_t>(src_), 1},
        GtmMsgHeader{static_cast<std::uint32_t>(dst_),
                     static_cast<std::uint32_t>(src_), mtu_, epoch_,
                     kGtmFlagReliable,
                     static_cast<std::uint8_t>(
                         vc_->options().flow.class_of(src_))},
        std::nullopt);
  }
  return *sender_;
}

void VcMessageWriter::emit_block(const ReplayBlock& block) {
  const util::ByteSpan data(block.data);
  ReliableSender& snd = sender();
  snd.send_block_header(seq_++,
                        block_header_for(data.size(), block.smode,
                                         block.rmode));
  const std::uint64_t fragments = fragment_count(data.size(), mtu_);
  for (std::uint64_t i = 0; i < fragments; ++i) {
    const std::uint32_t fsize = fragment_size(data.size(), mtu_, i);
    snd.send(seq_++, data.subspan(i * mtu_, fsize));
  }
}

void VcMessageWriter::emit_end() {
  ReliableSender& snd = sender();
  snd.send_block_header(seq_, end_marker());
  // The whole window must drain before end_packing: the end marker's ack
  // confirms the message crossed this hop (and a dead hop surfaces here as
  // HopFailure, not as a silent loss).
  snd.flush();
}

bool VcMessageWriter::stale_dead_route() const {
  // The epoch check alone is not enough (any unrelated exclude bumps it);
  // the hop check alone is not enough either (is_dead() consults state a
  // concurrent rebuild replaces). Together they mean: the table moved AND
  // our stream's peer is gone — replaying through it can only time out.
  return route_epoch_ != vc_->routing().epoch() && vc_->is_dead(next_hop_);
}

void VcMessageWriter::recover(const HopFailure* failure, bool rejected,
                              bool finishing) {
  // A value plus a flag, not std::optional: GCC cannot prove the optional
  // engaged where the panic message reads it (-Wmaybe-uninitialized).
  HopFailure failed = failure != nullptr ? *failure : HopFailure{};
  bool hop_failed = failure != nullptr;
  for (;;) {
    sim::MetricsRegistry& metrics = vc_->domain().fabric().metrics();
    const std::string node_label = "node=" + std::to_string(src_);
    if (hop_failed) {
      vc_->declare_dead(src_, failed.next_hop);
    }
    // Drop the window first — its in-flight paquets die with the hop and
    // must not outlive the MessageWriter they reference. Express flushing
    // leaves nothing buffered, so closing the dead-hop message is
    // non-blocking and releases the connection's tx lock.
    sender_.reset();
    inner_->end_packing();
    inner_.reset();
    if (!vc_->routing().reachable(src_, dst_)) {
      const std::string why =
          hop_failed ? "gateway " + std::to_string(failed.next_hop) +
                           " declared dead after " +
                           std::to_string(failed.attempts) + " attempts"
                     : "its route was invalidated under it";
      MAD_PANIC("node " + std::to_string(dst_) + " unreachable from " +
                std::to_string(src_) + ": " + why +
                " and no alternate route exists");
    }
    if (hop_failed) {
      vc_->note_failover(src_, dst_, failed.next_hop);
    } else if (rejected) {
      // Admission rejection: the hop is healthy, the gateway is
      // overloaded. Nothing is condemned — back off (exponentially in the
      // consecutive-reject count, with deterministic jitter so lockstep
      // rejectees desynchronize) and replay on a fresh epoch. The tx lock
      // was released above, so the sleep blocks no other writer.
      const sim::Time delay = vc_->options().flow.reject_delay(
          reject_attempts_, (static_cast<std::uint64_t>(src_) << 40) ^
                                (static_cast<std::uint64_t>(dst_) << 20) ^
                                static_cast<std::uint64_t>(reject_attempts_));
      ++reject_attempts_;
      metrics.add("flow.reject_retries", node_label);
      if (vc_->options().trace != nullptr) {
        vc_->options().trace->instant_here(
            "flow.rejected", "dst=" + std::to_string(dst_) + " attempt=" +
                                 std::to_string(reject_attempts_));
      }
      vc_->domain().engine().sleep_for(delay);
    } else {
      metrics.add("health.reroutes", node_label);
      if (vc_->options().trace != nullptr) {
        vc_->options().trace->instant_here(
            "health.reroute", "dst=" + std::to_string(dst_) + " from=" +
                                  std::to_string(next_hop_));
      }
    }
    open_reliable_hop();
    try {
      for (const ReplayBlock& block : replay_) {
        emit_block(block);
      }
      if (finishing) {
        emit_end();
      }
      return;
    } catch (const HopFailure& again) {
      failed = again;
      hop_failed = true;
      rejected = false;
    } catch (const FlowRejected&) {
      hop_failed = false;
      rejected = true;
    }
  }
}

VcMessageWriter::VcMessageWriter(VcMessageWriter&&) noexcept = default;
VcMessageWriter::~VcMessageWriter() = default;

void VcMessageWriter::pack(util::ByteSpan data, SendMode smode,
                           RecvMode rmode) {
  MAD_ASSERT(!ended_, "pack after end_packing");
  if (striper_ != nullptr) {
    striper_->pack(data, smode, rmode);
    return;
  }
  if (direct_) {
    inner_->pack(data, smode, rmode);
    return;
  }
  if (vc_->reliable()) {
    // Keep a copy for replay: a downstream gateway crash can surface any
    // number of blocks later, and the message restarts from scratch on
    // the alternate route.
    replay_.push_back(ReplayBlock{
        std::vector<std::byte>(data.begin(), data.end()), smode, rmode});
    try {
      if (stale_dead_route()) {
        // Proactive reroute at the block boundary: the health actor (or a
        // concurrent writer) invalidated our route and the next hop is
        // dead — don't wait for the retry budget to discover it.
        recover(nullptr, /*rejected=*/false, /*finishing=*/false);
      } else {
        emit_block(replay_.back());
      }
    } catch (const HopFailure& failure) {
      recover(&failure, /*rejected=*/false, /*finishing=*/false);
    } catch (const FlowRejected&) {
      recover(nullptr, /*rejected=*/true, /*finishing=*/false);
    }
    return;
  }
  // GTM: block header, then MTU-sized fragments. Express flushing makes
  // every fragment its own packet on every BMM shape, so the paquets the
  // gateway sees are exactly the paquets the final receiver expects.
  write_block_header(*inner_, block_header_for(data.size(), smode, rmode));
  const std::uint64_t fragments = fragment_count(data.size(), mtu_);
  for (std::uint64_t i = 0; i < fragments; ++i) {
    const std::uint32_t fsize = fragment_size(data.size(), mtu_, i);
    inner_->pack(data.subspan(i * mtu_, fsize), SendMode::Cheaper,
                 RecvMode::Express);
  }
}

void VcMessageWriter::end_packing() {
  MAD_ASSERT(!ended_, "end_packing called twice");
  if (striper_ != nullptr) {
    striper_->end_packing();
    ended_ = true;
    return;
  }
  if (!direct_) {
    if (vc_->reliable()) {
      try {
        if (stale_dead_route()) {
          recover(nullptr, /*rejected=*/false, /*finishing=*/true);
        } else {
          emit_end();
        }
      } catch (const HopFailure& failure) {
        recover(&failure, /*rejected=*/false, /*finishing=*/true);
      } catch (const FlowRejected&) {
        recover(nullptr, /*rejected=*/true, /*finishing=*/true);
      }
    } else {
      write_block_header(*inner_, end_marker());
    }
  }
  inner_->end_packing();
  ended_ = true;
}

// -------------------------------------------------------- VcMessageReader

VcMessageReader::VcMessageReader(VcEndpoint& endpoint, VcIncoming incoming)
    : incoming_(std::move(incoming)),
      vc_(&endpoint.vc()),
      endpoint_(&endpoint),
      self_(endpoint.rank()),
      mtu_(endpoint.vc().mtu()) {
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
    MAD_ASSERT(gtm_header_.mtu == mtu_, "GTM MTU mismatch");
    reliable_ = (gtm_header_.flags & kGtmFlagReliable) != 0;
    MAD_ASSERT(reliable_ == vc_->reliable(),
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

void VcMessageReader::ensure_receiver() {
  if (receiver_ == nullptr) {
    // window = 1 keeps the PR-1 blocking receive (no liveness polling);
    // only the windowed protocol streams partial messages through
    // gateways, so only it can strand a reader on a dead upstream hop.
    receiver_ = std::make_unique<ReliableReceiver>(
        *vc_, self_, *incoming_->channel, incoming_->reader.source(),
        gtm_header_.epoch,
        /*detect_dead=*/vc_->options().reliable.window > 1);
  }
}

void VcMessageReader::adopt() {
  const NodeRank origin = source();
  // Abandon the dead gateway's stream: in paquet mode the reader holds no
  // partial-packet state, so closing it is a no-op at the BMM level, and
  // releasing `done` lets the polling actor pick up the replacement
  // message on this same real channel.
  incoming_->reader.end_unpacking();
  incoming_->done->notify_all();
  incoming_.reset();
  receiver_.reset();
  sim::Engine& engine = vc_->domain().engine();
  const sim::Time poll = vc_->options().reliable.ack_timeout;
  std::vector<std::byte> skip;
  for (;;) {
    if (!vc_->routing().reachable(origin, self_)) {
      MAD_PANIC("node " + std::to_string(self_) +
                " cannot adopt the stream from origin " +
                std::to_string(origin) +
                ": origin unreachable, no route survives the failed nodes");
    }
    auto replacement =
        endpoint_->collect_replacement(origin, engine.now() + poll);
    if (!replacement) {
      continue;  // recheck reachability each ack_timeout slice
    }
    incoming_.emplace(std::move(*replacement));
    MAD_ASSERT(incoming_->gtm_header.has_value(),
               "reliable replacement stream arrived without its header");
    const GtmMsgHeader header = *incoming_->gtm_header;
    MAD_ASSERT(header.final_dst == gtm_header_.final_dst &&
                   header.origin == gtm_header_.origin &&
                   header.mtu == gtm_header_.mtu &&
                   header.flags == gtm_header_.flags,
               "replayed message does not match the abandoned stream");
    gtm_header_ = header;  // fresh epoch
    next_seq_ = 0;
    ensure_receiver();
    // The origin replays the whole message; skip what was already
    // consumed so unpack resumes exactly where the old stream broke.
    try {
      for (std::uint64_t b = 0; b < blocks_consumed_; ++b) {
        const GtmBlockHeader h =
            receiver_->recv_block_header(incoming_->reader, next_seq_);
        ++next_seq_;
        MAD_ASSERT(h.end_of_message == 0,
                   "replayed message shorter than the consumed prefix");
        skip.resize(h.size);
        const std::uint64_t fragments = fragment_count(h.size, mtu_);
        for (std::uint64_t i = 0; i < fragments; ++i) {
          const std::uint32_t fsize = fragment_size(h.size, mtu_, i);
          receiver_->recv(incoming_->reader, next_seq_,
                          util::MutByteSpan(skip).subspan(i * mtu_, fsize));
          ++next_seq_;
        }
      }
      return;
    } catch (const PeerDied&) {
      // The replacement's gateway died too: abandon again, keep waiting.
      incoming_->reader.end_unpacking();
      incoming_->done->notify_all();
      incoming_.reset();
      receiver_.reset();
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
  if (reliable_) {
    // The per-hop stream peer is whoever sent on this real channel — the
    // last gateway in general (incoming_->reader.source(), not the
    // preamble origin).
    for (;;) {
      try {
        ensure_receiver();
        const GtmBlockHeader header =
            receiver_->recv_block_header(incoming_->reader, next_seq_);
        ++next_seq_;
        MAD_ASSERT(header.end_of_message == 0,
                   "unpack past the end of a forwarded message");
        MAD_ASSERT(header.size == dst.size(),
                   "unpack size " + std::to_string(dst.size()) +
                       " does not match packed size " +
                       std::to_string(header.size));
        MAD_ASSERT(decode_smode(header.smode) == smode &&
                       decode_rmode(header.rmode) == rmode,
                   "unpack flags do not match the pack flags");
        const std::uint64_t fragments = fragment_count(header.size, mtu_);
        for (std::uint64_t i = 0; i < fragments; ++i) {
          const std::uint32_t fsize = fragment_size(header.size, mtu_, i);
          receiver_->recv(incoming_->reader, next_seq_,
                          dst.subspan(i * mtu_, fsize));
          ++next_seq_;
        }
        ++blocks_consumed_;
        return;
      } catch (const PeerDied&) {
        adopt();  // restarts this block on the replayed stream
      }
    }
  }
  const GtmBlockHeader header = read_block_header(incoming_->reader);
  MAD_ASSERT(header.end_of_message == 0,
             "unpack past the end of a forwarded message");
  MAD_ASSERT(header.size == dst.size(),
             "unpack size " + std::to_string(dst.size()) +
                 " does not match packed size " + std::to_string(header.size));
  MAD_ASSERT(decode_smode(header.smode) == smode &&
                 decode_rmode(header.rmode) == rmode,
             "unpack flags do not match the pack flags");
  const std::uint64_t fragments = fragment_count(header.size, mtu_);
  for (std::uint64_t i = 0; i < fragments; ++i) {
    const std::uint32_t fsize = fragment_size(header.size, mtu_, i);
    incoming_->reader.unpack(dst.subspan(i * mtu_, fsize), SendMode::Cheaper,
                             RecvMode::Express);
  }
}

void VcMessageReader::end_unpacking() {
  MAD_ASSERT(!ended_, "end_unpacking called twice");
  if (striped()) {
    // All rails' end markers (a zero-block striped message still built no
    // reassembler yet — build it so rails 1..k-1 get claimed and closed).
    ensure_reassembler();
    reassembler_->end_unpacking();
    incoming_->reader.end_unpacking();
    ended_ = true;
    incoming_->done->notify_all();
    return;
  }
  if (forwarded() && reliable_) {
    // The end marker is a reliable paquet too: its ack confirms the whole
    // message made it across this hop.
    for (;;) {
      try {
        ensure_receiver();
        const GtmBlockHeader marker =
            receiver_->recv_block_header(incoming_->reader, next_seq_);
        MAD_ASSERT(marker.end_of_message == 1,
                   "end_unpacking before all blocks were consumed");
        break;
      } catch (const PeerDied&) {
        adopt();
      }
    }
    // The stream is complete: late retransmits of this epoch arriving at
    // the next message boundary are re-acked (the sender may have lost
    // our acks to a fault window) instead of reopening the message.
    Connection& conn =
        incoming_->channel->connection_to(incoming_->reader.source());
    conn.rx_epoch_done = std::max(conn.rx_epoch_done, gtm_header_.epoch);
    // Keep re-advertising the tail ack for a while: if a fault window
    // swallowed it, the sender would otherwise burn its whole retry budget
    // on a message we already consumed and falsely declare this hop dead.
    vc_->spawn_tail_acker(*incoming_->channel, incoming_->reader.source(),
                          gtm_header_.epoch, next_seq_);
  } else if (forwarded()) {
    const GtmBlockHeader marker = read_block_header(incoming_->reader);
    MAD_ASSERT(marker.end_of_message == 1,
               "end_unpacking before all blocks were consumed");
  }
  incoming_->reader.end_unpacking();
  ended_ = true;
  incoming_->done->notify_all();
}

}  // namespace mad::fwd
