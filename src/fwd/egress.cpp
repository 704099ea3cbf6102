#include "fwd/egress.hpp"

#include <string>
#include <utility>

#include "fwd/rdma_tm.hpp"
#include "fwd/virtual_channel.hpp"
#include "mad/channel.hpp"
#include "net/fabric.hpp"
#include "sim/metrics.hpp"
#include "util/panic.hpp"

namespace mad::fwd {

Egress::Egress(VirtualChannel& vc, NodeRank self, const GtmMsgHeader& header,
               std::optional<GtmStripeHeader> stripe, int rail,
               std::uint64_t reject_seed)
    : vc_(vc),
      self_(self),
      dst_(static_cast<NodeRank>(header.final_dst)),
      rail_(rail),
      header_(header),
      stripe_(std::move(stripe)),
      reject_seed_(reject_seed) {}

void Egress::set_route(const topo::Route& route) {
  const topo::Hop first = route.front();
  route_epoch_ = vc_.routing().epoch();
  // Past the last gateway messages travel on a regular channel, so plain
  // nodes poll a single channel; toward another gateway they stay on the
  // special channel (paper §2.2.2). A repaired rail may degrade to a direct
  // hop (every gateway between the pair died but they share a network) and
  // then plays the last gateway's role. Striped rails stay on their own
  // channel pair end to end.
  channel_ = route.size() == 1
                 ? &vc_.rail_regular_channel(first.network, rail_, self_)
                 : &vc_.rail_special_channel(first.network, rail_, self_);
  next_ = first.node;
  if (reliable()) {
    header_.epoch = ++channel_->connection_to(next_).tx_epoch;
  }
}

void Egress::pick_route() {
  // Route by value: a concurrent failover on this node may call mark_dead,
  // which rebuilds the routing table while this sender blocks inside the
  // network — references into the table would dangle.
  const topo::Route route = vc_.routing().route(self_, dst_);
  set_route(route);
}

void Egress::open() {
  writer_.emplace(channel_->begin_packing(next_));
  // Every hop message starts with the preamble paquet — the fixed,
  // smaller-than-any-reliable-paquet message opener that lets the next
  // receiver drop stale retransmits at the boundary by size.
  const Preamble preamble{header_.origin, 1};
  write_preamble(*writer_, preamble);
  write_msg_header(*writer_, header_);
  if (stripe_) {
    write_stripe_header(*writer_, *stripe_);
  }
  seq_ = 0;
  if (reliable()) {
    sender_.emplace(vc_, self_, *writer_, *channel_, next_, header_.epoch);
    // Re-sent with every paquet-0 retransmission in case a fault window
    // ate the original framing.
    sender_->set_framing(preamble, header_, stripe_);
  }
}

void Egress::block_header(const GtmBlockHeader& header, bool one_sided) {
  one_sided_ = one_sided;
  fragments_left_ = fragment_count(header.size, vc_.mtu());
  // The plain writer runs the rendezvous before the block header (so on a
  // gateway's sender actor the handshake overlaps the listener's next
  // receive like any other egress cost); the reliable sender runs it after
  // its windowed header paquet. Block headers travel as reliable paquets
  // of their own: a lost header would desynchronize the stream silently.
  if (sender_) {
    sender_->send(seq_++, util::object_bytes(header));
  }
  if (one_sided) {
    // The next hop registers (or cache-hits) the receive region behind
    // this connection's tag before any write lands.
    const Connection& conn = channel_->connection_to(next_);
    RdmaTm* local = vc_.rdma_tm(channel_->tm().nic());
    RdmaTm* remote = vc_.rdma_tm(
        channel_->tm().nic().network().nic(conn.peer_nic_index));
    local->rendezvous(*remote, conn.tx_tag, header.size);
  }
  if (!sender_) {
    write_block_header(*writer_, header);
  }
}

void Egress::fragment(util::ByteSpan payload) {
  --fragments_left_;
  if (sender_) {
    sender_->send(seq_++, payload, one_sided_);
  } else if (one_sided_) {
    // Fragments bypass the writer and go out as RDMA-style writes into the
    // next hop's registered region. Wire-compatible with the two-sided
    // path — same NIC, same tag, same FIFO order, one packet per fragment
    // — so the receiving GTM parses the stream unchanged. The block's last
    // write carries the remote completion notification (the only receiver
    // software of the whole block).
    const Connection& conn = channel_->connection_to(next_);
    vc_.rdma_tm(channel_->tm().nic())
        ->write(conn.peer_nic_index, conn.tx_tag, payload,
                /*completion=*/fragments_left_ == 0);
  } else {
    // Express flushing makes every fragment its own packet on every BMM
    // shape, so the paquets a gateway sees are exactly the paquets the
    // final receiver expects.
    writer_->pack(payload, SendMode::Cheaper, RecvMode::Express);
  }
}

void Egress::block(const GtmBlockHeader& header, util::ByteSpan data) {
  block_header(header);
  const std::uint32_t mtu = vc_.mtu();
  const std::uint64_t fragments = fragments_left_;
  for (std::uint64_t i = 0; i < fragments; ++i) {
    fragment(data.subspan(i * mtu, fragment_size(data.size(), mtu, i)));
  }
}

void Egress::end() {
  if (sender_) {
    // The end marker joins the window like any paquet; flush() then blocks
    // until the whole hop is acked (a dead hop surfaces here as a
    // HopFailure, not as a silent loss).
    const GtmBlockHeader marker = end_marker();
    sender_->send(seq_, util::object_bytes(marker));
    sender_->flush();
  } else {
    write_block_header(*writer_, end_marker());
  }
}

void Egress::close() {
  sender_.reset();
  if (writer_) {
    writer_->end_packing();
    writer_.reset();
  }
}

bool Egress::stale() const {
  // The epoch check alone is not enough (any unrelated exclude bumps it);
  // the hop check alone is not enough either (is_dead() consults state a
  // concurrent rebuild replaces). Together they mean: the table moved AND
  // our stream's peer is gone — replaying through it can only time out.
  return reliable() && route_epoch_ != vc_.routing().epoch() &&
         vc_.is_dead(next_);
}

void Egress::recover(Setback setback, const std::function<Setback()>& replay,
                     const std::function<bool()>& stand_down) {
  sim::MetricsRegistry& metrics = vc_.domain().fabric().metrics();
  sim::Trace* trace = vc_.options().trace;
  const std::string node_label = "node=" + std::to_string(self_);
  while (!setback.ok()) {
    close();
    std::string why = "its route was invalidated under it";
    switch (setback.kind) {
      case Setback::Kind::HopDied: {
        const NodeRank dead = setback.failure.next_hop;
        vc_.declare_dead(self_, dead);
        if (vc_.routing().reachable(self_, dst_)) {
          vc_.note_failover(self_, dst_, dead);
        }
        why = "gateway " + std::to_string(dead) + " declared dead after " +
              std::to_string(setback.failure.attempts) + " attempts";
        break;
      }
      case Setback::Kind::Rejected: {
        // The hop is healthy, the gateway is overloaded. Nothing is
        // condemned — back off (exponentially in the consecutive-reject
        // count, with deterministic jitter so lockstep rejectees
        // desynchronize) and replay on a fresh epoch. The tx lock was
        // released above, so the sleep blocks no other writer.
        const sim::Time delay = vc_.options().flow.reject_delay(
            rejects_, reject_seed_ ^ static_cast<std::uint64_t>(rejects_));
        ++rejects_;
        metrics.add("flow.reject_retries", node_label);
        if (trace != nullptr) {
          trace->instant_here("flow.rejected",
                              "dst=" + std::to_string(dst_) +
                                  " attempt=" + std::to_string(rejects_));
        }
        vc_.domain().engine().sleep_for(delay);
        why = "its route was lost while it backed off";
        break;
      }
      case Setback::Kind::RouteStale:
        metrics.add("health.reroutes", node_label);
        if (trace != nullptr) {
          trace->instant_here("health.reroute",
                              "dst=" + std::to_string(dst_) +
                                  " from=" + std::to_string(next_));
        }
        break;
      case Setback::Kind::None:
        break;
    }
    if (stand_down && stand_down()) {
      return;
    }
    if (!vc_.routing().reachable(self_, dst_)) {
      MAD_PANIC("node " + std::to_string(dst_) + " unreachable from " +
                std::to_string(self_) + ": " + why +
                " and no alternate route exists");
    }
    pick_route();
    open();
    setback = replay();
    if (!setback.ok() && stand_down && stand_down()) {
      return;
    }
  }
}

}  // namespace mad::fwd
