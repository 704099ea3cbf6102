#include "mad/channel.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "mad/message.hpp"
#include "mad/session.hpp"
#include "util/panic.hpp"

namespace mad {

Channel::Channel(Domain& domain, ChannelId id, std::string name,
                 net::Network& network, int adapter, NodeRank self,
                 std::vector<NodeRank> members)
    : domain_(domain),
      id_(id),
      name_(std::move(name)),
      network_(network),
      adapter_(adapter),
      self_(self),
      members_(std::move(members)),
      tm_(domain.nic_of(self, network, adapter)),
      pmm_(ProtocolModule::for_protocol(network.model().protocol)) {
  MAD_ASSERT(std::find(members_.begin(), members_.end(), self_) !=
                 members_.end(),
             "channel endpoint owner is not a member");
}

Connection& Channel::connection_to(NodeRank peer) {
  MAD_ASSERT(peer != self_, "no self-connection on a channel");
  MAD_ASSERT(std::find(members_.begin(), members_.end(), peer) !=
                 members_.end(),
             "node " + std::to_string(peer) + " is not a member of channel '" +
                 name_ + "'");
  auto it = connections_.find(peer);
  if (it == connections_.end()) {
    Connection conn;
    conn.peer = peer;
    conn.peer_nic_index = domain_.nic_of(peer, network_, adapter_).index();
    conn.tx_tag = channel_tag(id_, static_cast<std::uint32_t>(self_));
    conn.rx_tag = channel_tag(id_, static_cast<std::uint32_t>(peer));
    conn.tx_lock = std::make_unique<sim::Lock>(
        domain_.engine(), name_ + ".conn" + std::to_string(self_) + "-" +
                              std::to_string(peer) + ".tx_free");
    it = connections_.emplace(peer, std::move(conn)).first;
  }
  return it->second;
}

MessageWriter Channel::begin_packing(NodeRank dst) {
  return MessageWriter(*this, dst);
}

MessageReader Channel::begin_unpacking() {
  if (uses_announce()) {
    const AnnouncePacket announce = next_announce();
    return MessageReader(*this, static_cast<NodeRank>(announce.rank));
  }
  // Two members: the only possible source is the other one.
  const NodeRank src = members_[0] == self_ ? members_[1] : members_[0];
  return MessageReader(*this, src);
}

void Channel::wait_incoming() {
  if (uses_announce()) {
    (void)tm_.nic().peek(announce_tag());
    return;
  }
  const NodeRank peer = members_[0] == self_ ? members_[1] : members_[0];
  (void)tm_.nic().peek(connection_to(peer).rx_tag);
}

bool Channel::wait_incoming_until(sim::Time deadline) {
  if (uses_announce()) {
    return tm_.nic().peek_until(announce_tag(), deadline).has_value();
  }
  const NodeRank peer = members_[0] == self_ ? members_[1] : members_[0];
  return tm_.nic()
      .peek_until(connection_to(peer).rx_tag, deadline)
      .has_value();
}

bool Channel::has_incoming() {
  if (uses_announce()) {
    return tm_.nic().try_peek(announce_tag()).has_value();
  }
  const NodeRank peer = members_[0] == self_ ? members_[1] : members_[0];
  return tm_.nic().try_peek(connection_to(peer).rx_tag).has_value();
}

MessageReader Channel::begin_unpacking_from(NodeRank src) {
  if (uses_announce()) {
    // The announce stream still carries one entry per message; consume it
    // to stay in sync with interleaved any-source receives.
    const AnnouncePacket announce = next_announce();
    MAD_ASSERT(static_cast<NodeRank>(announce.rank) == src,
               "begin_unpacking_from(" + std::to_string(src) +
                   ") but the next message is from " +
                   std::to_string(announce.rank));
  }
  return MessageReader(*this, src);
}

AnnouncePacket Channel::next_announce() {
  for (;;) {
    const auto payload = tm_.recv_packet_owned(announce_tag());
    MAD_ASSERT(payload.size() == sizeof(AnnouncePacket), "bad announce size");
    AnnouncePacket announce{};
    std::memcpy(&announce, payload.data(), sizeof announce);
    Connection& conn = connection_to(static_cast<NodeRank>(announce.rank));
    if (announce.seq <= conn.rx_announce_seen) {
      // A re-announce of a message whose original announce also made it
      // through (MessageWriter::resend_announce): this entry is surplus.
      continue;
    }
    conn.rx_announce_seen = announce.seq;
    return announce;
  }
}

}  // namespace mad
