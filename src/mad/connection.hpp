// A connection virtualizes a point-to-point reliable link between two
// processes inside one channel (paper §2.1.2). In-order delivery is
// guaranteed per connection within a channel; connections of different
// channels are independent even on the same adapter.
#pragma once

#include <cstdint>
#include <memory>

#include "mad/types.hpp"
#include "sim/condition.hpp"

namespace mad {

/// Tag layout: | channel id (44 bits) | low 20 bits |. The low field is the
/// sender's rank for message-body packets, or kAnnounceField for the
/// channel-wide message-announce stream.
inline constexpr std::uint32_t kAnnounceField = 0xFFFFF;

inline constexpr std::uint64_t channel_tag(ChannelId cid,
                                           std::uint32_t field) {
  return (static_cast<std::uint64_t>(cid) << 20) | field;
}

/// Wire payload of one message announce. The sequence number (monotone per
/// connection, starting at 1) lets a reliable sender re-announce a message
/// whose original announce a fault window swallowed: the receiver skips
/// duplicates instead of seeing phantom extra messages.
struct AnnouncePacket {
  std::uint32_t rank = 0;
  std::uint32_t seq = 0;
};

struct Connection {
  NodeRank peer = -1;
  /// Peer's NIC index on the channel's network.
  int peer_nic_index = -1;
  /// Tag this endpoint sends with (keyed by the local rank).
  std::uint64_t tx_tag = 0;
  /// Tag the peer sends with (keyed by the peer rank).
  std::uint64_t rx_tag = 0;

  /// Reliable-GTM stream epoch counter: bumped once per reliable message
  /// opened on this connection (and per failover reopen), so a receiver
  /// can tell a late retransmit of an old stream from the current one.
  std::uint32_t tx_epoch = 0;

  /// Highest epoch whose reliable message this endpoint received to the
  /// end marker. Late retransmits of epochs at or below it are re-acked
  /// at message boundaries (the sender may have lost the final ack and
  /// must not burn its retry budget — or replay a delivered message);
  /// paquets of later epochs are in-progress streams whose framing was
  /// lost, and stay unacknowledged so the sender re-frames them.
  std::uint32_t rx_epoch_done = 0;

  /// Announce sequencing (see AnnouncePacket): the sender stamps each
  /// message's announce from tx_announce_next; the receiver records the
  /// highest consumed one and drops re-announces at or below it.
  std::uint32_t tx_announce_next = 0;
  std::uint32_t rx_announce_seen = 0;

  /// Transmission lock: only one message may be in construction toward
  /// this peer at a time. Matters on gateways, where the forwarding actor
  /// and the application can both open messages on the same regular
  /// channel — interleaving their packets would corrupt both streams.
  std::unique_ptr<sim::Lock> tx_lock;
};

}  // namespace mad
