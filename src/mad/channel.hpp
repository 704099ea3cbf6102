// The channel object: a closed world for communication over one network
// device (paper §2.1.2). A channel endpoint lives on one node; all
// endpoints of a channel share its id, member list and protocol.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mad/connection.hpp"
#include "mad/pmm.hpp"
#include "mad/tm.hpp"
#include "mad/types.hpp"
#include "net/link.hpp"

namespace mad {

class Domain;
class MessageWriter;
class MessageReader;

class Channel {
 public:
  Channel(Domain& domain, ChannelId id, std::string name,
          net::Network& network, int adapter, NodeRank self,
          std::vector<NodeRank> members);

  ChannelId id() const { return id_; }
  const std::string& name() const { return name_; }
  net::Network& network() const { return network_; }
  /// Which of the node's adapters on the network this channel drives.
  int adapter() const { return adapter_; }
  NodeRank rank() const { return self_; }
  const std::vector<NodeRank>& members() const { return members_; }
  Domain& domain() const { return domain_; }

  TransmissionModule& tm() { return tm_; }
  const ProtocolModule& pmm() const { return pmm_; }

  /// Channels with more than two members precede every message with a tiny
  /// announce packet so the receiver learns the sender; two-member channels
  /// need none.
  bool uses_announce() const { return members_.size() > 2; }
  std::uint64_t announce_tag() const {
    return channel_tag(id_, kAnnounceField);
  }

  /// Point-to-point state toward `peer` (created on first use).
  Connection& connection_to(NodeRank peer);

  /// Starts building a message toward `dst` (mad_begin_packing).
  MessageWriter begin_packing(NodeRank dst);

  /// Blocks until a message from any member arrives, then starts consuming
  /// it (mad_begin_unpacking).
  MessageReader begin_unpacking();

  /// Blocks until the next incoming message is visible WITHOUT starting to
  /// consume it. Lets one actor multiplex several channels (the gateway's
  /// polling threads, paper §2.2.2).
  void wait_incoming();

  /// As wait_incoming, with a virtual-time deadline. Returns false on
  /// timeout.
  bool wait_incoming_until(sim::Time deadline);

  /// Non-blocking: is a message visible right now?
  bool has_incoming();

  /// Starts consuming a message known to come from `src`.
  MessageReader begin_unpacking_from(NodeRank src);

 private:
  /// Blocks for the next announce that is not a duplicate re-announce
  /// (MessageWriter::resend_announce) and records it as consumed.
  AnnouncePacket next_announce();

  Domain& domain_;
  ChannelId id_;
  std::string name_;
  net::Network& network_;
  int adapter_;
  NodeRank self_;
  std::vector<NodeRank> members_;
  TransmissionModule tm_;
  const ProtocolModule& pmm_;
  std::map<NodeRank, Connection> connections_;
};

}  // namespace mad
