// Simulated network interface card.
//
// Timing model for one packet from NIC A (host X) to NIC B (host Y):
//
//   sender actor:   tx_host_overhead                    (software)
//                   PCI flow on X's bus (tx_op, n)      (contended)
//   wire:           departs max(flow start, wire busy); first byte reaches
//                   B wire_latency after departure (cut-through)
//   receiver actor: waits for the packet descriptor, then
//                   rx_host_overhead                    (software)
//                   PCI flow on Y's bus (rx_op, n)      (contended)
//                   cannot complete before the last byte physically
//                   arrived: max(src flow end, wire end) + latency
//
// Every packet's payload is one buffer of the fabric's packet pool
// (Network::buffer_pool, one pool shared by all networks). A sender either
// hands such a buffer over, and the NIC adopts it as the packet — a
// reliable sender's freshly filled wire buffer, or the very buffer a plain
// relay's paquet arrived in on another network — or passes a gather list,
// which is copied into a pool buffer when the source PCI flow starts; the
// sender is blocked for the whole flow, so the source cannot change
// underneath — buffer-reuse semantics are preserved. The receiver either
// has the NIC scatter the payload into its destination and give the buffer
// back, or takes the buffer itself (recv_buffer) and gives it back, or
// sends it on, when done. The gather snapshot and the scatter are
// host-side artefacts of the simulation, not modelled copies: neither is
// charged virtual time (Network::snapshot_bytes and scatter_bytes count
// them).
// Receivers may begin their PCI flow while the sender is still pushing
// (that is what real cut-through NICs do); the end-correction keeps the
// completion time physical.
//
// Packets are matched by an opaque 64-bit tag (one per Madeleine channel ×
// direction); order is preserved per (source NIC, tag).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "net/link.hpp"
#include "net/params.hpp"
#include "net/static_pool.hpp"
#include "sim/condition.hpp"
#include "util/bytes.hpp"

namespace mad::net {

class Host;

/// Shared between sender and receiver of one packet: when the source-side
/// PCI flow completed (kForever while still in flight).
struct TxTiming {
  sim::Time src_flow_end = sim::kForever;
};

/// A packet descriptor queued at the destination NIC.
struct WirePacket {
  int src_index = -1;
  std::uint64_t tag = 0;
  util::Bytes payload;  // from the fabric's packet pool
  sim::Time send_time = 0;     // source flow start (latency metrics)
  sim::Time visible_time = 0;  // first byte reaches the NIC
  sim::Time wire_end = 0;      // last byte has left the wire
  bool one_sided = false;   // RDMA-style write: DMA both ends, no rx software
  bool completion = false;  // carries the remote completion notification
  std::shared_ptr<TxTiming> timing;
};

/// Sender-side options for one packet. A one-sided packet models an
/// RDMA-style remote write into pre-registered memory (fwd/rdma_tm.hpp):
/// the data crosses BOTH host buses as bus-master DMA regardless of the
/// protocol's configured tx_op — this is exactly what removes the PIO/DMA
/// PCI-arbitration conflict of §3.4.1 — and the receiving CPU is not
/// involved, so rx_host_overhead is skipped except on `completion`
/// packets, which carry the notification the destination actor processes.
struct SendOptions {
  bool one_sided = false;
  bool completion = false;
};

/// Size/source of the packet at the head of a tag queue.
struct PacketInfo {
  int src_index = -1;
  std::uint32_t size = 0;
};

class Nic {
 public:
  Nic(sim::Engine& engine, Host& host, Network& network);

  const NicModelParams& model() const { return network_.model(); }
  int index() const { return index_; }
  Host& host() const { return host_; }
  Network& network() const { return network_; }

  /// Sends one packet (gather list) to the NIC at `dst_index` on the same
  /// network. Blocks the calling actor for the sender-side cost. The total
  /// size must be in (0, model().max_packet].
  void send(int dst_index, std::uint64_t tag, const util::ConstIovec& data,
            const SendOptions& opts = {});

  /// Convenience for a single contiguous block.
  void send(int dst_index, std::uint64_t tag, util::ByteSpan data,
            const SendOptions& opts = {});

  /// Sends `packet`, a buffer of network().buffer_pool(), as one packet
  /// without copying it: the NIC adopts the buffer, and returns it to the
  /// pool if the packet is dropped or the sender unwinds first. Same
  /// timing as the gather overloads.
  void send(int dst_index, std::uint64_t tag, util::Bytes packet,
            const SendOptions& opts = {});

  /// Blocks until a packet with `tag` is queued; returns its descriptor
  /// without consuming it and without charging any receive cost.
  PacketInfo peek(std::uint64_t tag);

  /// Non-blocking peek.
  std::optional<PacketInfo> try_peek(std::uint64_t tag);

  /// Peek with a virtual-time deadline; nullopt on timeout.
  std::optional<PacketInfo> peek_until(std::uint64_t tag,
                                       sim::Time deadline);

  /// Consumes the head packet for `tag`, placing the payload directly into
  /// `dst` (dynamic-buffer reception — no software copy at any layer).
  /// Total destination size must equal the packet size exactly.
  void recv_into(std::uint64_t tag, const util::MutIovec& dst);
  void recv_into(std::uint64_t tag, util::MutByteSpan dst);

  /// Consumes the head packet and hands over its own buffer, one of
  /// network().buffer_pool(), which the caller gives back once done with
  /// it. Same timing as recv_into, without the placement copy.
  util::Bytes recv_buffer(std::uint64_t tag);

  /// Consumes the head packet into an owned buffer (used by control-plane
  /// paths where the receiver cannot know the size up front).
  std::vector<std::byte> recv_owned(std::uint64_t tag);

  /// Consumes the head packet into a protocol static buffer (rx_buffers
  /// must be Static). The caller must copy out — or consume in place, the
  /// gateway's zero-copy trick.
  StaticBufferPool::Ref recv_static(std::uint64_t tag);

  /// Static pools (assert the respective direction is Static).
  StaticBufferPool& tx_pool();
  StaticBufferPool& rx_pool();

  /// Packets currently queued for `tag`.
  std::size_t queued(std::uint64_t tag) const;
  /// Packets currently queued for any tag: each holds a buffer of the
  /// fabric's packet pool until it is consumed.
  std::size_t queued() const { return queued_total_; }

  /// Lifetime counters (tests and benches).
  std::uint64_t packets_sent() const { return packets_sent_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

  // --- internal, used by the sending side ---
  void enqueue(WirePacket packet);
  void notify_tx_done();
  /// Blocks the SENDER until this (destination) NIC has buffer space —
  /// models the finite on-card memory (rx_queue_packets; 0 = unlimited)
  /// exerting wire back-pressure.
  void wait_rx_space();

 private:
  struct TagQueue {
    explicit TagQueue(sim::Engine& engine, const std::string& name)
        : cond(engine, name) {}
    std::deque<WirePacket> packets;
    sim::Condition cond;
  };

  TagQueue& tag_queue(std::uint64_t tag);
  /// The body shared by every send of an `n`-byte packet: calls
  /// `payload()` at flow start for the packet's buffer, one of
  /// network().buffer_pool(), unless the packet is dropped.
  template <typename Payload>
  void transmit(int dst_index, std::uint64_t tag, std::size_t n,
                Payload&& payload, const SendOptions& opts);
  /// Common blocking receive path: pops the head packet and charges the
  /// receiver-side timing.
  WirePacket consume(std::uint64_t tag);

  sim::Engine& engine_;
  Host& host_;
  Network& network_;
  int index_;
  std::map<std::uint64_t, std::unique_ptr<TagQueue>> queues_;
  std::size_t queued_total_ = 0;  // across all tags (NIC buffer occupancy)
  sim::Condition rx_space_;       // signalled when a packet is consumed
  sim::Condition tx_done_;
  /// One DMA/PIO engine per direction: a NIC moves one packet at a time
  /// across the host bus. Concurrent actors using the same adapter
  /// serialize here (which is why adding a second adapter — multi-rail —
  /// actually buys bandwidth).
  sim::Lock tx_engine_;
  sim::Lock rx_engine_;
  std::unique_ptr<StaticBufferPool> tx_pool_;
  std::unique_ptr<StaticBufferPool> rx_pool_;
  std::uint64_t packets_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace mad::net
