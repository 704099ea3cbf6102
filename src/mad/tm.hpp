// Transmission Module — the protocol-driving interface (paper §2.1.1).
//
// A TM wraps one NIC and exposes the generic set of functions the upper
// (buffer-management) layer is written against: packet send/receive in
// dynamic user memory, and static-buffer acquisition/transmission for
// protocols that require protocol-owned buffers. Protocol differences
// (DMA vs PIO, static vs dynamic buffers, MTU) live in the NIC model;
// the Protocol Management Module (pmm.hpp) decides which Buffer Management
// Module shape feeds this TM.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/link.hpp"
#include "net/nic.hpp"
#include "util/bytes.hpp"

namespace mad {

class TransmissionModule {
 public:
  explicit TransmissionModule(net::Nic& nic);

  net::Nic& nic() const { return nic_; }
  const net::NicModelParams& model() const { return nic_.model(); }

  /// Largest packet this TM can push unfragmented (bounded by the static
  /// buffer size on static-buffer protocols).
  std::uint32_t mtu() const;

  /// --- dynamic-buffer operations (gather/scatter straight to user memory)
  void send_packet(int dst_nic_index, std::uint64_t tag,
                   const util::ConstIovec& data);
  void recv_packet(std::uint64_t tag, const util::MutIovec& dst);
  std::vector<std::byte> recv_packet_owned(std::uint64_t tag);

  /// --- whole packets carried by ownership, in buffers of packet_pool()
  /// Sends `packet` without copying it (net::Nic adopts the buffer).
  void send_packet(int dst_nic_index, std::uint64_t tag, util::Bytes packet);
  /// Consumes the head packet and hands over its buffer; the caller gives
  /// it back to packet_pool().
  util::Bytes take_packet(std::uint64_t tag) { return nic_.recv_buffer(tag); }
  /// The network's packet buffers.
  util::BufferPool& packet_pool() const {
    return nic_.network().buffer_pool();
  }

  /// Blocks until a packet with `tag` is queued and returns its size and
  /// source without consuming it (reliable-GTM receivers size their
  /// scatter target from this — a retransmitted duplicate may be smaller
  /// or larger than the expected fragment).
  net::PacketInfo peek_packet(std::uint64_t tag) { return nic_.peek(tag); }

  /// Timed peek: waits until a packet with `tag` is queued or `deadline`
  /// passes; nullopt on timeout. Lets a reliable receiver poll for its
  /// peer's liveness instead of blocking forever on a crashed sender.
  std::optional<net::PacketInfo> peek_packet_until(std::uint64_t tag,
                                                   sim::Time deadline) {
    return nic_.peek_until(tag, deadline);
  }

  /// --- static-buffer operations (protocol-owned buffers)
  net::StaticBufferPool::Ref acquire_static_buffer();
  void send_static_buffer(int dst_nic_index, std::uint64_t tag,
                          const net::StaticBufferPool::Ref& buffer);
  net::StaticBufferPool::Ref recv_packet_static(std::uint64_t tag);

 private:
  net::Nic& nic_;
};

}  // namespace mad
