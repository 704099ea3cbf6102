// Buffer Management Modules (paper §2.1.1).
//
// A BMM shapes the blocks of one message into the packets its TM prefers.
// Sender (BmmTx) and receiver (BmmRx) of a native channel run the *same*
// BMM kind over the *same* block sequence, so both compute identical packet
// boundaries — messages need no self-description. The boundary rules are a
// pure function of (block sizes, RecvMode flags, MTU); SendMode only
// affects when data is snapshotted/copied.
//
// Three shapes are provided:
//   * DynamicAggregating — gather blocks into MTU-sized packets straight
//     from user memory (BIP/Myrinet: scatter/gather DMA);
//   * DynamicEager — one packet train per block, sent immediately
//     (SISCI/SCI: PIO writes go out as produced, aggregation buys nothing);
//   * Static — stream blocks through protocol-owned buffers, one software
//     copy on each side (TCP kernel buffers, SBP send buffers).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mad/buffer.hpp"
#include "mad/tm.hpp"
#include "mad/types.hpp"
#include "net/static_pool.hpp"
#include "util/bytes.hpp"

namespace mad {

/// Sender side of one message.
class BmmTx {
 public:
  virtual ~BmmTx() = default;
  /// Appends one user block with its flag pair.
  virtual void pack(util::ByteSpan data, SendMode smode, RecvMode rmode) = 0;
  /// Final flush — afterwards the whole message is handed to the network.
  virtual void finish() = 0;
  /// Sends one whole wire paquet, a buffer of the TM's packet_pool(), as
  /// its own packet and takes the buffer over. Only valid between Express
  /// boundaries, when the shape holds no partial-packet state. Dynamic
  /// shapes hand the buffer to the NIC; the others pack from it as from a
  /// Cheaper Express block and give it back.
  virtual void send_paquet(util::Bytes paquet) = 0;
};

/// Receiver side of one message. Must be driven with the same sequence of
/// (size, flags) as the sender's pack calls.
class BmmRx {
 public:
  virtual ~BmmRx() = default;
  virtual void unpack(util::MutByteSpan dst, SendMode smode,
                      RecvMode rmode) = 0;
  virtual void finish() = 0;
  /// Reliable-GTM receive: consumes exactly one wire packet of a priori
  /// unknown size (a retransmitted duplicate may differ from the expected
  /// fragment) and returns it in a buffer of the TM's packet_pool(), which
  /// the caller gives back. Dynamic shapes hand over the NIC's own buffer;
  /// the others copy the protocol buffer into a pool buffer. Only valid
  /// between Express boundaries, when the shape holds no partial-packet
  /// state.
  virtual util::Bytes take_paquet() = 0;
};

/// Where a Tx sends to / an Rx receives from.
struct TxRoute {
  int dst_nic_index = -1;
  std::uint64_t tag = 0;
};
struct RxRoute {
  std::uint64_t tag = 0;
};

// --- dynamic (gather/scatter, zero software copies unless Safer) ---

class DynamicAggregTx final : public BmmTx {
 public:
  /// `eager` makes every block its own flush (DynamicEager shape).
  DynamicAggregTx(TransmissionModule& tm, TxRoute route, bool eager);
  void pack(util::ByteSpan data, SendMode smode, RecvMode rmode) override;
  void finish() override;
  void send_paquet(util::Bytes paquet) override;
  /// Transmits everything pending (used by the hybrid BMM to keep block
  /// order around its message-path sends).
  void flush();

 private:
  void drain_full_packets();
  void flush_all();

  TransmissionModule& tm_;
  TxRoute route_;
  bool eager_;
  bool has_later_ = false;  // a Later block suspends the overflow drain
  ConstStream pending_;
  /// Owned snapshots of Safer blocks (spans into these live in pending_).
  std::vector<std::vector<std::byte>> safer_staging_;
};

class DynamicAggregRx final : public BmmRx {
 public:
  DynamicAggregRx(TransmissionModule& tm, RxRoute route, bool eager);
  void unpack(util::MutByteSpan dst, SendMode smode, RecvMode rmode) override;
  void finish() override;
  util::Bytes take_paquet() override;
  void flush();

 private:
  void drain_full_packets();
  void flush_all();

  TransmissionModule& tm_;
  RxRoute route_;
  bool eager_;
  bool has_later_ = false;
  MutStream pending_;
};

// --- hybrid: two transmission disciplines in one protocol (paper Fig 1
// --- shows VIA's PMM driving TM1 "rdma" and TM2 "mesg") ---

/// Small blocks (< the protocol's mesg threshold) take the MESSAGE path:
/// copied through a protocol buffer and sent immediately — cheap setup,
/// one copy. Large blocks take the RDMA path: gathered from user memory
/// zero-copy, MTU-chunked. Block order is preserved by flushing the rdma
/// stream before any mesg-path send.
class HybridTx final : public BmmTx {
 public:
  HybridTx(TransmissionModule& tm, TxRoute route, std::uint32_t threshold);
  void pack(util::ByteSpan data, SendMode smode, RecvMode rmode) override;
  void finish() override;
  void send_paquet(util::Bytes paquet) override;

 private:
  TransmissionModule& tm_;
  TxRoute route_;
  std::uint32_t threshold_;
  DynamicAggregTx rdma_;
};

class HybridRx final : public BmmRx {
 public:
  HybridRx(TransmissionModule& tm, RxRoute route, std::uint32_t threshold);
  void unpack(util::MutByteSpan dst, SendMode smode, RecvMode rmode) override;
  void finish() override;
  util::Bytes take_paquet() override;

 private:
  TransmissionModule& tm_;
  RxRoute route_;
  std::uint32_t threshold_;
  DynamicAggregRx rdma_;
};

// --- static (protocol-owned buffers, one software copy per side) ---

class StaticTx final : public BmmTx {
 public:
  StaticTx(TransmissionModule& tm, TxRoute route);
  void pack(util::ByteSpan data, SendMode smode, RecvMode rmode) override;
  void finish() override;
  void send_paquet(util::Bytes paquet) override;

 private:
  void flush_current();

  TransmissionModule& tm_;
  TxRoute route_;
  net::StaticBufferPool::Ref current_;  // invalid when no partial buffer
  std::size_t fill_ = 0;
};

class StaticRx final : public BmmRx {
 public:
  StaticRx(TransmissionModule& tm, RxRoute route);
  void unpack(util::MutByteSpan dst, SendMode smode, RecvMode rmode) override;
  void finish() override;
  util::Bytes take_paquet() override;

 private:
  TransmissionModule& tm_;
  RxRoute route_;
  net::StaticBufferPool::Ref current_;
  std::size_t consumed_ = 0;
};

}  // namespace mad
