// Incremental message construction and extraction (paper §2.1.2).
//
// A message is a sequence of user blocks appended with pack() and finalized
// with end_packing(). Messages are NOT self-described: the receiver must
// unpack blocks in the exact order, with the exact flag pairs, that the
// sender packed them — this is what lets the library skip headers on
// homogeneous paths. (Forwarded messages do get self-description, from the
// Generic Transmission Module in src/fwd.)
#pragma once

#include <memory>
#include <optional>

#include "mad/bmm.hpp"
#include "mad/types.hpp"
#include "sim/time.hpp"
#include "util/bytes.hpp"

namespace mad {

class Channel;

class MessageWriter {
 public:
  /// Prefer Channel::begin_packing.
  MessageWriter(Channel& channel, NodeRank dst);
  MessageWriter(MessageWriter&&) noexcept = default;
  MessageWriter& operator=(MessageWriter&&) noexcept = delete;
  /// Finishes the message if end_packing was not called explicitly.
  ~MessageWriter();

  NodeRank destination() const { return dst_; }

  /// Appends one block (mad_pack).
  void pack(util::ByteSpan data, SendMode smode = SendMode::Cheaper,
            RecvMode rmode = RecvMode::Cheaper);

  /// Appends a trivially-copyable value (snapshotted immediately — Safer).
  /// Express-only: the matching unpack_value returns the value by copy, so
  /// it must be available when unpack returns.
  template <typename T>
  void pack_value(const T& value) {
    pack(util::object_bytes(value), SendMode::Safer, RecvMode::Express);
  }

  /// Finalizes the message (mad_end_packing): afterwards the whole message
  /// has been handed to the network.
  void end_packing();

  /// Sends one whole wire paquet by ownership (BmmTx::send_paquet): the
  /// buffer comes from the channel TM's packet_pool() and is taken over.
  void send_paquet(util::Bytes paquet);

  /// Re-sends this message's announce packet with its original sequence
  /// number (no-op on channels without an announce stream). A reliable
  /// sender calls this when retransmitting paquet 0: the one-shot announce
  /// is the only way the receiver learns a message exists, so losing it to
  /// a fault window would otherwise strand the whole stream unread. The
  /// receiver dedupes by sequence number (Channel::begin_unpacking).
  void resend_announce();

 private:
  Channel* channel_;
  NodeRank dst_;
  struct Connection* connection_ = nullptr;  // tx-locked until end_packing
  std::unique_ptr<BmmTx> bmm_;
  std::uint64_t payload_bytes_ = 0;
  std::uint32_t announce_seq_ = 0;  // 0 = channel sends no announces
  sim::Time begin_ = 0;  // begin_packing instant (message-latency metric)
  bool ended_ = false;
};

class MessageReader {
 public:
  /// Prefer Channel::begin_unpacking / begin_unpacking_from.
  MessageReader(Channel& channel, NodeRank src);
  MessageReader(MessageReader&&) noexcept = default;
  MessageReader& operator=(MessageReader&&) noexcept = delete;
  ~MessageReader();

  NodeRank source() const { return src_; }

  /// Extracts one block; flags must match the sender's pack call.
  void unpack(util::MutByteSpan dst, SendMode smode = SendMode::Cheaper,
              RecvMode rmode = RecvMode::Cheaper);

  /// Extracts a value packed with pack_value (Express, so the returned copy
  /// is filled before this call returns).
  template <typename T>
  T unpack_value() {
    T value{};
    unpack(util::object_bytes_mut(value), SendMode::Safer,
           RecvMode::Express);
    return value;
  }

  /// Reliable-GTM receive: one wire packet of a priori unknown size in a
  /// buffer of the channel TM's packet_pool(), which the caller gives back
  /// (see BmmRx::take_paquet).
  util::Bytes take_paquet();

  /// Timed take_paquet: nullopt when no packet arrives by `deadline`
  /// (sliding-window receivers poll so a dead sender is noticed). Waits on
  /// the connection's rx tag, then takes the packet in the shape's way.
  std::optional<util::Bytes> take_paquet_until(sim::Time deadline);

  /// Finalizes extraction (mad_end_unpacking): all Cheaper blocks are
  /// guaranteed filled afterwards.
  void end_unpacking();

 private:
  Channel* channel_;
  NodeRank src_;
  std::unique_ptr<BmmRx> bmm_;
  std::uint64_t payload_bytes_ = 0;
  sim::Time begin_ = 0;  // begin_unpacking instant (message-latency metric)
  bool ended_ = false;
};

}  // namespace mad
