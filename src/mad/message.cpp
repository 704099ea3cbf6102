#include "mad/message.hpp"

#include <exception>
#include <utility>

#include "mad/channel.hpp"
#include "sim/metrics.hpp"
#include "util/panic.hpp"

namespace mad {

MessageWriter::MessageWriter(Channel& channel, NodeRank dst)
    : channel_(&channel), dst_(dst) {
  Connection& conn = channel.connection_to(dst);
  // Hold the connection for the whole message: concurrent writers toward
  // the same peer (gateway forwarding actor + application) must not
  // interleave packets.
  conn.tx_lock->lock();
  connection_ = &conn;
  if (channel.uses_announce()) {
    announce_seq_ = ++conn.tx_announce_next;
    const AnnouncePacket announce{static_cast<std::uint32_t>(channel.rank()),
                                  announce_seq_};
    channel.tm().send_packet(conn.peer_nic_index, channel.announce_tag(),
                             util::ConstIovec{util::object_bytes(announce)});
  }
  bmm_ = channel.pmm().make_tx(channel.tm(),
                               TxRoute{conn.peer_nic_index, conn.tx_tag});
  begin_ = channel.network().engine().now();
}

MessageWriter::~MessageWriter() {
  // Auto-finish for convenience, but never from an unwinding stack (finish
  // blocks, and a destructor must not throw).
  if (bmm_ != nullptr && !ended_ && std::uncaught_exceptions() == 0) {
    try {
      end_packing();
    } catch (...) {
      // Swallowed: the next blocking call in this actor re-raises shutdown.
    }
  }
}

void MessageWriter::resend_announce() {
  if (announce_seq_ == 0) {
    return;
  }
  const AnnouncePacket announce{static_cast<std::uint32_t>(channel_->rank()),
                                announce_seq_};
  channel_->tm().send_packet(connection_->peer_nic_index,
                             channel_->announce_tag(),
                             util::ConstIovec{util::object_bytes(announce)});
}

void MessageWriter::pack(util::ByteSpan data, SendMode smode,
                         RecvMode rmode) {
  MAD_ASSERT(!ended_, "pack after end_packing");
  bmm_->pack(data, smode, rmode);
  payload_bytes_ += data.size();
}

void MessageWriter::send_paquet(util::Bytes paquet) {
  MAD_ASSERT(!ended_, "send_paquet after end_packing");
  payload_bytes_ += paquet.size();
  bmm_->send_paquet(std::move(paquet));
}

void MessageWriter::end_packing() {
  MAD_ASSERT(!ended_, "end_packing called twice");
  bmm_->finish();
  ended_ = true;
  connection_->tx_lock->unlock();
  if (sim::MetricsRegistry* metrics = channel_->network().metrics();
      metrics != nullptr && metrics->enabled()) {
    const std::string labels =
        "channel=" + channel_->name() + ",direction=tx";
    metrics->counter("chan.messages", labels).add();
    metrics->counter("chan.bytes", labels).add(payload_bytes_);
    metrics->histogram("chan.msg_us", labels)
        .record(sim::to_microseconds(channel_->network().engine().now() -
                                     begin_));
  }
}

MessageReader::MessageReader(Channel& channel, NodeRank src)
    : channel_(&channel), src_(src) {
  Connection& conn = channel.connection_to(src);
  bmm_ = channel.pmm().make_rx(channel.tm(), RxRoute{conn.rx_tag});
  begin_ = channel.network().engine().now();
}

MessageReader::~MessageReader() {
  if (bmm_ != nullptr && !ended_ && std::uncaught_exceptions() == 0) {
    try {
      end_unpacking();
    } catch (...) {
      // Swallowed: the next blocking call in this actor re-raises shutdown.
    }
  }
}

void MessageReader::unpack(util::MutByteSpan dst, SendMode smode,
                           RecvMode rmode) {
  MAD_ASSERT(!ended_, "unpack after end_unpacking");
  bmm_->unpack(dst, smode, rmode);
  payload_bytes_ += dst.size();
}

util::Bytes MessageReader::take_paquet() {
  MAD_ASSERT(!ended_, "take_paquet after end_unpacking");
  util::Bytes paquet = bmm_->take_paquet();
  payload_bytes_ += paquet.size();
  return paquet;
}

std::optional<util::Bytes> MessageReader::take_paquet_until(
    sim::Time deadline) {
  MAD_ASSERT(!ended_, "take_paquet after end_unpacking");
  const std::uint64_t tag = channel_->connection_to(src_).rx_tag;
  if (!channel_->tm().peek_packet_until(tag, deadline).has_value()) {
    return std::nullopt;
  }
  return take_paquet();
}

void MessageReader::end_unpacking() {
  MAD_ASSERT(!ended_, "end_unpacking called twice");
  bmm_->finish();
  ended_ = true;
  if (sim::MetricsRegistry* metrics = channel_->network().metrics();
      metrics != nullptr && metrics->enabled()) {
    const std::string labels =
        "channel=" + channel_->name() + ",direction=rx";
    metrics->counter("chan.messages", labels).add();
    metrics->counter("chan.bytes", labels).add(payload_bytes_);
    metrics->histogram("chan.msg_us", labels)
        .record(sim::to_microseconds(channel_->network().engine().now() -
                                     begin_));
  }
}

}  // namespace mad
