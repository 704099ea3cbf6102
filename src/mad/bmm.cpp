#include "mad/bmm.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "mad/copy_stats.hpp"
#include "util/panic.hpp"

namespace mad {

namespace {

// A static-buffer packet copied into a buffer of the TM's packet pool: the
// one software copy a static receive makes anyway.
util::Bytes copy_to_pool(TransmissionModule& tm,
                         const net::StaticBufferPool::Ref& buffer) {
  util::Bytes paquet = tm.packet_pool().take(buffer.used());
  counted_copy(paquet, buffer.data());
  return paquet;
}

}  // namespace

// ---------------------------------------------------------------- dynamic tx

DynamicAggregTx::DynamicAggregTx(TransmissionModule& tm, TxRoute route,
                                 bool eager)
    : tm_(tm), route_(route), eager_(eager) {}

void DynamicAggregTx::drain_full_packets() {
  const std::uint32_t mtu = tm_.mtu();
  while (pending_.size() >= mtu) {
    tm_.send_packet(route_.dst_nic_index, route_.tag, pending_.take(mtu));
  }
}

void DynamicAggregTx::flush_all() {
  has_later_ = false;
  drain_full_packets();
  if (!pending_.empty()) {
    tm_.send_packet(route_.dst_nic_index, route_.tag,
                    pending_.take(pending_.size()));
  }
  safer_staging_.clear();  // all spans into staging have been transmitted
}

void DynamicAggregTx::pack(util::ByteSpan data, SendMode smode,
                           RecvMode rmode) {
  if (!data.empty()) {
    if (smode == SendMode::Safer) {
      // Snapshot now so the caller may reuse the buffer immediately.
      auto& staged = safer_staging_.emplace_back(data.size());
      counted_copy(staged, data);
      pending_.push(util::ByteSpan(staged));
    } else {
      // Later/Cheaper: read from user memory at flush time.
      pending_.push(data);
      if (smode == SendMode::Later) {
        // Later data may still be modified by the user until end_packing:
        // suspend the MTU-overflow drain so nothing containing (or ordered
        // after) this block leaves before an explicit boundary.
        has_later_ = true;
      }
    }
  }
  if (!has_later_) {
    drain_full_packets();
  }
  if (rmode == RecvMode::Express || eager_) {
    flush_all();
  }
}

void DynamicAggregTx::finish() { flush_all(); }

void DynamicAggregTx::send_paquet(util::Bytes paquet) {
  MAD_ASSERT(pending_.empty(), "send_paquet with partial-packet state pending");
  MAD_ASSERT(paquet.size() <= tm_.mtu(),
             "paquet of " + std::to_string(paquet.size()) +
                 " bytes exceeds the MTU " + std::to_string(tm_.mtu()));
  tm_.send_packet(route_.dst_nic_index, route_.tag, std::move(paquet));
}

void DynamicAggregTx::flush() { flush_all(); }

// ---------------------------------------------------------------- dynamic rx

DynamicAggregRx::DynamicAggregRx(TransmissionModule& tm, RxRoute route,
                                 bool eager)
    : tm_(tm), route_(route), eager_(eager) {}

void DynamicAggregRx::drain_full_packets() {
  const std::uint32_t mtu = tm_.mtu();
  while (pending_.size() >= mtu) {
    tm_.recv_packet(route_.tag, pending_.take(mtu));
  }
}

void DynamicAggregRx::flush_all() {
  has_later_ = false;
  drain_full_packets();
  if (!pending_.empty()) {
    tm_.recv_packet(route_.tag, pending_.take(pending_.size()));
  }
}

void DynamicAggregRx::unpack(util::MutByteSpan dst, SendMode smode,
                             RecvMode rmode) {
  pending_.push(dst);
  if (smode == SendMode::Later) {
    has_later_ = true;  // mirror the sender's suspended drain
  }
  if (!has_later_) {
    drain_full_packets();
  }
  if (rmode == RecvMode::Express || eager_) {
    // Express data must be valid when unpack returns.
    flush_all();
  }
}

void DynamicAggregRx::finish() { flush_all(); }

void DynamicAggregRx::flush() { flush_all(); }

util::Bytes DynamicAggregRx::take_paquet() {
  MAD_ASSERT(pending_.empty(), "take_paquet with partial-packet state pending");
  return tm_.take_packet(route_.tag);
}

// ---------------------------------------------------------------- hybrid

HybridTx::HybridTx(TransmissionModule& tm, TxRoute route,
                   std::uint32_t threshold)
    : tm_(tm),
      route_(route),
      threshold_(threshold),
      rdma_(tm, route, /*eager=*/false) {
  MAD_ASSERT(threshold_ > 0, "hybrid BMM needs a positive mesg threshold");
}

void HybridTx::pack(util::ByteSpan data, SendMode smode, RecvMode rmode) {
  if (!data.empty() && data.size() < threshold_) {
    // MESSAGE path (TM2 "mesg"): copy through a protocol buffer and send
    // now. Flush the rdma stream first so block order survives.
    rdma_.flush();
    auto buffer = tm_.acquire_static_buffer();
    counted_copy(buffer.span().first(data.size()), data);
    buffer.set_used(data.size());
    tm_.send_static_buffer(route_.dst_nic_index, route_.tag, buffer);
    // smode is satisfied trivially (the copy already happened); rmode
    // Express needs nothing extra — the block is already on the wire.
    (void)smode;
    (void)rmode;
    return;
  }
  // RDMA path (TM1 "rdma"): zero-copy gather.
  rdma_.pack(data, smode, rmode);
}

void HybridTx::finish() { rdma_.finish(); }

void HybridTx::send_paquet(util::Bytes paquet) {
  if (paquet.size() < threshold_) {
    pack(paquet, SendMode::Cheaper, RecvMode::Express);
    tm_.packet_pool().give(std::move(paquet));
    return;
  }
  rdma_.send_paquet(std::move(paquet));
}

HybridRx::HybridRx(TransmissionModule& tm, RxRoute route,
                   std::uint32_t threshold)
    : tm_(tm),
      route_(route),
      threshold_(threshold),
      rdma_(tm, route, /*eager=*/false) {}

void HybridRx::unpack(util::MutByteSpan dst, SendMode smode, RecvMode rmode) {
  if (!dst.empty() && dst.size() < threshold_) {
    rdma_.flush();
    auto buffer = tm_.recv_packet_static(route_.tag);
    MAD_ASSERT(buffer.used() == dst.size(),
               "hybrid mesg-path size mismatch");
    counted_copy(dst, buffer.data());
    (void)smode;
    (void)rmode;
    return;
  }
  rdma_.unpack(dst, smode, rmode);
}

void HybridRx::finish() { rdma_.finish(); }

util::Bytes HybridRx::take_paquet() {
  rdma_.flush();
  // Route by the wire size, exactly as the sender routed by the payload
  // size: mesg-path packets travel in static buffers, rdma-path packets
  // are taken whole.
  if (tm_.peek_packet(route_.tag).size < threshold_) {
    return copy_to_pool(tm_, tm_.recv_packet_static(route_.tag));
  }
  return tm_.take_packet(route_.tag);
}

// ----------------------------------------------------------------- static tx

StaticTx::StaticTx(TransmissionModule& tm, TxRoute route)
    : tm_(tm), route_(route) {}

void StaticTx::flush_current() {
  if (current_.valid() && fill_ > 0) {
    current_.set_used(fill_);
    tm_.send_static_buffer(route_.dst_nic_index, route_.tag, current_);
    current_.release();
  } else if (current_.valid()) {
    current_.release();
  }
  fill_ = 0;
}

void StaticTx::pack(util::ByteSpan data, SendMode /*smode*/, RecvMode rmode) {
  // Static protocols copy at pack time regardless of SendMode: data must be
  // placed into protocol buffers anyway, and doing it now gives Safer
  // semantics for free.
  while (!data.empty()) {
    if (!current_.valid()) {
      current_ = tm_.acquire_static_buffer();
      fill_ = 0;
    }
    const std::size_t room = current_.capacity() - fill_;
    const std::size_t n = std::min(room, data.size());
    counted_copy(current_.span().subspan(fill_, n), data.first(n));
    fill_ += n;
    data = data.subspan(n);
    if (fill_ == current_.capacity()) {
      flush_current();
    }
  }
  if (rmode == RecvMode::Express) {
    flush_current();
  }
}

void StaticTx::finish() { flush_current(); }

void StaticTx::send_paquet(util::Bytes paquet) {
  MAD_ASSERT(!current_.valid(),
             "send_paquet with partial-buffer state pending");
  pack(paquet, SendMode::Cheaper, RecvMode::Express);
  tm_.packet_pool().give(std::move(paquet));
}

// ----------------------------------------------------------------- static rx

StaticRx::StaticRx(TransmissionModule& tm, RxRoute route)
    : tm_(tm), route_(route) {}

void StaticRx::unpack(util::MutByteSpan dst, SendMode /*smode*/,
                      RecvMode rmode) {
  while (!dst.empty()) {
    if (!current_.valid()) {
      current_ = tm_.recv_packet_static(route_.tag);
      consumed_ = 0;
    }
    const std::size_t avail = current_.used() - consumed_;
    const std::size_t n = std::min(avail, dst.size());
    counted_copy(dst.first(n), current_.data().subspan(consumed_, n));
    consumed_ += n;
    dst = dst.subspan(n);
    if (consumed_ == current_.used()) {
      current_.release();
    }
  }
  if (rmode == RecvMode::Express) {
    // The sender flushed its partial buffer after this block: whatever we
    // hold must be exactly consumed, and the next block starts fresh.
    MAD_ASSERT(!current_.valid(),
               "static BMM desync: leftover bytes at an Express boundary");
  }
}

void StaticRx::finish() {
  MAD_ASSERT(!current_.valid(),
             "static BMM desync: leftover bytes at end of message");
}

util::Bytes StaticRx::take_paquet() {
  MAD_ASSERT(!current_.valid(),
             "take_paquet with partial-buffer state pending");
  return copy_to_pool(tm_, tm_.recv_packet_static(route_.tag));
}

}  // namespace mad
