#include "net/nic.hpp"

#include <algorithm>
#include <cstring>

#include "net/host.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "util/panic.hpp"

namespace mad::net {

namespace {

// The gather list copied into one buffer of the fabric's packet pool.
util::Bytes snapshot(Network& network, const util::ConstIovec& data,
                     std::size_t n) {
  util::Bytes payload = network.buffer_pool().take(n);
  std::size_t at = 0;
  for (const util::ByteSpan& piece : data) {
    if (!piece.empty()) {
      std::memcpy(payload.data() + at, piece.data(), piece.size());
      at += piece.size();
    }
  }
  network.note_snapshot(n);
  return payload;
}

}  // namespace

Nic::Nic(sim::Engine& engine, Host& host, Network& network)
    : engine_(engine),
      host_(host),
      network_(network),
      index_(network.attach(this)),
      rx_space_(engine, network.name() + ".nic" + std::to_string(index_) +
                            ".rx_space"),
      tx_done_(engine, network.name() + ".nic" + std::to_string(index_) +
                           ".tx_done"),
      tx_engine_(engine, network.name() + ".nic" + std::to_string(index_) +
                             ".tx_engine"),
      rx_engine_(engine, network.name() + ".nic" + std::to_string(index_) +
                             ".rx_engine") {
  const NicModelParams& m = model();
  const std::string base =
      network.name() + ".nic" + std::to_string(index_);
  if (m.tx_static() || m.hybrid()) {
    tx_pool_ = std::make_unique<StaticBufferPool>(
        engine, m.static_buffer_size, m.static_buffer_count, base + ".txpool");
  }
  if (m.rx_static() || m.hybrid()) {
    rx_pool_ = std::make_unique<StaticBufferPool>(
        engine, m.static_buffer_size, m.static_buffer_count, base + ".rxpool");
  }
}

Nic::TagQueue& Nic::tag_queue(std::uint64_t tag) {
  auto it = queues_.find(tag);
  if (it == queues_.end()) {
    it = queues_
             .emplace(tag, std::make_unique<TagQueue>(
                               engine_, network_.name() + ".nic" +
                                            std::to_string(index_) + ".tag" +
                                            std::to_string(tag)))
             .first;
  }
  return *it->second;
}

template <typename Payload>
void Nic::transmit(int dst_index, std::uint64_t tag, std::size_t n,
                   Payload&& payload, const SendOptions& opts) {
  MAD_ASSERT(n > 0, "send of empty packet");
  MAD_ASSERT(n <= model().max_packet,
             "packet of " + std::to_string(n) + " bytes exceeds max_packet " +
                 std::to_string(model().max_packet) + " on " +
                 network_.name());
  engine_.sleep_for(model().tx_host_overhead);

  // The NIC's single transmit engine: one packet on the bus at a time.
  sim::Lock::Guard engine_guard(tx_engine_);

  Nic& dst_nic = network_.nic(dst_index);
  FaultInjector* injector = network_.fault_injector();
  const FaultAction fault =
      injector != nullptr
          ? injector->decide(index_, dst_index, static_cast<std::uint32_t>(n),
                             engine_.now())
          : FaultAction::Deliver;
  if (injector != nullptr && !injector->plan().degraded.empty()) {
    // A browned-out link serves packets slower: the transmit engine stalls
    // for the extra latency while held, so queueing backs up and the
    // sender's RTT samples inflate — exactly the signal a health monitor
    // keys on.
    const Degradation degraded =
        injector->degradation(index_, dst_index, engine_.now());
    if (degraded.extra_latency > 0) {
      engine_.sleep_for(degraded.extra_latency);
    }
  }
  if (fault != FaultAction::Drop) {
    // A dropped packet never occupies the destination ring, so the sender
    // must not stall on it either (the destination may be dead).
    dst_nic.wait_rx_space();
  }

  const sim::Time flow_start = engine_.now();
  if (sim::TraceSink* trace = network_.trace();
      trace != nullptr && trace->enabled()) {
    const std::string detail = "nic" + std::to_string(index_) + "->nic" +
                               std::to_string(dst_index) +
                               " bytes=" + std::to_string(n);
    trace->instant("net:" + network_.name(), flow_start, "pkt.tx", detail);
    if (fault != FaultAction::Deliver) {
      trace->instant("net:" + network_.name(), flow_start, "pkt.fault",
                     detail + " verdict=" + fault_action_name(fault));
    }
  }
  if (sim::MetricsRegistry* metrics = network_.metrics();
      metrics != nullptr && metrics->enabled()) {
    metrics
        ->counter("net.packets", "network=" + network_.name() + ",verdict=" +
                                     fault_action_name(fault))
        .add();
    metrics->counter("net.bytes", "network=" + network_.name()).add(n);
  }
  const auto wire = network_.reserve_wire(index_, dst_index, n, flow_start);
  auto timing = std::make_shared<TxTiming>();
  if (fault != FaultAction::Drop) {
    const auto descriptor = [&](util::Bytes buffer) {
      WirePacket wire_packet;
      wire_packet.src_index = index_;
      wire_packet.tag = tag;
      wire_packet.payload = std::move(buffer);
      wire_packet.send_time = flow_start;
      wire_packet.visible_time = wire.depart + model().wire_latency;
      wire_packet.wire_end = wire.wire_end;
      wire_packet.one_sided = opts.one_sided;
      wire_packet.completion = opts.completion;
      wire_packet.timing = timing;
      return wire_packet;
    };
    // The receiving NIC, or the consumer it hands the buffer to, gives it
    // back to the pool.
    util::Bytes packet = payload();
    if (fault == FaultAction::Duplicate) {
      dst_nic.enqueue(descriptor(
          snapshot(network_, util::ConstIovec{util::ByteSpan(packet)}, n)));
    }
    if (fault == FaultAction::Corrupt) {
      injector->corrupt(util::MutByteSpan(packet));
    }
    dst_nic.enqueue(descriptor(std::move(packet)));
  }

  // One-sided sends are bus-master DMA regardless of the protocol's
  // configured tx_op: the NIC pushes from registered memory, the CPU's
  // programmed-I/O path (and its PCI-arbitration penalty) is bypassed.
  host_.bus().transfer(opts.one_sided ? PciOp::Dma : model().tx_op, n);
  timing->src_flow_end = engine_.now();
  dst_nic.notify_tx_done();
  ++packets_sent_;
  bytes_sent_ += n;
}

void Nic::send(int dst_index, std::uint64_t tag,
               const util::ConstIovec& data, const SendOptions& opts) {
  // Snapshotted at flow start; the sender is blocked for the whole flow,
  // so the source cannot change meanwhile.
  const std::size_t n = util::total_size(data);
  transmit(dst_index, tag, n, [&] { return snapshot(network_, data, n); },
           opts);
}

void Nic::send(int dst_index, std::uint64_t tag, util::Bytes packet,
               const SendOptions& opts) {
  // The buffer already is the packet. It goes back to the pool if the
  // packet is dropped, or if this sender unwinds before the flow starts.
  util::BufferLease lease(network_.buffer_pool(), std::move(packet));
  transmit(dst_index, tag, lease.size(), [&lease] { return lease.release(); },
           opts);
}

void Nic::wait_rx_space() {
  const std::uint32_t limit = model().rx_queue_packets;
  if (limit == 0) {
    return;
  }
  while (queued_total_ >= limit) {
    rx_space_.wait();
  }
}

void Nic::send(int dst_index, std::uint64_t tag, util::ByteSpan data,
               const SendOptions& opts) {
  send(dst_index, tag, util::ConstIovec{data}, opts);
}

void Nic::enqueue(WirePacket packet) {
  TagQueue& q = tag_queue(packet.tag);
  q.packets.push_back(std::move(packet));
  ++queued_total_;
  q.cond.notify_all();
}

void Nic::notify_tx_done() { tx_done_.notify_all(); }

PacketInfo Nic::peek(std::uint64_t tag) {
  TagQueue& q = tag_queue(tag);
  while (q.packets.empty()) {
    q.cond.wait();
  }
  const WirePacket& head = q.packets.front();
  return {head.src_index, static_cast<std::uint32_t>(head.payload.size())};
}

std::optional<PacketInfo> Nic::peek_until(std::uint64_t tag,
                                          sim::Time deadline) {
  TagQueue& q = tag_queue(tag);
  while (q.packets.empty()) {
    if (q.cond.wait_until(deadline) == sim::WakeReason::Timeout &&
        q.packets.empty()) {
      return std::nullopt;
    }
  }
  const WirePacket& head = q.packets.front();
  return PacketInfo{head.src_index,
                    static_cast<std::uint32_t>(head.payload.size())};
}

std::optional<PacketInfo> Nic::try_peek(std::uint64_t tag) {
  TagQueue& q = tag_queue(tag);
  if (q.packets.empty()) {
    return std::nullopt;
  }
  const WirePacket& head = q.packets.front();
  return PacketInfo{head.src_index,
                    static_cast<std::uint32_t>(head.payload.size())};
}

WirePacket Nic::consume(std::uint64_t tag) {
  TagQueue& q = tag_queue(tag);
  while (q.packets.empty()) {
    q.cond.wait();
  }
  WirePacket packet = std::move(q.packets.front());
  q.packets.pop_front();
  --queued_total_;
  rx_space_.notify_all();
  // Back to the pool if this receiver unwinds while it waits below.
  util::BufferLease payload(network_.buffer_pool(), std::move(packet.payload));

  engine_.sleep_until(packet.visible_time);
  // A one-sided write lands in pre-registered memory without receiver
  // software: only its completion notification costs host time.
  if (!packet.one_sided || packet.completion) {
    engine_.sleep_for(model().rx_host_overhead);
  }
  {
    // One receive engine per NIC as well.
    sim::Lock::Guard engine_guard(rx_engine_);
    host_.bus().transfer(packet.one_sided ? PciOp::Dma : model().rx_op,
                         payload.size());
  }
  // The receive cannot complete before the last byte has physically made it
  // across: source flow end (or wire serialization end) plus latency.
  while (packet.timing->src_flow_end == sim::kForever) {
    tx_done_.wait();
  }
  const sim::Time last_byte =
      std::max(packet.timing->src_flow_end, packet.wire_end) +
      model().wire_latency;
  if (engine_.now() < last_byte) {
    engine_.sleep_until(last_byte);
  }
  if (sim::TraceSink* trace = network_.trace();
      trace != nullptr && trace->enabled()) {
    trace->instant("net:" + network_.name(), engine_.now(), "pkt.rx",
                   "nic" + std::to_string(packet.src_index) + "->nic" +
                       std::to_string(index_) +
                       " bytes=" + std::to_string(payload.size()));
  }
  if (sim::MetricsRegistry* metrics = network_.metrics();
      metrics != nullptr && metrics->enabled()) {
    metrics->histogram("net.packet_us", "network=" + network_.name())
        .record(sim::to_microseconds(engine_.now() - packet.send_time));
  }
  packet.payload = payload.release();
  return packet;
}

void Nic::recv_into(std::uint64_t tag, const util::MutIovec& dst) {
  WirePacket packet = consume(tag);
  MAD_ASSERT(util::total_size(dst) == packet.payload.size(),
             "recv_into: destination size " +
                 std::to_string(util::total_size(dst)) +
                 " != packet size " + std::to_string(packet.payload.size()));
  util::scatter(packet.payload, dst);
  network_.note_scatter(packet.payload.size());
  network_.buffer_pool().give(std::move(packet.payload));
}

void Nic::recv_into(std::uint64_t tag, util::MutByteSpan dst) {
  recv_into(tag, util::MutIovec{dst});
}

util::Bytes Nic::recv_buffer(std::uint64_t tag) {
  return std::move(consume(tag).payload);
}

std::vector<std::byte> Nic::recv_owned(std::uint64_t tag) {
  WirePacket packet = consume(tag);
  std::vector<std::byte> payload(packet.payload.begin(),
                                 packet.payload.end());
  network_.buffer_pool().give(std::move(packet.payload));
  return payload;
}

StaticBufferPool::Ref Nic::recv_static(std::uint64_t tag) {
  MAD_ASSERT(model().rx_static() || model().hybrid(),
             "recv_static on dynamic-buffer protocol " + model().protocol);
  StaticBufferPool::Ref ref = rx_pool().acquire();
  WirePacket packet = consume(tag);
  MAD_ASSERT(packet.payload.size() <= ref.capacity(),
             "packet larger than static buffer");
  std::copy(packet.payload.begin(), packet.payload.end(), ref.span().begin());
  ref.set_used(packet.payload.size());
  network_.buffer_pool().give(std::move(packet.payload));
  return ref;
}

StaticBufferPool& Nic::tx_pool() {
  MAD_ASSERT(tx_pool_ != nullptr,
             "tx_pool on dynamic-tx protocol " + model().protocol);
  return *tx_pool_;
}

StaticBufferPool& Nic::rx_pool() {
  MAD_ASSERT(rx_pool_ != nullptr,
             "rx_pool on dynamic-rx protocol " + model().protocol);
  return *rx_pool_;
}

std::size_t Nic::queued(std::uint64_t tag) const {
  const auto it = queues_.find(tag);
  return it == queues_.end() ? 0 : it->second->packets.size();
}

}  // namespace mad::net
