#include "mad/tm.hpp"

#include <utility>

#include "util/panic.hpp"

namespace mad {

TransmissionModule::TransmissionModule(net::Nic& nic)
    : nic_(nic) {}

void TransmissionModule::send_packet(int dst_nic_index, std::uint64_t tag,
                                     const util::ConstIovec& data) {
  nic_.send(dst_nic_index, tag, data);
}

void TransmissionModule::send_packet(int dst_nic_index, std::uint64_t tag,
                                     util::Bytes packet) {
  nic_.send(dst_nic_index, tag, std::move(packet));
}

void TransmissionModule::recv_packet(std::uint64_t tag,
                                     const util::MutIovec& dst) {
  nic_.recv_into(tag, dst);
}

std::vector<std::byte> TransmissionModule::recv_packet_owned(
    std::uint64_t tag) {
  return nic_.recv_owned(tag);
}

net::StaticBufferPool::Ref TransmissionModule::acquire_static_buffer() {
  return nic_.tx_pool().acquire();
}

net::StaticBufferPool::Ref TransmissionModule::recv_packet_static(
    std::uint64_t tag) {
  return nic_.recv_static(tag);
}

void TransmissionModule::send_static_buffer(
    int dst_nic_index, std::uint64_t tag,
    const net::StaticBufferPool::Ref& buffer) {
  MAD_ASSERT(buffer.used() > 0, "sending empty static buffer");
  nic_.send(dst_nic_index, tag, buffer.data());
}

std::uint32_t TransmissionModule::mtu() const {
  const auto& model = nic_.model();
  if (model.tx_static()) {
    return std::min(model.max_packet, model.static_buffer_size);
  }
  return model.max_packet;
}

}  // namespace mad
