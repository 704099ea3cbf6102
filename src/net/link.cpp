#include "net/link.hpp"

#include <algorithm>

#include "sim/metrics.hpp"
#include "util/panic.hpp"

namespace mad::net {

Network::Network(sim::Engine& engine, int id, std::string name,
                 NicModelParams model, util::BufferPool& packets)
    : engine_(engine), id_(id), name_(std::move(name)),
      model_(std::move(model)), acks_(engine, name_), buffers_(packets) {
  MAD_ASSERT(model_.wire_bandwidth > 0, "wire bandwidth must be positive");
  MAD_ASSERT(buffers_.capacity() >= model_.max_packet,
             "packet pool smaller than max_packet on " + name_);
}

void Network::set_fault_plan(FaultPlan plan) {
  injector_ = std::make_unique<FaultInjector>(std::move(plan));
  injector_->set_metrics(metrics_, "network=" + name_);
}

void Network::post_ack(std::uint64_t tag, int receiver_nic, int sender_nic,
                       std::uint32_t epoch, std::uint32_t seq) {
  const sim::Time now = engine_.now();
  if (injector_ != nullptr &&
      (injector_->nic_down(receiver_nic, now) ||
       injector_->nic_down(sender_nic, now) ||
       injector_->link_down(receiver_nic, sender_nic, now))) {
    injector_->count_ack_suppressed();
    return;
  }
  acks_.post(tag, receiver_nic, epoch, seq, now + model_.wire_latency);
}

void Network::post_mark(std::uint64_t tag, int receiver_nic, int sender_nic,
                        std::uint32_t epoch) {
  const sim::Time now = engine_.now();
  if (injector_ != nullptr &&
      (injector_->nic_down(receiver_nic, now) ||
       injector_->nic_down(sender_nic, now) ||
       injector_->link_down(receiver_nic, sender_nic, now))) {
    injector_->count_ack_suppressed();
    return;
  }
  acks_.post_mark(tag, receiver_nic, epoch, now + model_.wire_latency);
}

void Network::post_reject(std::uint64_t tag, int receiver_nic, int sender_nic,
                          std::uint32_t epoch) {
  const sim::Time now = engine_.now();
  if (injector_ != nullptr &&
      (injector_->nic_down(receiver_nic, now) ||
       injector_->nic_down(sender_nic, now) ||
       injector_->link_down(receiver_nic, sender_nic, now))) {
    injector_->count_ack_suppressed();
    return;
  }
  acks_.post_reject(tag, receiver_nic, epoch, now + model_.wire_latency);
}

void Network::post_hold(std::uint64_t tag, int receiver_nic, int sender_nic,
                        std::uint32_t epoch) {
  const sim::Time now = engine_.now();
  if (injector_ != nullptr &&
      (injector_->nic_down(receiver_nic, now) ||
       injector_->nic_down(sender_nic, now) ||
       injector_->link_down(receiver_nic, sender_nic, now))) {
    injector_->count_ack_suppressed();
    return;
  }
  acks_.post_hold(tag, receiver_nic, epoch, now + model_.wire_latency);
}

void Network::post_sack(std::uint64_t tag, int receiver_nic, int sender_nic,
                        std::uint32_t epoch, std::uint32_t seq) {
  const sim::Time now = engine_.now();
  if (injector_ != nullptr &&
      (injector_->nic_down(receiver_nic, now) ||
       injector_->nic_down(sender_nic, now) ||
       injector_->link_down(receiver_nic, sender_nic, now))) {
    injector_->count_ack_suppressed();
    return;
  }
  acks_.post_sack(tag, receiver_nic, epoch, seq, now + model_.wire_latency);
}

int Network::attach(Nic* nic) {
  MAD_ASSERT(nic != nullptr, "attach(nullptr)");
  nics_.push_back(nic);
  return static_cast<int>(nics_.size()) - 1;
}

Nic& Network::nic(int index) const {
  MAD_ASSERT(index >= 0 && static_cast<std::size_t>(index) < nics_.size(),
             "bad NIC index " + std::to_string(index) + " on network " +
                 name_);
  return *nics_[static_cast<std::size_t>(index)];
}

Network::WireReservation Network::reserve_wire(int src, int dst,
                                               std::uint64_t bytes,
                                               sim::Time start) {
  sim::Time& busy = wire_busy_[{src, dst}];
  const sim::Time depart = std::max(start, busy);
  const sim::Time wire_end =
      depart + sim::transfer_time(bytes, model_.wire_bandwidth);
  busy = wire_end;
  if (metrics_ != nullptr && metrics_->enabled()) {
    metrics_->histogram("net.wire_wait_us", "network=" + name_)
        .record(sim::to_microseconds(depart - start));
  }
  return {depart, wire_end};
}

}  // namespace mad::net
