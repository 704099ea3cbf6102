#include "fwd/rdma_tm.hpp"

#include <utility>

#include "net/host.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "util/panic.hpp"

namespace mad::fwd {

void RdmaOptions::validate() const {
  MAD_ASSERT(rendezvous_threshold >= 1,
             "rendezvous_threshold must be >= 1 byte");
  MAD_ASSERT(cache_capacity >= 1, "registration cache needs capacity >= 1");
}

RdmaTm::RdmaTm(sim::Engine& engine, net::Nic& nic, const RdmaOptions& options,
               std::string label)
    : engine_(engine),
      nic_(nic),
      options_(options),
      label_(std::move(label)),
      cache_(options.cache_capacity, label_ + ".mr") {}

sim::Time RdmaTm::pin_cost(std::size_t len) const {
  const std::size_t pages = (len + kPinPageSize - 1) / kPinPageSize;
  return kPinBaseCost + static_cast<sim::Time>(pages) * kPinPageCost;
}

bool RdmaTm::acquire_charged(const RegionKey& region) {
  const bool hit = cache_.acquire(region);
  sim::MetricsRegistry* metrics = nic_.network().metrics();
  if (metrics != nullptr && metrics->enabled()) {
    metrics->counter(hit ? "rdma.mr_hits" : "rdma.mr_misses", label_).add();
  }
  if (!hit) {
    // The pin syscall runs on this actor's CPU.
    engine_.sleep_for(pin_cost(region.len));
  }
  return hit;
}

RdmaTm::Pin::Pin(RdmaTm& tm, const RegionKey& region)
    : cache_(tm.cache_), region_(region) {
  hit_ = tm.acquire_charged(region);
}

RdmaTm::Pin::~Pin() { cache_.release(region_); }

void RdmaTm::write(int dst_nic_index, std::uint64_t tag, util::ByteSpan data,
                   RegionKey region, bool completion) {
  MAD_ASSERT(!data.empty(), label_ + ": one-sided write of empty span");
  region.len = data.size();
  // The source stays pinned for the whole flow: Nic::send blocks this
  // actor until the last byte left the host bus.
  const Pin pin(*this, region);
  nic_.send(dst_nic_index, tag, data,
            net::SendOptions{/*one_sided=*/true, completion});
  count_write(data.size());
}

void RdmaTm::write(int dst_nic_index, std::uint64_t tag, util::Bytes packet,
                   RegionKey region, bool completion) {
  MAD_ASSERT(!packet.empty(), label_ + ": one-sided write of empty buffer");
  region.len = packet.size();
  const Pin pin(*this, region);
  nic_.send(dst_nic_index, tag, std::move(packet),
            net::SendOptions{/*one_sided=*/true, completion});
  count_write(region.len);
}

void RdmaTm::count_write(std::size_t bytes) {
  ++writes_;
  bytes_written_ += bytes;
  sim::MetricsRegistry* metrics = nic_.network().metrics();
  if (metrics != nullptr && metrics->enabled()) {
    metrics->counter("rdma.writes", label_).add();
    metrics->counter("rdma.bytes", label_).add(bytes);
  }
}

bool RdmaTm::rendezvous(RdmaTm& remote, std::uint64_t remote_key,
                        std::size_t len) {
  MAD_ASSERT(len > 0, label_ + ": rendezvous for empty block");
  // Control round trip: the request (key, len) out, the remote key back.
  // Control frames are tiny — pure latency plus per-packet software on
  // both hosts; no bus contention worth modelling.
  const net::NicModelParams& local = nic_.model();
  const net::NicModelParams& peer = remote.nic_.model();
  engine_.sleep_for(local.tx_host_overhead + local.wire_latency +
                    peer.rx_host_overhead + peer.tx_host_overhead +
                    peer.wire_latency + local.rx_host_overhead);
  // The remote side looks its receive region up in its own pin-down
  // cache; a miss pins it while this actor waits for the reply.
  const RegionKey region{RegionKey::Kind::ReceiveRegion, remote_key, 0, len};
  const bool hit = remote.acquire_charged(region);
  remote.cache_.release(region);
  ++rendezvous_count_;
  if (hit) {
    ++rendezvous_hits_;
  }
  sim::MetricsRegistry* metrics = nic_.network().metrics();
  if (metrics != nullptr && metrics->enabled()) {
    metrics->counter("rdma.rendezvous", label_).add();
  }
  return hit;
}

void RdmaTm::invalidate() {
  cache_.invalidate_all();
  sim::MetricsRegistry* metrics = nic_.network().metrics();
  if (metrics != nullptr && metrics->enabled()) {
    metrics->counter("rdma.invalidate", label_).add();
  }
}

}  // namespace mad::fwd
