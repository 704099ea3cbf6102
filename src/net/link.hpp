// One physical network: a set of NICs joined by a switched fabric.
//
// The wire itself is modelled as a per-(source, destination) serialized
// resource: packets between the same pair of NICs go out one after another
// at `wire_bandwidth`, plus a one-way first-byte latency. For Myrinet and
// SCI the wire is faster than the PCI bus, so in practice only the latency
// matters; for Fast-Ethernet the wire is the bottleneck and the
// serialization term dominates (which is exactly why the paper rejects
// PACX-style TCP forwarding).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/fault.hpp"
#include "net/params.hpp"
#include "sim/engine.hpp"
#include "util/arena.hpp"

namespace mad::sim {
class MetricsRegistry;
class TraceSink;
}  // namespace mad::sim

namespace mad::net {

class Nic;

class Network {
 public:
  /// `packets` is the fabric's packet pool (Fabric::add_network), whose
  /// capacity must cover model.max_packet.
  Network(sim::Engine& engine, int id, std::string name,
          NicModelParams model, util::BufferPool& packets);

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  const NicModelParams& model() const { return model_; }
  sim::Engine& engine() const { return engine_; }

  /// Registers a NIC; returns its index (address) on this network.
  int attach(Nic* nic);

  Nic& nic(int index) const;
  std::size_t size() const { return nics_.size(); }

  struct WireReservation {
    sim::Time depart;    // first byte leaves the source NIC
    sim::Time wire_end;  // last byte has left the wire
  };

  /// Serializes `bytes` on the src→dst direction starting no earlier than
  /// `start`; returns the departure and completion instants.
  WireReservation reserve_wire(int src, int dst, std::uint64_t bytes,
                               sim::Time start);

  /// Fabric-wide metrics registry and trace sink (set by Fabric; may be
  /// null on hand-built networks). NICs and the protocol layers above
  /// reach both through here.
  sim::MetricsRegistry* metrics() const { return metrics_; }
  void set_metrics(sim::MetricsRegistry* metrics) {
    metrics_ = metrics;
    if (injector_ != nullptr) {
      injector_->set_metrics(metrics, "network=" + name_);
    }
  }
  sim::TraceSink* trace() const { return trace_; }
  void set_trace(sim::TraceSink* trace) { trace_ = trace; }

  /// Attaches a seeded fault plan; every subsequent NIC send on this
  /// network consults it. Replaces any previous plan (fresh Rng + stats).
  void set_fault_plan(FaultPlan plan);
  /// nullptr when no plan is attached (the common, fault-free case).
  FaultInjector* fault_injector() const { return injector_.get(); }

  /// Hop-level ack board for the reliable GTM mode (see net/fault.hpp).
  AckRegistry& acks() { return acks_; }

  /// Payload buffers of the packets on this network's wire: the pool of
  /// the whole fabric, shared by all its networks and sized at their
  /// largest max_packet, because a buffer may arrive on one network and
  /// leave on another. Each packet holds one from its send until the
  /// receiving NIC places the payload, or until whoever took the buffer
  /// from the NIC (Nic::recv_buffer) gives it back or sends it on. A
  /// sender may fill one itself and hand it to the NIC whole; the plain
  /// relay hands on the buffer its paquet arrived in.
  util::BufferPool& buffer_pool() { return buffers_; }
  const util::BufferPool& buffer_pool() const { return buffers_; }

  /// Host bytes the NICs copied into packets: gather lists snapshotted at
  /// flow start and the twins of duplicated packets. Buffers a sender
  /// hands over whole are not counted.
  std::uint64_t snapshot_bytes() const { return snapshot_bytes_; }
  void note_snapshot(std::uint64_t bytes) { snapshot_bytes_ += bytes; }

  /// Host bytes the NICs copied out of packets into receivers' scatter
  /// lists (Nic::recv_into). Buffers a receiver takes whole are not
  /// counted.
  std::uint64_t scatter_bytes() const { return scatter_bytes_; }
  void note_scatter(std::uint64_t bytes) { scatter_bytes_ += bytes; }

  /// Posts a receiver acknowledgement, honouring the fault plan: acks from
  /// or toward a crashed NIC — and acks crossing a downed link — vanish,
  /// which is how senders detect dead peers. Visible to the awaiting
  /// sender one wire latency from now.
  void post_ack(std::uint64_t tag, int receiver_nic, int sender_nic,
                std::uint32_t epoch, std::uint32_t seq);

  /// Same fault handling for a selective ack (out-of-order paquet parked in
  /// the receiver's reorder buffer — sliding-window mode only).
  void post_sack(std::uint64_t tag, int receiver_nic, int sender_nic,
                 std::uint32_t epoch, std::uint32_t seq);

  /// Same fault handling for an ECN-style congestion mark (a gateway whose
  /// per-flow queue crossed its threshold asks the sender to shrink its
  /// adaptive window — fwd/reliable.hpp).
  void post_mark(std::uint64_t tag, int receiver_nic, int sender_nic,
                 std::uint32_t epoch);

  /// Same fault handling for an admission reject (the receiving gateway's
  /// overload controller refused the message; the sender observes it as
  /// fwd::FlowRejected and retries with backoff). If the reject itself is
  /// suppressed by a fault, the sender falls back to its normal timeout
  /// path — slower, but never wedged.
  void post_reject(std::uint64_t tag, int receiver_nic, int sender_nic,
                   std::uint32_t epoch);

  /// Same fault handling for a hold (the receiver accepted the stream but
  /// does not read it yet; see AckRegistry::post_hold).
  void post_hold(std::uint64_t tag, int receiver_nic, int sender_nic,
                 std::uint32_t epoch);

 private:
  sim::MetricsRegistry* metrics_ = nullptr;
  sim::TraceSink* trace_ = nullptr;
  sim::Engine& engine_;
  int id_;
  std::string name_;
  NicModelParams model_;
  std::vector<Nic*> nics_;
  std::map<std::pair<int, int>, sim::Time> wire_busy_;
  std::unique_ptr<FaultInjector> injector_;
  AckRegistry acks_;
  util::BufferPool& buffers_;
  std::uint64_t snapshot_bytes_ = 0;
  std::uint64_t scatter_bytes_ = 0;
};

}  // namespace mad::net
