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
#include "net/packet_log.hpp"
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
  Network(sim::Engine& engine, int id, std::string name,
          NicModelParams model);

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

  /// Wire sniffer shared by all networks of the fabric (set by Fabric).
  PacketLog* packet_log() const { return packet_log_; }
  void set_packet_log(PacketLog* log) { packet_log_ = log; }

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

  /// Payload buffers of the packets on this network's wire, at capacity
  /// model().max_packet: a NIC takes one per packet it sends, the
  /// receiving NIC gives it back once the payload is placed.
  util::BufferPool& buffer_pool() { return buffers_; }
  const util::BufferPool& buffer_pool() const { return buffers_; }

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

 private:
  PacketLog* packet_log_ = nullptr;
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
  util::BufferPool buffers_;
};

}  // namespace mad::net
