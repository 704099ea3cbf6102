// Gateway incoming-flow regulation (paper §4, future work).
//
// The Myrinet→SCI experiments showed the gateway's incoming DMA flow
// starving the outgoing PIO flow on the shared PCI bus. The paper suggests
// "some sophisticated bandwidth control mechanism ... to regulate the
// incoming communication flow on gateways". This is that mechanism, in its
// simplest useful form: a token-bucket-style pacer that bounds the average
// rate at which the gateway *starts* paquet receives, leaving bus headroom
// for the sender thread. bench_ext_flow_regulation sweeps the rate.
//
// On top of the pacer live the multi-flow egress schedulers (DrrQueue /
// FlowScheduler, PR 7) and the overload-protection layer: strict priority
// classes above DRR and an AdmissionController that rejects or sheds work
// instead of letting origin queues backpressure without bound.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/condition.hpp"
#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "util/panic.hpp"

namespace mad::fwd {

/// Priority class of a forwarded message. Arbitration is strict priority:
/// the egress scheduler serves every pending Control grant before any
/// Latency grant, and Latency before Bulk; DRR fairness applies between
/// flows of the same class. Degradation under overload follows the same
/// order in reverse — bulk is shed first, then latency, never control.
enum class TrafficClass : std::uint8_t { Control = 0, Latency = 1, Bulk = 2 };

inline constexpr int kTrafficClassCount = 3;

/// The class of an origin FlowOptions::classes does not name.
inline constexpr TrafficClass kDefaultTrafficClass = TrafficClass::Bulk;

const char* traffic_class_name(TrafficClass cls);

/// Decodes the wire byte carried in GtmMsgHeader::traffic_class. Message
/// headers ride the unreliable framing path, so a byte mangled past the
/// known range is treated as Bulk (lowest priority, safest default) rather
/// than trusted or panicked on; checksummed paquets catch real corruption.
TrafficClass traffic_class_from_wire(std::uint8_t value);

inline std::size_t traffic_class_index(TrafficClass cls) {
  return static_cast<std::size_t>(cls);
}

class Regulator {
 public:
  /// rate in bytes/s; 0 disables pacing entirely.
  Regulator(sim::Engine& engine, double rate)
      : engine_(engine), rate_(rate) {
    MAD_ASSERT(rate >= 0.0, "regulation rate must be >= 0 bytes/s");
  }

  bool enabled() const { return rate_ > 0.0; }

  /// Call before receiving a paquet of `bytes`: blocks until the paced
  /// schedule allows it, then reserves the paquet's time slot.
  void pace(std::uint64_t bytes);

 private:
  sim::Engine& engine_;
  double rate_;
  sim::Time next_allowed_ = 0;
};

/// The Regulator generalized from pacing to windowing: a counted credit
/// pool shared between a producer (the striping pack() path) and one rail
/// sender actor. The producer acquires a credit per chunk it hands to the
/// rail; the rail releases it once the chunk is on the wire (acknowledged,
/// in reliable mode). A rail that stalls — regulated, slow, or mid-failover
/// — therefore backpressures only its own stripe: pack() keeps feeding the
/// other rails until this one's window is full.
class CreditWindow {
 public:
  CreditWindow(sim::Engine& engine, std::uint32_t credits, std::string name)
      : available_(credits),
        total_(credits),
        freed_(engine, std::move(name)) {
    MAD_ASSERT(credits > 0, "credit window must hold at least one credit");
  }

  /// Blocks until a credit is free, then takes it.
  void acquire() {
    while (available_ == 0) {
      freed_.wait();
    }
    --available_;
  }

  void release() {
    MAD_ASSERT(available_ < total_, "credit released twice");
    ++available_;
    freed_.notify_all();
  }

  std::uint32_t available() const { return available_; }
  std::uint32_t total() const { return total_; }
  std::uint32_t in_flight() const { return total_ - available_; }

 private:
  std::uint32_t available_;
  std::uint32_t total_;
  sim::Condition freed_;
};

/// Deficit-round-robin over per-flow byte queues — the scheduling core
/// of the gateway's multi-flow forwarder (FlowScheduler queues its parked
/// grant requests here), kept free of simulator state so its service
/// order is unit-testable as a plain data structure.
///
/// Classic DRR (Shreedhar & Varghese): each backlogged flow holds a byte
/// deficit; a round-robin cursor visits flows, topping the visited flow's
/// deficit up by `quantum × weight` once per visit and serving queued
/// items while they fit. A flow whose head item exceeds its deficit keeps
/// the remainder for its next visit, so over time each backlogged flow
/// receives wire bytes proportional to its weight regardless of item
/// sizes. A flow that goes idle forfeits its deficit — credit never
/// accumulates while there is nothing to send.
///
/// Flows belong to a TrafficClass; classes are arbitrated strictly (every
/// backlogged Control flow is served before any Latency flow, Latency
/// before Bulk) with an independent DRR round per class. With all flows in
/// one class this degenerates to the classic single-band walk.
class DrrQueue {
 public:
  explicit DrrQueue(std::uint64_t quantum) : quantum_(quantum) {
    MAD_ASSERT(quantum > 0, "DRR quantum must be positive");
  }

  /// Registers a flow with the given scheduling weight; returns its id.
  /// Ids are dense and stable, in registration order.
  int add_flow(double weight = 1.0, TrafficClass cls = TrafficClass::Bulk);

  void enqueue(int flow, std::uint64_t bytes) {
    flow_at(flow).items.push_back(bytes);
    ++pending_;
  }

  struct Item {
    int flow = -1;
    std::uint64_t bytes = 0;
  };

  /// Next item in service order (strict class priority, DRR within the
  /// class), or nullopt when every queue is empty.
  std::optional<Item> dequeue();

  bool empty() const { return pending_ == 0; }
  TrafficClass class_of(int flow) const { return flow_at(flow).cls; }
  double weight_of(int flow) const { return flow_at(flow).weight; }
  /// Per-visit deficit top-up of `flow`: quantum x weight, at least 1.
  std::uint64_t allowance(int flow) const {
    const double q = static_cast<double>(quantum_) * flow_at(flow).weight;
    return q < 1.0 ? 1 : static_cast<std::uint64_t>(q);
  }

 private:
  struct Flow {
    double weight = 1.0;
    TrafficClass cls = TrafficClass::Bulk;
    std::uint64_t deficit = 0;
    bool topped_up = false;  // quantum granted for the current visit
    std::deque<std::uint64_t> items;
  };

  Flow& flow_at(int flow) {
    MAD_ASSERT(flow >= 0 && static_cast<std::size_t>(flow) < flows_.size(),
               "bad DRR flow id " + std::to_string(flow));
    return flows_[static_cast<std::size_t>(flow)];
  }
  const Flow& flow_at(int flow) const {
    return const_cast<DrrQueue*>(this)->flow_at(flow);
  }

  std::uint64_t quantum_;
  std::vector<Flow> flows_;
  // Flow ids of each class in registration order, plus the per-class DRR
  // cursor (an index into the band vector, not a flow id).
  std::array<std::vector<int>, kTrafficClassCount> band_{};
  std::array<std::size_t, kTrafficClassCount> band_cursor_{};
  std::size_t pending_ = 0;
};

/// DrrQueue lifted into the simulation: a blocking egress arbiter for the
/// gateway's per-flow relay actors. Each actor brackets every reliable
/// paquet it forwards with acquire(flow, bytes) / release(flow); at most
/// one grant is outstanding at a time (the egress NIC serializes anyway),
/// and contended grants are issued in DRR order, so concurrent flows share
/// the outgoing wire in proportion to their weights instead of in
/// whatever order their ingress paquets happened to land.
///
/// Parked requests are the items of a DrrQueue and every grant is that
/// queue's next dequeue, so the scheduler adds only the wire's busy flag
/// and per-flow FIFO tickets. The DRR cursor stays on the granted flow
/// between grants: a flow with deficit left keeps the wire for its whole
/// burst (classic DRR visit semantics), then hands over. Uncontended
/// traffic — one active flow — passes straight through with one top-up
/// per visit and no waiting.
///
/// Classes are strict priority across bands (see DrrQueue): when the wire
/// frees, every parked Control request is granted before any Latency
/// request and Latency before Bulk. Arbitration is non-preemptive — a
/// grant already on the wire finishes — so the worst case a control paquet
/// waits is one bulk bundle, never a full DRR round.
class FlowScheduler {
 public:
  FlowScheduler(sim::Engine& engine, std::uint64_t quantum, std::string name)
      : parked_(quantum), granted_cond_(engine, std::move(name)) {}

  /// Registers a flow with the given weight; returns its id. `key` is the
  /// caller's identity for the flow (the gateway uses origin·class);
  /// registering the same non-negative key twice is a diagnosable panic —
  /// a duplicate would silently split one origin's traffic across two DRR
  /// deficits. Pass key = -1 for anonymous flows.
  int add_flow(double weight = 1.0, TrafficClass cls = TrafficClass::Bulk,
               std::int64_t key = -1);

  /// Blocks until the DRR order grants this flow the wire for one item of
  /// `bytes`. Requests within a flow are served FIFO.
  void acquire(int flow, std::uint64_t bytes);

  /// Returns the wire; the next grant (any flow) is issued immediately.
  void release(int flow);

  /// Per-visit byte allowance of `flow`: quantum x weight, the DRR
  /// top-up. Egress actors bundle up to this many already-queued bytes
  /// into ONE acquire, so a single round-robin visit moves a
  /// weight-proportional batch. The deficit must live at the actor: a
  /// flow parks one request at a time (park, serve, release, repeat), so
  /// every grant empties its parked queue and a scheduler-side deficit
  /// would be forfeited on every visit, collapsing weights into plain
  /// round-robin.
  std::uint64_t allowance(int flow) const { return parked_.allowance(flow); }

  double weight_of(int flow) const { return parked_.weight_of(flow); }
  TrafficClass class_of(int flow) const { return parked_.class_of(flow); }

  std::uint64_t grants(int flow) const { return flow_at(flow).grants; }
  std::uint64_t granted_bytes(int flow) const {
    return flow_at(flow).granted_bytes;
  }

 private:
  struct Flow {
    std::uint64_t enq_ticket = 0;     // next ticket to hand a requester
    std::uint64_t served_ticket = 0;  // tickets granted so far
    std::uint64_t grants = 0;
    std::uint64_t granted_bytes = 0;
  };

  Flow& flow_at(int flow) {
    MAD_ASSERT(flow >= 0 && static_cast<std::size_t>(flow) < flows_.size(),
               "bad scheduler flow id " + std::to_string(flow));
    return flows_[static_cast<std::size_t>(flow)];
  }
  const Flow& flow_at(int flow) const {
    return const_cast<FlowScheduler*>(this)->flow_at(flow);
  }
  /// Issues the next grant if the wire is free and anything is parked.
  void pump();

  DrrQueue parked_;          // requested sizes, one FIFO per flow
  std::vector<Flow> flows_;  // same ids as parked_
  std::map<std::int64_t, int> keys_;
  bool busy_ = false;         // a grant is outstanding
  int granted_flow_ = -1;     // flow holding the wire while busy_
  std::uint64_t grant_ticket_ = 0;  // which of its requests was granted
  sim::Condition granted_cond_;
};

/// CoDel-style sojourn policy of the gateway admission controller: once a
/// class's dequeue sojourn has stayed at or above kShedTarget for a full
/// kShedInterval, the class sheds (rejects new messages) until a sojourn
/// sample drops back below the target.
inline constexpr sim::Time kShedTarget = sim::milliseconds(20);
inline constexpr sim::Time kShedInterval = sim::milliseconds(100);

/// Budgets for the gateway admission controller, per class; 0 means
/// unlimited.
struct AdmissionOptions {
  bool enabled = false;
  /// Max queued payload bytes per class before new messages are rejected.
  std::array<std::uint64_t, kTrafficClassCount> byte_budget{};
  /// Max concurrently-relayed messages per class.
  std::array<std::uint32_t, kTrafficClassCount> message_budget{};
};

/// Overload gatekeeper for the gateway (pure state machine, virtual time
/// passed in, so policy is unit-testable without a simulator). The gateway
/// asks for a verdict once per arriving reliable message — at the message
/// boundary, because rejecting mid-stream would strand an in-order hop —
/// and accounts queue occupancy as fragments enter and leave the per-flow
/// relay queues.
///
/// Degradation order is structural, not tuned: Control is never rejected
/// (it falls back to plain blocking backpressure), Bulk sheds on its own
/// CoDel state, and Latency sheds only while Bulk is *also* shedding — so
/// load is always stripped from the bottom of the priority order first.
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionOptions& opts) : opts_(opts) {}

  enum class Verdict : std::uint8_t {
    Admit,
    RejectBudget,  // byte or message budget exhausted
    RejectShed,    // CoDel sojourn policy is shedding this class
  };

  /// Verdict for one arriving message. Budgets admit strictly below the
  /// line: an enqueue that lands exactly at budget makes the *next*
  /// admission reject.
  Verdict admit(TrafficClass cls);

  void on_message_admitted(TrafficClass cls) {
    ++state(cls).queued_messages;
  }
  void on_message_done(TrafficClass cls) {
    ClassState& s = state(cls);
    MAD_ASSERT(s.queued_messages > 0, "admission message accounting underflow");
    --s.queued_messages;
  }

  void on_enqueue(TrafficClass cls, std::uint64_t bytes) {
    state(cls).queued_bytes += bytes;
  }

  /// Accounts a dequeue and feeds the class's CoDel state with the item's
  /// sojourn time (returned, for metrics).
  sim::Time on_dequeue(TrafficClass cls, std::uint64_t bytes,
                       sim::Time enqueued_at, sim::Time now);

  std::uint64_t queued_bytes(TrafficClass cls) const {
    return state(cls).queued_bytes;
  }
  std::uint32_t queued_messages(TrafficClass cls) const {
    return state(cls).queued_messages;
  }
  bool shedding(TrafficClass cls) const { return state(cls).shedding; }

 private:
  struct ClassState {
    std::uint64_t queued_bytes = 0;
    std::uint32_t queued_messages = 0;
    bool above_target = false;   // sojourns have not dipped below target
    sim::Time above_since = 0;   // when the current above-target run began
    bool shedding = false;
  };

  ClassState& state(TrafficClass cls) {
    return classes_[traffic_class_index(cls)];
  }
  const ClassState& state(TrafficClass cls) const {
    return classes_[traffic_class_index(cls)];
  }
  bool should_shed(TrafficClass cls) const;
  /// CoDel exit: a fully drained class cannot have standing delay, and it
  /// produces no more dequeue samples to prove it — reopen it here.
  void reopen_if_drained(TrafficClass cls);

  AdmissionOptions opts_;
  std::array<ClassState, kTrafficClassCount> classes_{};
};

}  // namespace mad::fwd
