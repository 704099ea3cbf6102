#include "fwd/regulation.hpp"

#include <algorithm>

#include "sim/time.hpp"

namespace mad::fwd {

const char* traffic_class_name(TrafficClass cls) {
  switch (cls) {
    case TrafficClass::Control:
      return "control";
    case TrafficClass::Latency:
      return "latency";
    case TrafficClass::Bulk:
      return "bulk";
  }
  return "bulk";
}

TrafficClass traffic_class_from_wire(std::uint8_t value) {
  if (value >= static_cast<std::uint8_t>(kTrafficClassCount)) {
    return TrafficClass::Bulk;
  }
  return static_cast<TrafficClass>(value);
}

void Regulator::pace(std::uint64_t bytes) {
  if (!enabled()) {
    return;
  }
  const sim::Time now = engine_.now();
  if (now < next_allowed_) {
    engine_.sleep_until(next_allowed_);
  }
  next_allowed_ = std::max(now, next_allowed_) +
                  sim::transfer_time(bytes, rate_);
}

int DrrQueue::add_flow(double weight, TrafficClass cls) {
  MAD_ASSERT(weight > 0.0, "DRR flow weight must be positive");
  const int id = static_cast<int>(flows_.size());
  flows_.push_back(Flow{weight, cls, 0, false, {}});
  band_[traffic_class_index(cls)].push_back(id);
  return id;
}

std::optional<DrrQueue::Item> DrrQueue::dequeue() {
  if (pending_ == 0) {
    return std::nullopt;
  }
  // Strict priority: the first class (in Control → Latency → Bulk order)
  // with a backlogged flow owns this dequeue; DRR applies within it.
  for (std::size_t band = 0; band < band_.size(); ++band) {
    const std::vector<int>& ids = band_[band];
    bool backlogged = false;
    for (const int id : ids) {
      if (!flows_[static_cast<std::size_t>(id)].items.empty()) {
        backlogged = true;
        break;
      }
    }
    if (!backlogged) {
      continue;
    }
    std::size_t& cursor = band_cursor_[band];
    // Terminates: at least one band flow is backlogged, and every full
    // cycle tops its deficit up by >= 1 byte, so its head eventually fits.
    for (;;) {
      if (cursor >= ids.size()) {
        cursor = 0;
      }
      Flow& f = flows_[static_cast<std::size_t>(ids[cursor])];
      if (f.items.empty()) {
        f.deficit = 0;  // idle flows never bank credit
        f.topped_up = false;
        cursor = (cursor + 1) % ids.size();
        continue;
      }
      if (!f.topped_up) {
        f.deficit += allowance(ids[cursor]);
        f.topped_up = true;
      }
      if (f.items.front() <= f.deficit) {
        Item item{ids[cursor], f.items.front()};
        f.deficit -= f.items.front();
        f.items.pop_front();
        --pending_;
        if (f.items.empty()) {
          f.deficit = 0;  // classic DRR: the visit's leftover is forfeited
        }
        // The cursor stays put: the flow keeps serving while its deficit
        // lasts, then the next visit closes it out.
        return item;
      }
      f.topped_up = false;
      cursor = (cursor + 1) % ids.size();  // head too big: next flow
    }
  }
  MAD_PANIC("DRR pending count does not match queued items");
}

int FlowScheduler::add_flow(double weight, TrafficClass cls,
                            std::int64_t key) {
  MAD_ASSERT(weight > 0.0, "flow scheduler weight must be positive");
  const int id = static_cast<int>(flows_.size());
  if (key >= 0) {
    const auto [it, inserted] = keys_.emplace(key, id);
    MAD_ASSERT(inserted, "duplicate flow registration for key " +
                             std::to_string(key) + " (existing flow " +
                             std::to_string(it->second) + ")");
  }
  parked_.add_flow(weight, cls);
  flows_.emplace_back();
  return id;
}

void FlowScheduler::acquire(int flow, std::uint64_t bytes) {
  const std::uint64_t ticket = flow_at(flow).enq_ticket++;
  parked_.enqueue(flow, bytes);
  pump();
  // Grants carry (flow, ticket): only the FIFO-matching requester claims.
  while (!(busy_ && granted_flow_ == flow && grant_ticket_ == ticket)) {
    granted_cond_.wait();
  }
}

void FlowScheduler::release(int flow) {
  MAD_ASSERT(busy_ && granted_flow_ == flow,
             "flow scheduler release without a matching grant");
  busy_ = false;
  pump();
}

void FlowScheduler::pump() {
  if (busy_) {
    return;
  }
  const std::optional<DrrQueue::Item> next = parked_.dequeue();
  if (!next) {
    return;
  }
  Flow& f = flow_at(next->flow);
  busy_ = true;
  granted_flow_ = next->flow;
  grant_ticket_ = f.served_ticket++;
  ++f.grants;
  f.granted_bytes += next->bytes;
  granted_cond_.notify_all();
}

AdmissionController::Verdict AdmissionController::admit(TrafficClass cls) {
  // Control is never rejected: it degrades to plain blocking backpressure,
  // so announces/acks/health traffic stay admitted while data is shed.
  if (cls == TrafficClass::Control) {
    return Verdict::Admit;
  }
  // CoDel exit condition: shedding is reevaluated on dequeue samples, but
  // a class whose queue fully drained while shedding produces no more
  // samples — without this reopen it would reject its own recovery
  // traffic forever.
  reopen_if_drained(TrafficClass::Bulk);
  reopen_if_drained(TrafficClass::Latency);
  ClassState& s = state(cls);
  const std::size_t i = traffic_class_index(cls);
  if (should_shed(cls)) {
    return Verdict::RejectShed;
  }
  if (opts_.message_budget[i] != 0 &&
      s.queued_messages >= opts_.message_budget[i]) {
    return Verdict::RejectBudget;
  }
  if (opts_.byte_budget[i] != 0 && s.queued_bytes >= opts_.byte_budget[i]) {
    return Verdict::RejectBudget;
  }
  return Verdict::Admit;
}

sim::Time AdmissionController::on_dequeue(TrafficClass cls,
                                          std::uint64_t bytes,
                                          sim::Time enqueued_at,
                                          sim::Time now) {
  ClassState& s = state(cls);
  MAD_ASSERT(s.queued_bytes >= bytes, "admission byte accounting underflow");
  s.queued_bytes -= bytes;
  const sim::Time sojourn = now > enqueued_at ? now - enqueued_at : 0;
  if (sojourn < kShedTarget) {
    // One sample under target proves the standing queue drained: reopen.
    s.above_target = false;
    s.shedding = false;
  } else {
    if (!s.above_target) {
      s.above_target = true;
      s.above_since = now;
    } else if (!s.shedding && now - s.above_since >= kShedInterval) {
      s.shedding = true;
    }
  }
  return sojourn;
}

void AdmissionController::reopen_if_drained(TrafficClass cls) {
  ClassState& s = state(cls);
  if (s.shedding && s.queued_bytes == 0 && s.queued_messages == 0) {
    s.shedding = false;
    s.above_target = false;
  }
}

bool AdmissionController::should_shed(TrafficClass cls) const {
  switch (cls) {
    case TrafficClass::Control:
      return false;
    case TrafficClass::Latency:
      // Graceful order: latency sheds only while bulk is already shedding.
      return state(TrafficClass::Latency).shedding &&
             state(TrafficClass::Bulk).shedding;
    case TrafficClass::Bulk:
      return state(TrafficClass::Bulk).shedding;
  }
  return false;
}

}  // namespace mad::fwd
