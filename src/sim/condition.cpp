#include "sim/condition.hpp"

#include "sim/engine_internal.hpp"
#include "util/panic.hpp"

namespace mad::sim {

Condition::Condition(Engine& engine, std::string name)
    : engine_(engine), name_(std::move(name)) {}

Condition::~Condition() {
  MAD_ASSERT(waiters_.empty() || engine_.stop_requested(),
             "Condition '" + name_ + "' destroyed with waiters");
}

void Condition::wait() { wait_until(kForever); }

WakeReason Condition::wait_until(Time deadline) {
  Engine::ActorState& a = engine_.self();
  if (engine_.stopping_) {
    throw StopSimulation{};
  }
  if (deadline != kForever && deadline <= engine_.now_) {
    return WakeReason::Timeout;
  }
  waiters_.push_back(a.id);
  a.waiting_cond = this;
  if (deadline != kForever) {
    engine_.arm_timer(a, deadline);
  }
  a.status = Engine::Status::Blocked;
  const WakeReason reason = engine_.park();
  if (engine_.stopping_) {
    throw StopSimulation{};
  }
  return reason;
}

void Condition::notify_one() {
  // Waiter-aware fast path: with no waiters a notify is a no-op. This is
  // what keeps Mailbox/StaticBufferPool notify storms off the scheduler.
  if (waiters_.empty()) {
    ++engine_.noop_notifies_;
    return;
  }
  ++engine_.notifies_;
  // make_ready removes the actor from our deque and cancels its timer.
  engine_.make_ready(engine_.actor(waiters_.front()), WakeReason::Notified);
}

void Condition::notify_all() {
  if (waiters_.empty()) {
    ++engine_.noop_notifies_;
    return;
  }
  while (!waiters_.empty()) {
    ++engine_.notifies_;
    engine_.make_ready(engine_.actor(waiters_.front()), WakeReason::Notified);
  }
}

}  // namespace mad::sim
