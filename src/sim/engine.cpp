#include "sim/engine.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <cxxabi.h>
#include <sstream>

#include "sim/condition.hpp"
#include "sim/engine_internal.hpp"
#include "sim/fiber.hpp"
#include "sim/trace.hpp"
#include "util/panic.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#define MAD_ASAN_FIBERS 1
#else
#define MAD_ASAN_FIBERS 0
#endif

namespace mad::sim {

namespace {

/// The engine inside whose run() the calling thread is.
thread_local Engine* t_engine = nullptr;

std::size_t guard_bytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

/// Maps a stack with a PROT_NONE guard page below it, so an overflow
/// faults instead of running into a neighbour's memory.
void* map_stack() {
  void* base = mmap(nullptr, guard_bytes() + Engine::kActorStackBytes,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                    -1, 0);
  MAD_ASSERT(base != MAP_FAILED, "cannot map an actor stack");
  MAD_ASSERT(mprotect(base, guard_bytes(), PROT_NONE) == 0,
             "cannot protect an actor stack's guard page");
  return static_cast<char*>(base) + guard_bytes();
}

}  // namespace

void UnmapStack::operator()(void* stack) const {
  munmap(static_cast<char*>(stack) - guard_bytes(),
         guard_bytes() + Engine::kActorStackBytes);
}

Engine::Engine() = default;

Engine::~Engine() {
  for (void* stack : free_stacks_) {
    UnmapStack{}(stack);
  }
}

ActorHandle Engine::spawn(std::string name, std::function<void()> body,
                          bool daemon) {
  MAD_ASSERT(!stopping_, "spawn after shutdown");
  const ActorId id = static_cast<ActorId>(actors_.size());
  auto state = std::make_unique<ActorState>();
  ActorState* a = state.get();
  a->id = id;
  a->name = std::move(name);
  a->daemon = daemon;
  a->rank = ranks_++;
  a->body = std::move(body);
  if (free_stacks_.empty()) {
    a->stack.reset(map_stack());
    ++stacks_mapped_;
  } else {
    a->stack.reset(free_stacks_.back());
    free_stacks_.pop_back();
  }
  Fiber& f = a->fiber;
  f.stack = a->stack.get();
  f.stack_bytes = kActorStackBytes;
#if MAD_ASAN_FIBERS
  // A stack's last actor never returned from its outermost frames, whose
  // redzones are still poisoned; a fresh mapping may reuse the addresses
  // of a stack another engine unmapped.
  __asan_unpoison_memory_region(f.stack, f.stack_bytes);
#endif
  fiber_init(f.context, f.stack, f.stack_bytes, &Engine::fiber_main);
  actors_.push_back(std::move(state));
  if (!daemon) {
    ++live_non_daemons_;
  }
  // Newly spawned actors start at the back of the ready queue, at the
  // current virtual instant.
  a->status = Status::Ready;
  ready_.push_back(id);
  if (trace_ != nullptr && trace_->enabled()) {
    trace_->instant(a->name, now_, "actor.spawn");
  }
  return ActorHandle(id);
}

void Engine::fiber_main() {
  Engine& e = *t_engine;
  ActorState& a = e.self();
  e.resumed(a.fiber);
  ActorState* next = nullptr;
  {
    // Scoped so nothing is left to destroy on a stack that is never
    // returned to.
    std::exception_ptr error;
    // Shutdown before the actor ever ran: skip the body.
    if (!e.stopping_) {
      try {
        a.body();
      } catch (const StopSimulation&) {
        // normal shutdown unwinding
      } catch (...) {
        error = std::current_exception();
      }
    }
    next = e.finish(a, std::move(error));
  }
  e.zombie_ = &a;
  e.switch_to(a.fiber, next != nullptr ? next->fiber : *e.scheduler_);
}

void Engine::switch_to(Fiber& from, Fiber& to) {
  void* eh = abi::__cxa_get_globals();
  std::memcpy(from.eh.data(), eh, from.eh.size());
  std::memcpy(eh, to.eh.data(), to.eh.size());
#if MAD_ASAN_FIBERS
  // A finishing actor never comes back: ASan may drop its fake stack.
  const bool exiting = zombie_ != nullptr && &zombie_->fiber == &from;
  switched_from_ = &from;
  __sanitizer_start_switch_fiber(exiting ? nullptr : &from.asan_fake_stack,
                                 to.stack, to.stack_bytes);
#endif
  fiber_switch(from.context, to.context);
  resumed(from);
}

void Engine::resumed(Fiber& self) {
#if MAD_ASAN_FIBERS
  const void* bottom = nullptr;
  std::size_t bytes = 0;
  __sanitizer_finish_switch_fiber(self.asan_fake_stack, &bottom, &bytes);
  if (switched_from_ == scheduler_) {
    // The only way to learn the bounds of run()'s own stack.
    scheduler_->stack = const_cast<void*>(bottom);
    scheduler_->stack_bytes = bytes;
  }
#else
  (void)self;
#endif
  if (zombie_ != nullptr) {
    free_stacks_.push_back(zombie_->stack.release());
    zombie_ = nullptr;
  }
}

Engine* Engine::current() {
  return t_engine != nullptr && t_engine->running_ >= 0 ? t_engine : nullptr;
}

Engine::Stats Engine::stats() const {
  Stats s;
  s.switches = switches_;
  s.timer_fires = timer_fires_;
  s.notifies = notifies_;
  s.noop_notifies = noop_notifies_;
  s.direct_handoffs = direct_handoffs_;
  s.scheduler_rounds = scheduler_rounds_;
  s.spawns = actors_.size();
  s.stacks_mapped = stacks_mapped_;
  return s;
}

std::string Engine::current_actor_name() const {
  if (running_ < 0) {
    return "<none>";
  }
  return actors_[static_cast<std::size_t>(running_)]->name;
}

ActorId Engine::current_actor_id() const { return running_; }

Engine::ActorState& Engine::self() {
  MAD_ASSERT(t_engine == this && running_ >= 0,
             "blocking call from outside an actor of this engine");
  return *actors_[static_cast<std::size_t>(running_)];
}

Engine::ActorState& Engine::actor(ActorId id) {
  MAD_ASSERT(id >= 0 && static_cast<std::size_t>(id) < actors_.size(),
             "bad actor id");
  return *actors_[static_cast<std::size_t>(id)];
}

Engine::KeepAlive::KeepAlive(Engine& engine, ActorHandle worker)
    : engine_(&engine) {
  ++engine.live_non_daemons_;
  engine.actor(worker.id()).rank = engine.ranks_++;
}

void Engine::make_ready(ActorState& a, WakeReason reason) {
  MAD_ASSERT(a.status == Status::Blocked, "make_ready on non-blocked actor");
  cancel_timer(a);
  if (a.waiting_cond != nullptr) {
    auto& waiters = a.waiting_cond->waiters_;
    waiters.erase(std::find(waiters.begin(), waiters.end(), a.id));
    a.waiting_cond = nullptr;
  }
  a.status = Status::Ready;
  a.wake_reason = reason;
  ready_.push_back(a.id);
  if (trace_ != nullptr && trace_->enabled()) {
    trace_->instant(a.name, now_, "actor.wake",
                    reason == WakeReason::Timeout ? "reason=timeout"
                                                  : "reason=notified");
  }
}

void Engine::arm_timer(ActorState& a, Time deadline) {
  MAD_ASSERT(!timers_.armed(a.id), "timer already armed");
  timers_.arm(deadline, a.id, a.rank);
}

void Engine::cancel_timer(ActorState& a) {
  if (timers_.armed(a.id)) {
    timers_.cancel(a.id);
  }
}

void Engine::request_stop() {
  if (stopping_) {
    return;
  }
  stopping_ = true;
  for (auto& a : actors_) {
    if (a->status == Status::Blocked) {
      make_ready(*a, WakeReason::Notified);
    }
  }
  MAD_ASSERT(timers_.empty(), "timers survive shutdown");
}

WakeReason Engine::park() {
  // The caller has already queued this actor (ready queue, condition
  // waiters and/or timer queue) with status Blocked or Ready.
  ActorState& a = self();
  // Yields park as Ready; only a true wait (sleep, condition) is a block.
  if (trace_ != nullptr && trace_->enabled() &&
      a.status == Status::Blocked) {
    trace_->instant(a.name, now_, "actor.block");
  }
  ActorState* next = hand_off(/*from_actor=*/true);
  // A self-handoff (e.g. our own timer was the next event) needs no switch.
  if (next != &a) {
    switch_to(a.fiber, next != nullptr ? next->fiber : *scheduler_);
  }
  return a.wake_reason;
}

Engine::ActorState* Engine::hand_off(bool from_actor) {
  // No actor is logically running: the caller is either a parking or
  // finishing actor (whose frame no longer counts as running) or run().
  // Every scheduler decision — timer expiry, clock advance, wake — happens
  // here, then exactly one context is elected: the next actor (a direct
  // handoff) or run().
  if (live_non_daemons_ == 0 && !stopping_) {
    request_stop();
  }
  for (;;) {
    if (!ready_.empty()) {
      const ActorId id = ready_.front();
      ready_.pop_front();
      ActorState& next = actor(id);
      MAD_ASSERT(next.status == Status::Ready, "dispatch of non-ready actor");
      running_ = id;
      next.status = Status::Running;
      ++switches_;
      if (from_actor) {
        ++direct_handoffs_;
      }
      return &next;
    }
    if (!timers_.empty()) {
      // pop_min disarms the timer it returns, so make_ready will not
      // cancel it again.
      const TimerQueue::Entry e = timers_.pop_min();
      ActorState& ta = actor(e.id);
      // Every way out of Blocked cancels the actor's timer.
      MAD_ASSERT(ta.status == Status::Blocked,
                 "fired timer for an unarmed actor");
      if (e.deadline > horizon_ && !stopping_) {
        if (!engine_error_) {
          engine_error_ = std::make_exception_ptr(std::runtime_error(
              "virtual time horizon exceeded (possible runaway simulation)"));
        }
        request_stop();
        continue;
      }
      MAD_ASSERT(e.deadline >= now_, "time went backwards");
      now_ = e.deadline;
      ++timer_fires_;
      make_ready(ta, WakeReason::Timeout);
      continue;
    }
    // Nothing runnable anywhere: give control to run() for termination or
    // deadlock handling.
    running_ = -1;
    ++scheduler_rounds_;
    return nullptr;
  }
}

Engine::ActorState* Engine::finish(ActorState& a, std::exception_ptr error) {
  a.status = Status::Finished;
  if (!a.daemon) {
    --live_non_daemons_;
  }
  if (error && !first_error_) {
    first_error_ = error;
    request_stop();
  }
  return hand_off(/*from_actor=*/true);
}

void Engine::throw_deadlock() {
  // Collects diagnostics, transitions to shutdown.
  std::ostringstream os;
  os << "virtual-time deadlock at t=" << now_ << "ns; blocked actors:";
  for (const auto& a : actors_) {
    if (a->status == Status::Blocked) {
      os << "\n  - " << a->name << (a->daemon ? " [daemon]" : "")
         << " waiting on "
         << (a->waiting_cond != nullptr ? a->waiting_cond->name()
                                        : std::string("<sleep>"));
    }
  }
  throw DeadlockError(os.str());
}

void Engine::run() {
  MAD_ASSERT(scheduler_ == nullptr, "Engine::run is not reentrant");
  MAD_ASSERT(t_engine == nullptr, "Engine::run from an actor");
  Fiber scheduler;
  scheduler_ = &scheduler;
  t_engine = this;
  const auto leave = [this] {
    scheduler_ = nullptr;
    t_engine = nullptr;
  };

  // run() only seeds execution and adjudicates the "nothing runnable"
  // states (termination, deadlock). Actor-to-actor switches are direct
  // handoffs inside park()/fiber_main() and never come back here.
  for (;;) {
    if (ActorState* next = hand_off(/*from_actor=*/false)) {
      switch_to(scheduler, next->fiber);  // back once nothing is runnable
    }
    const bool all_finished =
        std::all_of(actors_.begin(), actors_.end(), [](const auto& a) {
          return a->status == Status::Finished;
        });
    if (all_finished) {
      break;
    }
    if (stopping_) {
      // Shutdown was requested and everything woken, yet some actor is
      // blocked again: that actor ignored StopSimulation.
      leave();
      MAD_PANIC("actor re-blocked during shutdown");
    }
    try {
      throw_deadlock();
    } catch (...) {
      engine_error_ = std::current_exception();
      request_stop();
    }
  }

  leave();
  if (first_error_) {
    std::rethrow_exception(first_error_);
  }
  if (engine_error_) {
    std::rethrow_exception(engine_error_);
  }
}

void Engine::sleep_for(Time duration) {
  MAD_ASSERT(duration >= 0, "negative sleep");
  sleep_until(now_ + duration);
}

void Engine::sleep_until(Time deadline) {
  ActorState& a = self();
  if (stopping_) {
    throw StopSimulation{};
  }
  if (deadline <= now_) {
    return;
  }
  arm_timer(a, deadline);
  a.status = Status::Blocked;
  park();
  if (stopping_) {
    throw StopSimulation{};
  }
}

void Engine::yield() {
  ActorState& a = self();
  if (stopping_) {
    throw StopSimulation{};
  }
  a.status = Status::Ready;
  ready_.push_back(a.id);
  park();
  if (stopping_) {
    throw StopSimulation{};
  }
}

}  // namespace mad::sim
