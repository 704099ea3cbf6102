// Deterministic virtual-time execution engine.
//
// The engine runs a set of actors, each a stackful fiber on the thread that
// calls run(). EXACTLY ONE actor executes at a time and control only changes
// hands at blocking points (sleep, condition wait, yield), by a user-space
// context switch. Together with a virtual clock this gives:
//   * determinism — the interleaving is a pure function of program logic,
//     never of host scheduling;
//   * race freedom — there is one host thread, so shared state needs no
//     locking between actors;
//   * exact timing — durations are *charged* (sleep_for) according to the
//     hardware models in src/net, not measured.
//
// This substitutes for the paper's real Pentium-II/Linux-2.2 testbed; the
// fibers are the counterpart of its Marcel user-level threads. What the
// evaluation measures is overlap and bus contention, which a virtual-time
// engine reproduces faithfully (DESIGN.md §3).
#pragma once

#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "sim/timer_wheel.hpp"

namespace mad::sim {

class Engine;
class Condition;
class TraceSink;

/// Identifies an actor within its engine; also the deterministic tie-breaker
/// for simultaneous timer wakeups.
using ActorId = int;

/// Why a blocking wait returned.
enum class WakeReason { Notified, Timeout };

/// Thrown inside actor frames when the engine shuts down (all non-daemon
/// actors finished, or an error occurred elsewhere). Intentionally not
/// derived from std::exception so that user-level `catch (...)`-free code
/// cannot swallow it by accident; the actor trampoline catches it.
struct StopSimulation {};

/// Reported by Engine::run when non-daemon actors are all blocked with no
/// timer pending.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Lightweight handle to a spawned actor.
class ActorHandle {
 public:
  ActorHandle() = default;
  ActorId id() const { return id_; }
  bool valid() const { return id_ >= 0; }

 private:
  friend class Engine;
  explicit ActorHandle(ActorId id) : id_(id) {}
  ActorId id_ = -1;
};

/// The virtual-time engine. Create, spawn actors, run().
class Engine {
 public:
  /// Stack of every actor fiber, the usual default thread stack on Linux.
  /// Committed lazily, page by page, with a guard page below it. A finished
  /// actor's stack stays mapped for the engine's next spawn.
  static constexpr std::size_t kActorStackBytes = std::size_t{8} << 20;

  Engine();
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers an actor. `daemon` actors do not keep the simulation alive:
  /// once every non-daemon actor has finished, daemons are unwound with
  /// StopSimulation. May be called before run() or from a running actor.
  ActorHandle spawn(std::string name, std::function<void()> body,
                    bool daemon = false);

  /// Runs the simulation until all non-daemon actors finish. Rethrows the
  /// first actor exception, throws DeadlockError on deadlock, and throws
  /// std::runtime_error if the clock passes the configured horizon.
  void run();

  /// Current virtual time.
  Time now() const { return now_; }

  /// Aborts run() with an error if virtual time would exceed this horizon —
  /// a safety net against accidental infinite simulations.
  void set_time_horizon(Time horizon) { horizon_ = horizon; }

  /// Attaches a trace sink; when it is enabled the scheduler records actor
  /// lifecycle instants (actor.spawn / actor.block / actor.wake) on each
  /// actor's own track. The sink must outlive the engine (or be detached
  /// with nullptr first).
  void set_trace(TraceSink* trace) { trace_ = trace; }
  TraceSink* trace() const { return trace_; }

  /// --- blocking operations; must be called from an actor of this engine ---

  /// Advances this actor's virtual time by `duration` (>= 0).
  void sleep_for(Time duration);

  /// Blocks until virtual time `deadline`.
  void sleep_until(Time deadline);

  /// Reschedules the calling actor behind currently-ready actors at the
  /// same virtual instant.
  void yield();

  /// --- introspection ---

  /// The engine whose actor is running on the calling thread, or nullptr
  /// when called from outside any actor.
  static Engine* current();

  /// Name of the currently running actor ("<none>" outside actors).
  std::string current_actor_name() const;

  /// Id of the currently running actor (-1 outside actors).
  ActorId current_actor_id() const;

  /// True once shutdown has been requested (non-daemons done or error).
  bool stop_requested() const { return stopping_; }

  /// Number of context switches performed — useful as a determinism probe
  /// in tests: two identical runs must report identical counts.
  std::uint64_t context_switches() const { return switches_; }

  /// Scheduler internals exposed for the engine self-benchmark and the
  /// wakeup-storm regression tests. All deterministic counters: two
  /// identical runs must report identical values.
  struct Stats {
    std::uint64_t switches = 0;          // == context_switches()
    std::uint64_t timer_fires = 0;       // timer-queue wakeups delivered
    std::uint64_t notifies = 0;          // Condition notifies that woke someone
    std::uint64_t noop_notifies = 0;     // notifies skipped (no waiters)
    std::uint64_t direct_handoffs = 0;   // actor->actor switches bypassing run()
    std::uint64_t scheduler_rounds = 0;  // times control returned to run()
    std::uint64_t stacks_mapped = 0;     // actor stacks mapped; finished
                                         // actors' stacks are reused
  };
  Stats stats() const;

 private:
  friend class Condition;

  enum class Status { Created, Ready, Running, Blocked, Finished };

  struct ActorState;
  struct Fiber;

  ActorState& self();
  ActorState& actor(ActorId id);

  /// Parks the calling actor (already queued somewhere) and switches to
  /// whatever hand_off elects; returns when rescheduled.
  WakeReason park();

  /// The scheduler proper: advances timers until an actor is runnable and
  /// elects it (a *direct* handoff when called from a parking or finishing
  /// actor — run() never sees the switch), or, when nothing is runnable,
  /// elects run() for termination/deadlock handling and yields nullptr.
  /// `from_actor` only attributes the switch in stats().
  ActorState* hand_off(bool from_actor);

  /// Marks `a` finished, captures its error, and elects the next actor.
  ActorState* finish(ActorState& a, std::exception_ptr error);

  /// Entry point of every actor fiber; never returns.
  static void fiber_main();
  /// Switches from the running context to `to`; returns when `from` is
  /// switched back to.
  void switch_to(Fiber& from, Fiber& to);
  /// First thing a context does after a switch lands on it.
  void resumed(Fiber& self);

  void make_ready(ActorState& a, WakeReason reason);
  void arm_timer(ActorState& a, Time deadline);
  void cancel_timer(ActorState& a);
  void request_stop();
  [[noreturn]] void throw_deadlock();

  std::vector<std::unique_ptr<ActorState>> actors_;
  std::deque<ActorId> ready_;
  TimerWheel timers_;
  Time now_ = 0;
  Time horizon_ = kForever;
  TraceSink* trace_ = nullptr;
  ActorId running_ = -1;
  Fiber* scheduler_ = nullptr;     // run()'s own context while run() is active
  ActorState* zombie_ = nullptr;   // finished actor still on its own stack
  Fiber* switched_from_ = nullptr; // context left by the last switch (ASan)
  bool stopping_ = false;
  std::uint64_t switches_ = 0;
  std::uint64_t timer_fires_ = 0;
  std::uint64_t notifies_ = 0;
  std::uint64_t noop_notifies_ = 0;
  std::uint64_t direct_handoffs_ = 0;
  std::uint64_t scheduler_rounds_ = 0;
  std::uint64_t stacks_mapped_ = 0;
  std::vector<void*> free_stacks_;  // of finished actors; ~Engine unmaps
  std::size_t live_non_daemons_ = 0;
  std::exception_ptr first_error_;
  std::exception_ptr engine_error_;
};

}  // namespace mad::sim
