// Virtual-time condition variable.
//
// Because the engine runs one actor at a time, there is no associated mutex:
// checking the predicate and calling wait() is already atomic with respect
// to other actors. Waiters are woken in FIFO order (deterministic).
#pragma once

#include <deque>
#include <string>
#include <utility>

#include "sim/engine.hpp"

namespace mad::sim {

class Condition {
 public:
  /// `name` appears in deadlock diagnostics.
  explicit Condition(Engine& engine, std::string name = "cond");
  ~Condition();

  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  /// Blocks the calling actor until notified.
  void wait();

  /// Blocks until notified or until virtual time reaches `deadline`.
  WakeReason wait_until(Time deadline);

  /// Wakes the longest-waiting actor, if any.
  void notify_one();

  /// Wakes all waiting actors (in wait order).
  void notify_all();

  std::size_t waiter_count() const { return waiters_.size(); }
  const std::string& name() const { return name_; }
  Engine& engine() const { return engine_; }

 private:
  friend class Engine;

  Engine& engine_;
  std::string name_;
  std::deque<ActorId> waiters_;
};

/// Virtual-time lock: a busy flag plus the Condition its waiters queue on,
/// so waiters take it in FIFO order.
class Lock {
 public:
  /// `name` is the condition's, as deadlock diagnostics print it.
  Lock(Engine& engine, std::string name) : free_(engine, std::move(name)) {}

  void lock() {
    while (busy_) {
      free_.wait();
    }
    busy_ = true;
  }
  void unlock() {
    busy_ = false;
    free_.notify_one();
  }

  /// Holds the lock for one scope.
  class Guard {
   public:
    explicit Guard(Lock& lock) : lock_(lock) { lock_.lock(); }
    ~Guard() { lock_.unlock(); }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    Lock& lock_;
  };

 private:
  bool busy_ = false;
  Condition free_;
};

}  // namespace mad::sim
