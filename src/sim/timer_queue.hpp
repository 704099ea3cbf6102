// Timer queue of the virtual-time engine: one binary min-heap.
//
// Each actor has at most one pending timer (enforced here and by the
// engine), so ActorId doubles as the timer key. The dominant pattern is
// the RTO idiom: recv_until() arms a timeout that is almost always
// cancelled a moment later when the paquet arrives. Cancellation is
// therefore O(1) and lazy: it bumps the id's generation and leaves the
// entry in the heap, to be skipped when it surfaces at the top. Once such
// stale entries outnumber live ones 2:1 the heap is rebuilt without them,
// so memory stays bounded.
//
// Determinism contract: expiry order is exactly ascending (deadline, rank),
// the engine's rank of the actor (by default its id). Generations never
// take part in the ordering.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace mad::sim {

class TimerQueue {
 public:
  struct Entry {
    Time deadline = 0;
    int id = -1;
    std::uint32_t gen = 0;  // arm generation; identifies the live arm
    std::int64_t rank = 0;  // tie-break among equal deadlines

    friend bool operator<(const Entry& a, const Entry& b) {
      return a.deadline != b.deadline ? a.deadline < b.deadline
                                      : a.rank < b.rank;
    }
  };

  /// Arms a timer for actor `id` (>= 0, one pending timer per id) at
  /// `deadline`, which may not precede the last deadline popped, ranked
  /// `rank` among equal deadlines (-1: by id; ranks must be distinct).
  void arm(Time deadline, int id, std::int64_t rank = -1);

  /// Cancels actor `id`'s pending timer. Must be armed. O(1) amortized.
  void cancel(int id);

  bool armed(int id) const;
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Removes and returns the earliest live (deadline, id) pair. Requires
  /// !empty(). The engine consumes it by advancing its clock.
  Entry pop_min();

 private:
  struct Arm {
    std::uint32_t gen = 0;  // matches Entry::gen while the arm is live
    bool armed = false;
  };

  bool live(const Entry& e) const {
    const Arm& a = arms_[static_cast<std::size_t>(e.id)];
    return a.armed && a.gen == e.gen;
  }

  std::vector<Entry> heap_;  // min-heap, lazily cancelled
  std::vector<Arm> arms_;    // indexed by actor id
  std::size_t size_ = 0;     // LIVE timers
  Time last_ = 0;            // deadline of the last pop
};

}  // namespace mad::sim
