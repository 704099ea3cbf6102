#include "sim/timer_queue.hpp"

#include <algorithm>

#include "util/panic.hpp"

namespace mad::sim {

namespace {

// std::*_heap build max-heaps; this comparison puts the minimum on top.
struct MinOnTop {
  bool operator()(const TimerQueue::Entry& a,
                  const TimerQueue::Entry& b) const {
    return b < a;
  }
};

}  // namespace

bool TimerQueue::armed(int id) const {
  return id >= 0 && static_cast<std::size_t>(id) < arms_.size() &&
         arms_[static_cast<std::size_t>(id)].armed;
}

void TimerQueue::arm(Time deadline, int id, std::int64_t rank) {
  MAD_ASSERT(id >= 0, "timer for a negative actor id");
  MAD_ASSERT(deadline >= last_, "timer armed before the last fired deadline");
  if (static_cast<std::size_t>(id) >= arms_.size()) {
    arms_.resize(static_cast<std::size_t>(id) + 1);
  }
  Arm& a = arms_[static_cast<std::size_t>(id)];
  MAD_ASSERT(!a.armed, "timer already armed");
  // A fresh generation invalidates every entry this id left behind from
  // earlier lazily-cancelled arms, even bit-identical rearms.
  ++a.gen;
  a.armed = true;
  heap_.push_back({deadline, id, a.gen, rank < 0 ? id : rank});
  std::push_heap(heap_.begin(), heap_.end(), MinOnTop{});
  ++size_;
}

void TimerQueue::cancel(int id) {
  MAD_ASSERT(armed(id), "cancel of an unarmed timer");
  arms_[static_cast<std::size_t>(id)].armed = false;
  --size_;
  const std::size_t stale = heap_.size() - size_;
  if (stale > 64 && stale > 2 * size_) {
    std::erase_if(heap_, [this](const Entry& e) { return !live(e); });
    std::make_heap(heap_.begin(), heap_.end(), MinOnTop{});
    MAD_ASSERT(heap_.size() == size_, "timer compaction miscount");
  }
}

TimerQueue::Entry TimerQueue::pop_min() {
  MAD_ASSERT(size_ > 0, "pop_min on an empty timer queue");
  for (;;) {
    const Entry top = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), MinOnTop{});
    heap_.pop_back();
    if (live(top)) {
      arms_[static_cast<std::size_t>(top.id)].armed = false;
      --size_;
      last_ = top.deadline;
      return top;
    }
  }
}

}  // namespace mad::sim
