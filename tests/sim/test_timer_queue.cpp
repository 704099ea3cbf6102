#include "sim/timer_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace mad::sim {
namespace {

TEST(TimerQueue, PopsInDeadlineOrder) {
  TimerQueue w;
  w.arm(nanoseconds(300), 0);
  w.arm(nanoseconds(100), 1);
  w.arm(nanoseconds(200), 2);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.pop_min().id, 1);
  EXPECT_EQ(w.pop_min().id, 2);
  EXPECT_EQ(w.pop_min().id, 0);
  EXPECT_TRUE(w.empty());
}

TEST(TimerQueue, TiesBreakByActorId) {
  TimerQueue w;
  // Same deadline, ids armed out of order: expiry must be ascending id —
  // the determinism contract inherited from the old std::set queue.
  for (int id : {7, 2, 9, 0, 5}) {
    w.arm(microseconds(10), id);
  }
  std::vector<int> order;
  while (!w.empty()) {
    const auto e = w.pop_min();
    EXPECT_EQ(e.deadline, microseconds(10));
    order.push_back(e.id);
  }
  EXPECT_EQ(order, (std::vector<int>{0, 2, 5, 7, 9}));
}

TEST(TimerQueue, CancelRemovesAndUnarms) {
  TimerQueue w;
  w.arm(nanoseconds(50), 0);
  w.arm(nanoseconds(60), 1);
  EXPECT_TRUE(w.armed(0));
  w.cancel(0);
  EXPECT_FALSE(w.armed(0));
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(w.pop_min().id, 1);
}

TEST(TimerQueue, CancelThenRearmAtSameDeadline) {
  TimerQueue w;
  // The stale lazily-cancelled entry is bit-identical in (deadline, id)
  // to the live rearm; only the generation distinguishes them. The queue
  // must deliver exactly one expiry.
  for (int round = 0; round < 5; ++round) {
    w.arm(microseconds(3), 42);
    w.cancel(42);
  }
  w.arm(microseconds(3), 42);
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(w.pop_min().id, 42);
  EXPECT_TRUE(w.empty());
}

TEST(TimerQueue, FarDeadlinesPopInOrder) {
  TimerQueue w;
  w.arm(seconds(120), 0);
  w.arm(microseconds(5), 1);
  w.arm(seconds(90), 2);
  EXPECT_EQ(w.pop_min().id, 1);
  EXPECT_EQ(w.pop_min().id, 2);
  EXPECT_EQ(w.pop_min().id, 0);
}

TEST(TimerQueue, RtoCancelStormStaysBounded) {
  TimerQueue w;
  // The forwarding layer's duty cycle: arm a retransmission timeout,
  // cancel it when the paquet arrives — thousands of times per live
  // expiry. Lazy cancellation must keep bookkeeping exact through the
  // compaction sweeps this triggers.
  for (int round = 0; round < 10'000; ++round) {
    const int id = round % 64;
    w.arm(milliseconds(5) + nanoseconds(round), id);
    EXPECT_TRUE(w.armed(id));
    w.cancel(id);
    EXPECT_FALSE(w.armed(id));
    EXPECT_TRUE(w.empty());
  }
  w.arm(milliseconds(1), 3);
  w.arm(milliseconds(2), 1);
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(w.pop_min().id, 3);
  EXPECT_EQ(w.pop_min().id, 1);
}

// Differential test: random arm/cancel/pop traffic against the reference
// ordered set the engine once used. Every extraction must match the set's
// minimum exactly — deadline AND id.
TEST(TimerQueue, MatchesOrderedSetReference) {
  util::Rng rng(0x71e77bee15eedULL);
  TimerQueue w;
  std::set<std::pair<Time, int>> ref;
  std::vector<Time> armed_at(256, -1);  // -1 = unarmed
  Time floor = 0;  // deadlines may not precede the last pop

  for (int step = 0; step < 50'000; ++step) {
    const std::uint64_t op = rng.next_u64() % 100;
    if (op < 55) {  // arm a random unarmed id
      const int id = static_cast<int>(rng.next_u64() % armed_at.size());
      if (armed_at[static_cast<std::size_t>(id)] >= 0) {
        continue;
      }
      Time d = floor + static_cast<Time>(rng.next_u64() % microseconds(40));
      if (rng.next_u64() % 50 == 0) {
        d += seconds(60);  // far deadlines
      }
      w.arm(d, id);
      ref.emplace(d, id);
      armed_at[static_cast<std::size_t>(id)] = d;
    } else if (op < 80) {  // cancel a random armed id
      const int id = static_cast<int>(rng.next_u64() % armed_at.size());
      if (armed_at[static_cast<std::size_t>(id)] < 0) {
        continue;
      }
      w.cancel(id);
      ref.erase({armed_at[static_cast<std::size_t>(id)], id});
      armed_at[static_cast<std::size_t>(id)] = -1;
    } else if (!ref.empty()) {  // pop the minimum
      const auto e = w.pop_min();
      ASSERT_EQ(e.deadline, ref.begin()->first) << "at step " << step;
      ASSERT_EQ(e.id, ref.begin()->second) << "at step " << step;
      ref.erase(ref.begin());
      armed_at[static_cast<std::size_t>(e.id)] = -1;
      floor = e.deadline;
    }
    ASSERT_EQ(w.size(), ref.size());
  }
  while (!ref.empty()) {
    const auto e = w.pop_min();
    ASSERT_EQ(e.deadline, ref.begin()->first);
    ASSERT_EQ(e.id, ref.begin()->second);
    ref.erase(ref.begin());
  }
  EXPECT_TRUE(w.empty());
}

}  // namespace
}  // namespace mad::sim
