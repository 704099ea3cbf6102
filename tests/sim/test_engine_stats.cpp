// Scheduler accounting (Engine::stats) and the wakeup-storm regression.
//
// The storm this pins down: Mailbox used to notify its not_full_ condition
// on EVERY recv — including on unbounded boxes, where nobody can ever wait
// on it — and Condition::notify paid a scheduler round-trip even with no
// waiters. A producer/consumer pair over an unbounded box therefore cost
// O(items) context switches of pure overhead. Now a no-op notify is a
// counter increment, and the unbounded-box recv path skips the notify
// entirely, so mailbox traffic between two actors costs exactly the
// switches the data handoff itself requires.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/condition.hpp"
#include "sim/engine.hpp"
#include "sim/mailbox.hpp"

namespace mad::sim {
namespace {

TEST(EngineStats, NoopNotifyIsCountedAndCostsNoSwitch) {
  Engine eng;
  eng.spawn("a", [&] {
    Condition cond(eng, "cond");
    const Engine::Stats before = eng.stats();
    for (int i = 0; i < 1000; ++i) {
      cond.notify_one();
      cond.notify_all();
    }
    const Engine::Stats after = eng.stats();
    EXPECT_EQ(after.noop_notifies, before.noop_notifies + 2000);
    EXPECT_EQ(after.notifies, before.notifies);
    EXPECT_EQ(after.switches, before.switches);
  });
  eng.run();
}

TEST(EngineStats, UnboundedMailboxStormCostsNoExtraSwitches) {
  // Reference: the switches a run costs with NO mailbox traffic at all.
  const auto run_with_traffic = [](int items) {
    Engine eng;
    eng.spawn("a", [&eng, items] {
      Mailbox<int> box(eng, /*capacity=*/0, "box");
      for (int i = 0; i < items; ++i) {
        box.send(i);
      }
      for (int i = 0; i < items; ++i) {
        (void)box.recv();
      }
    });
    eng.run();
    return eng.stats();
  };
  const Engine::Stats quiet = run_with_traffic(0);
  const Engine::Stats storm = run_with_traffic(5000);
  EXPECT_EQ(storm.switches, quiet.switches);
  // Each send still notifies not_empty_ (no waiter -> no-op); each recv of
  // an unbounded box must not notify not_full_ at all.
  EXPECT_EQ(storm.noop_notifies, quiet.noop_notifies + 5000);
  EXPECT_EQ(storm.notifies, quiet.notifies);
}

TEST(EngineStats, BoundedMailboxStillWakesBlockedSender) {
  Engine eng;
  std::vector<int> got;
  Mailbox<int>* box = nullptr;
  eng.spawn("pair", [&] {
    Mailbox<int> b(eng, /*capacity=*/1, "box");
    box = &b;
    Engine& e = *Engine::current();
    e.spawn("producer", [&b] {
      for (int i = 0; i < 4; ++i) {
        b.send(i);  // blocks on the full box until the consumer drains
      }
    });
    for (int i = 0; i < 4; ++i) {
      got.push_back(b.recv());
    }
  });
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_GT(eng.stats().notifies, 0u);  // real wakeups happened
}

TEST(EngineStats, SwitchesMatchContextSwitchesAndHandoffsAreAttributed) {
  Engine eng;
  Condition* pc = nullptr;
  int turns = 0;
  eng.spawn("a", [&] {
    Condition cond(eng, "cond");
    pc = &cond;
    Engine& e = *Engine::current();
    e.spawn("b", [&] {
      while (turns < 10) {
        pc->notify_one();
        e.yield();
      }
    });
    while (turns < 10) {
      ++turns;
      cond.wait_until(e.now() + microseconds(1));
    }
  });
  eng.run();
  const Engine::Stats s = eng.stats();
  EXPECT_EQ(s.switches, eng.context_switches());
  // Actor-to-actor handoffs dominate; run() only adjudicates the ends.
  EXPECT_GT(s.direct_handoffs, 0u);
  EXPECT_GT(s.switches, s.scheduler_rounds);
}

TEST(EngineStats, IdenticalRunsReportIdenticalStatsAndWakeOrder) {
  const auto run_once = [](std::vector<int>& wake_order) {
    Engine eng;
    Condition* gate = nullptr;
    int woken = 0;
    eng.spawn("root", [&] {
      Engine& e = *Engine::current();
      Condition cond(eng, "gate");
      gate = &cond;
      for (int i = 0; i < 8; ++i) {
        e.spawn("w" + std::to_string(i), [&, i] {
          e.sleep_for(nanoseconds(100 * (i % 3)));
          gate->wait();
          wake_order.push_back(i);
          ++woken;
        });
      }
      e.sleep_for(microseconds(1));
      gate->notify_all();
      while (woken < 8) {
        e.yield();
      }
    });
    eng.run();
    return eng.stats();
  };
  std::vector<int> order_a;
  std::vector<int> order_b;
  const Engine::Stats a = run_once(order_a);
  const Engine::Stats b = run_once(order_b);
  EXPECT_EQ(order_a, order_b);
  EXPECT_EQ(order_a.size(), 8u);
  EXPECT_EQ(a.switches, b.switches);
  EXPECT_EQ(a.timer_fires, b.timer_fires);
  EXPECT_EQ(a.notifies, b.notifies);
  EXPECT_EQ(a.noop_notifies, b.noop_notifies);
  EXPECT_EQ(a.direct_handoffs, b.direct_handoffs);
  EXPECT_EQ(a.scheduler_rounds, b.scheduler_rounds);
}

// Pins the exact schedule of a run that leans on the timer queue's tie
// order: identical-run equality cannot catch a queue that changes the tie
// order consistently. 1000 sleepers share one deadline, 64 RTO-style
// receivers arm and cancel a recv_until timeout per round (some of them
// expire on the very instant their paquet is sent), and a few deadlines
// lie past 17 s, one of them cancelled by a notify. The figures were
// recorded with the hierarchical timer wheel the binary-heap queue
// replaced; both queues must give exactly this schedule.
TEST(EngineStats, TimerTieOrderIsPinned) {
  constexpr int kSleepers = 1000;
  constexpr int kReceivers = 64;
  constexpr int kRounds = 20;
  Engine eng;
  // One wake record per resumption: (actor id, virtual time).
  std::vector<std::pair<ActorId, Time>> wakes;
  std::vector<int> sleeper_order;
  int timeouts = 0;
  eng.spawn("root", [&] {
    Engine& e = *Engine::current();
    for (int i = 0; i < kSleepers; ++i) {
      e.spawn("sleeper" + std::to_string(i), [&, i] {
        // Staggered arming, so arm order is not id order.
        e.sleep_for(nanoseconds((i * 37) % 11));
        e.sleep_until(microseconds(50));
        wakes.emplace_back(e.current_actor_id(), e.now());
        sleeper_order.push_back(i);
      });
    }
    std::vector<std::unique_ptr<Mailbox<int>>> boxes;
    for (int k = 0; k < kReceivers; ++k) {
      boxes.push_back(std::make_unique<Mailbox<int>>(e, 0, "rto"));
    }
    for (int k = 0; k < kReceivers; ++k) {
      Mailbox<int>& box = *boxes[static_cast<std::size_t>(k)];
      e.spawn("sender" + std::to_string(k), [&, k] {
        for (int r = 0; r < kRounds; ++r) {
          e.sleep_for(microseconds((k * 7 + r * 13) % 5));
          box.send(r);
        }
      });
      e.spawn("receiver" + std::to_string(k), [&] {
        for (int r = 0; r < kRounds; ++r) {
          // A 3 us RTO: the sender's 3 us and 4 us delays expire it.
          const std::optional<int> got =
              box.recv_until(e.now() + microseconds(3));
          wakes.emplace_back(e.current_actor_id(), e.now());
          if (!got) {
            ++timeouts;
            (void)box.recv();
            wakes.emplace_back(e.current_actor_id(), e.now());
          }
        }
      });
    }
    Condition far(e, "far");
    e.spawn("far-waiter", [&] {
      // Cancelled by the first far sleeper's notify, at 18 s.
      EXPECT_EQ(far.wait_until(seconds(40)), WakeReason::Notified);
      wakes.emplace_back(e.current_actor_id(), e.now());
    });
    for (const Time t : {seconds(20), seconds(18) + nanoseconds(5),
                         seconds(20)}) {
      e.spawn("far", [&, t] {
        e.sleep_until(t);
        wakes.emplace_back(e.current_actor_id(), e.now());
        far.notify_all();
      });
    }
    e.sleep_until(seconds(25));
  });
  eng.run();

  std::vector<int> ascending(kSleepers);
  for (int i = 0; i < kSleepers; ++i) {
    ascending[static_cast<std::size_t>(i)] = i;
  }
  EXPECT_EQ(sleeper_order, ascending);
  // FNV-1a over the whole wake log.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto& [id, t] : wakes) {
    for (const std::uint64_t v : {static_cast<std::uint64_t>(id),
                                  static_cast<std::uint64_t>(t)}) {
      hash = (hash ^ v) * 0x100000001b3ULL;
    }
  }
  const Engine::Stats s = eng.stats();
  EXPECT_EQ(wakes.size(), 2540u);
  EXPECT_EQ(hash, 16641142369553904613ULL);
  EXPECT_EQ(timeouts, 256);
  EXPECT_EQ(eng.now(), seconds(25));
  EXPECT_EQ(s.switches, 5351u);
  EXPECT_EQ(s.timer_fires, 3193u);
  EXPECT_EQ(s.notifies, 1025u);
  EXPECT_EQ(s.noop_notifies, 258u);
  EXPECT_EQ(s.direct_handoffs, 5350u);
  EXPECT_EQ(s.scheduler_rounds, 1u);
  EXPECT_EQ(s.stacks_mapped, 1133u);
}

}  // namespace
}  // namespace mad::sim
