#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cfenv>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/condition.hpp"
#include "util/panic.hpp"

namespace mad::sim {
namespace {

TEST(Engine, RunsSingleActorToCompletion) {
  Engine eng;
  bool ran = false;
  eng.spawn("a", [&] { ran = true; });
  eng.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(eng.now(), 0);
}

TEST(Engine, SleepAdvancesVirtualClock) {
  Engine eng;
  Time seen = -1;
  eng.spawn("a", [&] {
    Engine::current()->sleep_for(microseconds(150));
    seen = Engine::current()->now();
  });
  eng.run();
  EXPECT_EQ(seen, microseconds(150));
  EXPECT_EQ(eng.now(), microseconds(150));
}

TEST(Engine, ZeroAndNegativePastSleepReturnImmediately) {
  Engine eng;
  eng.spawn("a", [&] {
    Engine* e = Engine::current();
    e->sleep_for(0);
    EXPECT_EQ(e->now(), 0);
    e->sleep_until(-5);  // already past
    EXPECT_EQ(e->now(), 0);
  });
  eng.run();
}

TEST(Engine, ActorsInterleaveInTimestampOrder) {
  Engine eng;
  std::vector<int> order;
  eng.spawn("slow", [&] {
    Engine::current()->sleep_for(microseconds(20));
    order.push_back(2);
  });
  eng.spawn("fast", [&] {
    Engine::current()->sleep_for(microseconds(10));
    order.push_back(1);
  });
  eng.spawn("immediate", [&] { order.push_back(0); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, SimultaneousTimersWakeInActorIdOrder) {
  Engine eng;
  std::vector<std::string> order;
  for (const char* name : {"first", "second", "third"}) {
    eng.spawn(name, [&order, name] {
      Engine::current()->sleep_for(microseconds(5));
      order.emplace_back(name);
    });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<std::string>{"first", "second", "third"}));
}

TEST(Engine, YieldRotatesThroughReadyActors) {
  Engine eng;
  std::vector<int> order;
  eng.spawn("a", [&] {
    order.push_back(1);
    Engine::current()->yield();
    order.push_back(3);
  });
  eng.spawn("b", [&] {
    order.push_back(2);
    Engine::current()->yield();
    order.push_back(4);
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Engine eng;
    std::vector<std::pair<std::string, Time>> events;
    for (int i = 0; i < 5; ++i) {
      eng.spawn("actor" + std::to_string(i), [&events, i] {
        Engine* e = Engine::current();
        for (int k = 0; k < 10; ++k) {
          e->sleep_for(microseconds(1 + (i * 7 + k) % 13));
          events.emplace_back(e->current_actor_name(), e->now());
        }
      });
    }
    eng.run();
    return std::make_pair(events, eng.context_switches());
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

TEST(Engine, SpawnFromRunningActor) {
  Engine eng;
  std::vector<int> order;
  eng.spawn("parent", [&] {
    order.push_back(1);
    Engine::current()->spawn("child", [&] { order.push_back(2); });
    Engine::current()->sleep_for(microseconds(1));
    order.push_back(3);
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, ActorExceptionPropagatesFromRun) {
  Engine eng;
  eng.spawn("boom", [] { throw std::runtime_error("actor failed"); });
  eng.spawn("other", [] {
    Engine::current()->sleep_for(seconds(100));  // must be unwound
  });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, PanicInsideActorPropagates) {
  Engine eng;
  eng.spawn("bad", [] { MAD_PANIC("invariant"); });
  EXPECT_THROW(eng.run(), util::PanicError);
}

TEST(Engine, DeadlockDetected) {
  Engine eng;
  Condition cond(eng, "never-signalled");
  eng.spawn("waiter", [&] { cond.wait(); });
  EXPECT_THROW(eng.run(), DeadlockError);
}

TEST(Engine, DeadlockMessageNamesActorAndCondition) {
  Engine eng;
  Condition cond(eng, "my-cond");
  eng.spawn("stuck-actor", [&] { cond.wait(); });
  try {
    eng.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stuck-actor"), std::string::npos);
    EXPECT_NE(what.find("my-cond"), std::string::npos);
  }
}

TEST(Engine, DaemonDoesNotKeepSimulationAlive) {
  Engine eng;
  int ticks = 0;
  eng.spawn(
      "poller",
      [&] {
        for (;;) {
          Engine::current()->sleep_for(microseconds(10));
          ++ticks;
        }
      },
      /*daemon=*/true);
  eng.spawn("work", [&] { Engine::current()->sleep_for(microseconds(35)); });
  eng.run();
  EXPECT_EQ(ticks, 3);  // 10, 20, 30 µs; daemon unwound at 35 µs
  EXPECT_EQ(eng.now(), microseconds(35));
}

TEST(Engine, DaemonBlockedForeverIsUnwound) {
  Engine eng;
  Condition cond(eng, "daemon-wait");
  bool unwound = false;
  eng.spawn(
      "daemon",
      [&] {
        try {
          cond.wait();
        } catch (const StopSimulation&) {
          unwound = true;
          throw;
        }
      },
      /*daemon=*/true);
  eng.spawn("main", [] {});
  eng.run();
  EXPECT_TRUE(unwound);
}

TEST(Engine, TimeHorizonAborts) {
  Engine eng;
  eng.set_time_horizon(milliseconds(1));
  eng.spawn("runaway", [] {
    for (;;) {
      Engine::current()->sleep_for(microseconds(100));
    }
  });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, CurrentIsNullOutsideActors) {
  EXPECT_EQ(Engine::current(), nullptr);
  Engine eng;
  eng.spawn("a", [] { EXPECT_NE(Engine::current(), nullptr); });
  eng.run();
  EXPECT_EQ(Engine::current(), nullptr);
}

TEST(Engine, CurrentActorNameVisibleInside) {
  Engine eng;
  eng.spawn("self-aware", [&] {
    EXPECT_EQ(eng.current_actor_name(), "self-aware");
    EXPECT_EQ(eng.current_actor_id(), 0);
  });
  eng.run();
  EXPECT_EQ(eng.current_actor_name(), "<none>");
}

TEST(Engine, DestructionWithoutRunIsClean) {
  Engine eng;
  eng.spawn("never-ran", [] { FAIL() << "body must not execute"; });
  // ~Engine must release the unstarted actor without running its body.
}

TEST(Engine, ManyActorsComplete) {
  Engine eng;
  int done = 0;
  for (int i = 0; i < 200; ++i) {
    eng.spawn("n" + std::to_string(i), [&done, i] {
      Engine::current()->sleep_for(microseconds(i % 17));
      ++done;
    });
  }
  eng.run();
  EXPECT_EQ(done, 200);
}

/// Rethrows the exception being handled and returns its message if it has
/// type E, or "<other type>".
template <typename E>
std::string rethrown_message() {
  try {
    throw;
  } catch (const E& e) {
    return e.what();
  } catch (...) {
    return "<other type>";
  }
}

TEST(Engine, BlockedHandlersKeepTheirOwnException) {
  // The C++ runtime keeps one caught-exception stack per thread; every
  // actor here shares one thread, so the engine must switch that state
  // with the actor or the interleaved handlers below see each other's
  // exceptions.
  Engine eng;
  Condition cond(eng, "b-handler");
  std::string seen_a;
  std::string seen_b;
  eng.spawn("a", [&] {
    try {
      throw std::runtime_error("from a");
    } catch (...) {
      eng.sleep_for(microseconds(10));  // b enters its handler meanwhile
      seen_a = rethrown_message<std::runtime_error>();
      cond.notify_one();
    }
  });
  eng.spawn("b", [&] {
    try {
      throw std::invalid_argument("from b");
    } catch (...) {
      eng.sleep_for(microseconds(5));
      cond.wait();  // outlives a's handler
      seen_b = rethrown_message<std::invalid_argument>();
    }
  });
  eng.run();
  EXPECT_EQ(seen_a, "from a");
  EXPECT_EQ(seen_b, "from b");
}

TEST(Engine, BlockedHandlerSurvivesAnotherActorsStopUnwind) {
  // "unwinder" enters its handler first and "parked" second, so on one
  // shared exception stack the unwinder's exit from its handler would pop
  // the parked actor's exception instead of its own.
  Engine eng;
  Condition never(eng, "never");
  int uncaught_while_unwinding = -1;
  int uncaught_in_parked = -1;
  std::string seen_parked;
  struct OnUnwind {
    int* out;
    ~OnUnwind() { *out = std::uncaught_exceptions(); }
  };
  eng.spawn(
      "unwinder",
      [&] {
        try {
          throw std::runtime_error("unwinder");
        } catch (...) {
          OnUnwind probe{&uncaught_while_unwinding};
          never.wait();  // throws StopSimulation at shutdown
        }
      },
      /*daemon=*/true);
  eng.spawn(
      "parked",
      [&] {
        try {
          throw std::runtime_error("parked");
        } catch (...) {
          try {
            never.wait();  // still blocked while the unwinder unwinds
          } catch (const StopSimulation&) {
            uncaught_in_parked = std::uncaught_exceptions();
          }
          seen_parked = rethrown_message<std::runtime_error>();
        }
      },
      /*daemon=*/true);
  eng.spawn("main", [&] { eng.sleep_for(microseconds(10)); });
  eng.run();
  EXPECT_EQ(uncaught_while_unwinding, 1);
  EXPECT_EQ(uncaught_in_parked, 0);
  EXPECT_EQ(seen_parked, "parked");
}

TEST(Engine, ActorStackHoldsAOneMebibyteFrame) {
  Engine eng;
  std::size_t sum = 0;
  eng.spawn("big-frame", [&] {
    std::array<unsigned char, std::size_t{1} << 20> frame;
    unsigned char* volatile bytes = frame.data();  // keeps every write
    std::memset(bytes, 1, frame.size());
    eng.sleep_for(microseconds(1));  // switch away with the frame live
    sum = std::accumulate(bytes, bytes + frame.size(), std::size_t{0});
  });
  eng.run();
  EXPECT_EQ(sum, std::size_t{1} << 20);
}

/// How an actor is started: spawned before run() and first entered from
/// it, or spawned by a running actor and first entered as that actor
/// finishes.
enum class Path { BeforeRun, ByActor };
constexpr std::array<Path, 2> kPaths = {Path::BeforeRun, Path::ByActor};

std::string path_name(Path path) {
  return path == Path::BeforeRun ? "before run()" : "by an actor";
}

/// Spawns one actor per body, in order, along `path`.
void spawn_along(Engine& eng, Path path,
                 std::vector<std::function<void()>> bodies) {
  auto spawn_all = [&eng, bodies = std::move(bodies)] {
    for (std::size_t i = 0; i < bodies.size(); ++i) {
      eng.spawn("actor" + std::to_string(i), bodies[i]);
    }
  };
  if (path == Path::BeforeRun) {
    spawn_all();
  } else {
    eng.spawn("spawner", std::move(spawn_all));
  }
}

/// 1/10 in double precision, computed at run time under the current SSE
/// rounding mode (1/10 is not representable, so the mode shows).
double tenth() {
  volatile double one = 1.0;
  volatile double ten = 10.0;
  return one / ten;
}

TEST(Engine, FiberKeepsItsFloatingPointEnvironment) {
  // fegetround reads the x87 control word, tenth() depends on MXCSR; each
  // fiber keeps both.
  const double nearest = tenth();
  for (const Path path : kPaths) {
    SCOPED_TRACE(path_name(path));
    Engine eng;
    int b_round = -1;
    double b_tenth = 0.0;
    int a_round = -1;
    double a_tenth = 0.0;
    double downward = 0.0;
    spawn_along(eng, path,
                {[&] {
                   std::fesetround(FE_DOWNWARD);
                   downward = tenth();
                   eng.yield();
                   a_round = std::fegetround();
                   a_tenth = tenth();
                 },
                 [&] {
                   b_round = std::fegetround();
                   b_tenth = tenth();
                 }});
    eng.run();
    const int main_round = std::fegetround();
    const double main_tenth = tenth();
    std::fesetround(FE_TONEAREST);
    EXPECT_LT(downward, nearest);
    EXPECT_EQ(b_round, FE_TONEAREST);
    EXPECT_EQ(b_tenth, nearest);
    EXPECT_EQ(a_round, FE_DOWNWARD);
    EXPECT_EQ(a_tenth, downward);
    EXPECT_EQ(main_round, FE_TONEAREST);
    EXPECT_EQ(main_tenth, nearest);
  }
}

/// Address of a 16-byte vector local, which SSE code loads and stores with
/// aligned instructions; misaligned unless the caller's stack is aligned as
/// the ABI requires.
[[gnu::noinline]] std::uintptr_t vector_local_address() {
  using Vec4 = float __attribute__((vector_size(16)));
  alignas(16) volatile Vec4 local = {1.0f, 2.0f, 3.0f, 4.0f};
  local = local + local;
  return reinterpret_cast<std::uintptr_t>(&local);
}

TEST(Engine, ActorEntryStackIsAbiAligned) {
  for (const Path path : kPaths) {
    SCOPED_TRACE(path_name(path));
    Engine eng;
    std::vector<std::uintptr_t> addresses;
    const auto probe = [&] { addresses.push_back(vector_local_address()); };
    spawn_along(eng, path, {probe, probe});
    eng.run();
    ASSERT_EQ(addresses.size(), 2u);
    for (const std::uintptr_t address : addresses) {
      EXPECT_EQ(address % 16, 0u);
    }
  }
}

TEST(Engine, FinishedActorStacksAreReused) {
  for (const Path path : kPaths) {
    SCOPED_TRACE(path_name(path));
    Engine eng;
    int ran = 0;
    std::function<void()> link = [&] {
      if (++ran < 10000) {
        eng.spawn("link", link);
      }
    };
    spawn_along(eng, path, {link});
    eng.run();
    EXPECT_EQ(ran, 10000);
    EXPECT_LE(eng.stats().stacks_mapped, 3u);
  }
}

/// Runs `first` to completion, then `second` on the stack `first` left.
void run_on_recycled_stack(Path path, const std::function<void()>& first,
                           const std::function<void()>& second) {
  Engine eng;
  bool recycled = false;
  spawn_along(eng, path,
              {first, [&] {
                 eng.sleep_for(microseconds(1));  // `first` has finished
                 const std::uint64_t mapped = eng.stats().stacks_mapped;
                 eng.spawn("second", second);
                 recycled = eng.stats().stacks_mapped == mapped;
               }});
  eng.run();
  EXPECT_TRUE(recycled);
}

/// Throws through `depth` frames of 4 KiB each.
[[gnu::noinline]] void throw_from_depth(int depth) {
  volatile char frame[4096];
  frame[0] = static_cast<char>(depth);
  if (depth == 0) {
    throw std::runtime_error("deep");
  }
  throw_from_depth(depth - 1);
  frame[1] = frame[0];
}

/// Fills a live 1 MiB frame across a switch and sums it.
std::size_t sum_of_one_mebibyte_frame() {
  std::array<unsigned char, std::size_t{1} << 20> frame;
  unsigned char* volatile bytes = frame.data();  // keeps every write
  std::memset(bytes, 1, frame.size());
  Engine::current()->yield();
  return std::accumulate(bytes, bytes + frame.size(), std::size_t{0});
}

TEST(Engine, RecycledStackRunsAfterAnActorUnwoundByException) {
  for (const Path path : kPaths) {
    SCOPED_TRACE(path_name(path));
    std::string first_caught;
    std::string second_caught;
    std::size_t sum = 0;
    const auto catching = [](std::string& caught) {
      try {
        throw_from_depth(16);
      } catch (const std::runtime_error& e) {
        caught = e.what();
      }
    };
    run_on_recycled_stack(
        path, [&] { catching(first_caught); },
        [&] {
          sum = sum_of_one_mebibyte_frame();
          catching(second_caught);
        });
    EXPECT_EQ(first_caught, "deep");
    EXPECT_EQ(second_caught, "deep");
    EXPECT_EQ(sum, std::size_t{1} << 20);
  }
}

TEST(Engine, RecycledStackRunsAfterAOneMebibyteFrame) {
  for (const Path path : kPaths) {
    SCOPED_TRACE(path_name(path));
    std::size_t first = 0;
    std::size_t second = 0;
    run_on_recycled_stack(
        path, [&] { first = sum_of_one_mebibyte_frame(); },
        [&] { second = sum_of_one_mebibyte_frame(); });
    EXPECT_EQ(first, std::size_t{1} << 20);
    EXPECT_EQ(second, std::size_t{1} << 20);
  }
}

/// Recurses until `limit` frames of at least 1 KiB each are live.
int recurse(volatile int* depth, int limit) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(*depth);
  const int next = *depth + 1;
  *depth = next;
  if (next >= limit) {
    return 0;
  }
  return recurse(depth, limit) + frame[0];
}

TEST(EngineDeathTest, StackOverflowFaultsOnTheGuardPage) {
  // The recursion runs 256 KiB past the end of its stack. The neighbour is
  // spawned second, so its stack is mapped just below: without the guard
  // page the overflow would land in it and the run would end normally.
  const auto overflow = [] {
    Engine eng;
    volatile int depth = 0;
    const int limit =
        static_cast<int>((Engine::kActorStackBytes + (256 << 10)) / 1024);
    eng.spawn("recursing", [&] { recurse(&depth, limit); });
    eng.spawn("neighbour", [&] { eng.sleep_for(microseconds(1)); });
    eng.run();
    std::exit(0);
  };
#if defined(__SANITIZE_ADDRESS__)
  EXPECT_EXIT(overflow(), ::testing::ExitedWithCode(1), "AddressSanitizer");
#else
  EXPECT_EXIT(overflow(), ::testing::KilledBySignal(SIGSEGV), "");
#endif
}

TEST(EngineDeathTest, StackOverflowFaultsOnARecycledStacksGuardPage) {
  // "recursing" runs on the stack "first" left; the launcher's stack was
  // mapped next, just below it.
  const auto overflow = [] {
    Engine eng;
    volatile int depth = 0;
    const int limit =
        static_cast<int>((Engine::kActorStackBytes + (256 << 10)) / 1024);
    eng.spawn("first", [] {});
    eng.spawn("launcher", [&] {
      eng.sleep_for(microseconds(1));
      eng.spawn("recursing", [&] { recurse(&depth, limit); });
      eng.sleep_for(microseconds(1));
    });
    eng.run();
    std::exit(eng.stats().stacks_mapped == 2 ? 0 : 2);
  };
#if defined(__SANITIZE_ADDRESS__)
  EXPECT_EXIT(overflow(), ::testing::ExitedWithCode(1), "AddressSanitizer");
#else
  EXPECT_EXIT(overflow(), ::testing::KilledBySignal(SIGSEGV), "");
#endif
}

}  // namespace
}  // namespace mad::sim
