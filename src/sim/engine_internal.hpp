// Internal: full definitions of Engine::ActorState and Engine::Fiber,
// shared by engine.cpp and condition.cpp. Not part of the public API.
#pragma once

#include <array>
#include <cstddef>
#include <memory>

#include "sim/engine.hpp"
#include "sim/fiber.hpp"

namespace mad::sim {

/// Unmaps an actor stack, given its lowest usable byte.
struct UnmapStack {
  void operator()(void* stack) const;
};

/// One execution context: an actor's stack, or run()'s own.
struct Engine::Fiber {
  FiberContext context;
  // The C++ runtime keeps its caught-exception stack per thread, in the two
  // words of the Itanium ABI's __cxa_eh_globals. Each fiber keeps its own
  // copy across switches, or a `throw;` in one fiber's handler would
  // rethrow another fiber's exception.
  std::array<std::byte, 2 * sizeof(void*)> eh{};
  // Usable stack; for run()'s own context these are learnt, under ASan
  // only, at its first switch.
  void* stack = nullptr;
  std::size_t stack_bytes = 0;
  void* asan_fake_stack = nullptr;
};

struct Engine::ActorState {
  ActorId id = -1;
  std::string name;
  bool daemon = false;
  std::int64_t rank = 0;  // simultaneous timers fire in ascending rank
  Status status = Status::Created;
  std::function<void()> body;
  std::unique_ptr<void, UnmapStack> stack;  // guard page below it
  Fiber fiber;
  WakeReason wake_reason = WakeReason::Notified;
  Condition* waiting_cond = nullptr;
};

}  // namespace mad::sim
