// Stackful fibers: a context that runs a function on its own stack and
// switches to and from other contexts in user space.
//
// On x86-64 a switch is a dozen instructions of hand-written assembly
// (fiber.cpp): it saves the System V callee-saved registers (rbx, rbp,
// r12-r15), the stack pointer, MXCSR and the x87 control word, and loads
// those of the target. Everything else is caller-saved, so the compiler
// has already spilled what the caller needs. Other architectures use
// getcontext/makecontext/swapcontext inside the same two functions.
//
// Neither switch touches the signal mask: nothing in this repository
// changes it, so every fiber runs under the mask of the thread that calls
// Engine::run(). (swapcontext's mask save and restore is a system call
// per switch, which the x86-64 switch exists to avoid.)
#pragma once

#include <cstddef>

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

namespace mad::sim {

/// A suspended context. A context that is running has nothing saved here.
struct FiberContext {
#if defined(__x86_64__)
  void* sp = nullptr;  // its saved registers sit at the top of its stack
#else
  ucontext_t context{};
#endif
};

/// Makes `ctx` run `entry` on [stack, stack + bytes) when it is first
/// switched to. `entry` must never return. The fiber starts with the
/// floating-point control state of the caller.
void fiber_init(FiberContext& ctx, void* stack, std::size_t bytes,
                void (*entry)());

/// Saves the running context into `from` and resumes `to`; returns when
/// some context switches back to `from`.
void fiber_switch(FiberContext& from, FiberContext& to);

}  // namespace mad::sim
