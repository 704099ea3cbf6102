#include "sim/fiber.hpp"

#include <cstdint>
#include <new>

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

namespace mad::sim {

#if defined(__x86_64__)

// mad_fiber_swap(void** save_sp, void* load_sp): pushes the callee-saved
// registers and the floating-point control state onto the running stack,
// stores the stack pointer through `save_sp`, then pops the same layout
// off `load_sp` and returns into the context that saved it.
asm(R"(
  .text
  .globl mad_fiber_swap
  .hidden mad_fiber_swap
  .type mad_fiber_swap, @function
  .p2align 4
mad_fiber_swap:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size mad_fiber_swap, .-mad_fiber_swap
)");

extern "C" void mad_fiber_swap(void** save_sp, void* load_sp);

namespace {

/// What mad_fiber_swap pops for a fiber that has never run: the lowest
/// field at the saved stack pointer, `return_address` at the stack's top.
struct InitialFrame {
  std::uint32_t mxcsr;
  std::uint16_t x87_control;
  std::uint16_t unused;
  void* r15;
  void* r14;
  void* r13;
  void* r12;
  void* rbx;
  void* rbp;
  void (*entry)();       // the swap's `ret` lands here...
  void* return_address;  // ...with this as entry's (null) return address
};
static_assert(sizeof(InitialFrame) == 72);

}  // namespace

void fiber_init(FiberContext& ctx, void* stack, std::size_t bytes,
                void (*entry)()) {
  // A System V caller keeps the stack 16-byte aligned at its call, so a
  // callee starts with rsp = 8 mod 16: the return address sits at an
  // aligned top.
  const auto top = (reinterpret_cast<std::uintptr_t>(stack) + bytes) &
                   ~std::uintptr_t{15};
  auto* frame = reinterpret_cast<InitialFrame*>(top) - 1;
  std::uint16_t x87_control = 0;
  asm volatile("fnstcw %0" : "=m"(x87_control));
  new (frame) InitialFrame{_mm_getcsr(), x87_control, 0, nullptr, nullptr,
                           nullptr, nullptr, nullptr, nullptr, entry,
                           nullptr};
  ctx.sp = frame;
}

void fiber_switch(FiberContext& from, FiberContext& to) {
  mad_fiber_swap(&from.sp, to.sp);
}

#else

void fiber_init(FiberContext& ctx, void* stack, std::size_t bytes,
                void (*entry)()) {
  getcontext(&ctx.context);
  ctx.context.uc_stack.ss_sp = stack;
  ctx.context.uc_stack.ss_size = bytes;
  ctx.context.uc_link = nullptr;
  makecontext(&ctx.context, entry, 0);
}

void fiber_switch(FiberContext& from, FiberContext& to) {
  swapcontext(&from.context, &to.context);
}

#endif

}  // namespace mad::sim
