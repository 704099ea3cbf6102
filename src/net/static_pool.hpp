// Pool of protocol-provided ("static") buffers.
//
// Static-buffer protocols (SBP, our TCP model) cannot send from or receive
// into arbitrary user memory: data must pass through buffers owned by the
// protocol (paper §2.1.1). The pool models the finite ring of such buffers;
// acquisition blocks when the ring is exhausted, which throttles senders
// exactly like the real protocols do.
//
// The recycling half of this idea — minus the blocking/backpressure
// semantics — is generalized in util/arena.hpp (util::BufferPool and its
// kin), which the wire, the fwd layer and the trace sink use for plain
// allocation reuse. Keep the two distinct: a StaticBufferPool running dry
// is a modeled protocol event; a util pool running dry just mallocs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/condition.hpp"
#include "sim/engine.hpp"
#include "util/bytes.hpp"

namespace mad::net {

class StaticBufferPool {
 public:
  StaticBufferPool(sim::Engine& engine, std::uint32_t buffer_size,
                   std::uint32_t count, std::string name);

  /// RAII handle to one pool buffer; returns the slot on destruction.
  class Ref {
   public:
    Ref() = default;
    Ref(Ref&& other) noexcept;
    Ref& operator=(Ref&& other) noexcept;
    ~Ref();

    Ref(const Ref&) = delete;
    Ref& operator=(const Ref&) = delete;

    bool valid() const { return pool_ != nullptr; }
    /// Full writable capacity.
    util::MutByteSpan span();
    /// The filled prefix (first `used` bytes).
    util::ByteSpan data() const;
    std::size_t capacity() const;
    void set_used(std::size_t used);
    std::size_t used() const { return used_; }
    /// Which of the pool's buffers this is.
    std::size_t slot() const { return slot_; }
    /// Early release (idempotent).
    void release();

   private:
    friend class StaticBufferPool;
    Ref(StaticBufferPool* pool, std::size_t slot)
        : pool_(pool), slot_(slot) {}
    StaticBufferPool* pool_ = nullptr;
    std::size_t slot_ = 0;
    std::size_t used_ = 0;
  };

  /// Blocks the calling actor until a buffer is free.
  Ref acquire();

  std::size_t free_count() const { return free_.size(); }
  std::uint32_t buffer_size() const { return buffer_size_; }
  std::uint32_t count() const { return count_; }

 private:
  void release_slot(std::size_t slot);

  sim::Engine& engine_;
  std::uint32_t buffer_size_;
  std::uint32_t count_;
  std::vector<std::vector<std::byte>> slots_;
  std::vector<std::size_t> free_;
  sim::Condition available_;
};

}  // namespace mad::net
