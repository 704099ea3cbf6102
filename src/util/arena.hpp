// Generic object/buffer recycling arenas.
//
// net::StaticBufferPool models a PROTOCOL-owned finite buffer ring:
// acquisition blocks, because exhaustion is a semantic event (backpressure,
// paper §2.1.1). The arenas here generalize its recycling half without the
// semantics: they never block and never cap, they just keep retired objects
// so steady-state hot paths (paquet scratch buffers in fwd, trace-event
// slots in sim) stop hitting the allocator. Profiling the 10k-actor engine
// benchmark put malloc/free of per-paquet scratch among the top remaining
// costs once scheduling itself was fixed; these arenas remove it.
//
// Two shapes:
//   * Arena<T>      — plain LIFO freelist of T objects. take() hands back a
//                     retired object (with whatever capacity its members
//                     kept) or default-constructs one.
//   * BufferPool    — uniform-capacity LIFO pool of util::Bytes, built on
//                     Arena: every paquet-sized buffer of the forwarding
//                     path (wire packets, one pool per fabric, which
//                     reliable senders fill, receivers park and the plain
//                     relay forwards; the gateway's stored fragments).
//
// None is thread-safe; under the simulation engine exactly one actor
// runs at a time, which is the only concurrency these see.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/bytes.hpp"

namespace mad::util {

/// LIFO freelist of default-constructible objects. LIFO on purpose: the
/// most recently retired object is the cache-warmest.
template <typename T>
class Arena {
 public:
  T take() {
    ++takes_;
    if (free_.empty()) {
      return T{};
    }
    ++reuses_;
    T obj = std::move(free_.back());
    free_.pop_back();
    return obj;
  }

  void give(T obj) { free_.push_back(std::move(obj)); }

  std::size_t idle() const { return free_.size(); }
  std::uint64_t takes() const { return takes_; }
  std::uint64_t reuses() const { return reuses_; }

 private:
  std::vector<T> free_;
  std::uint64_t takes_ = 0;
  std::uint64_t reuses_ = 0;
};

/// Uniform-capacity LIFO pool of byte buffers. Every buffer is reserved
/// at the pool's capacity when it is first made, so any retired buffer
/// serves any request: nothing is searched, dropped or regrown, and the
/// pool retains at most the peak number of buffers live at once. Buffers
/// are util::Bytes, so neither making nor reusing one zero-fills it.
class BufferPool {
 public:
  explicit BufferPool(std::size_t capacity) : capacity_(capacity) {}

  /// A buffer of `size` (at most capacity()) bytes of unspecified content.
  Bytes take(std::size_t size);
  /// Retires a buffer this pool made.
  void give(Bytes buffer);
  /// Raises the capacity to at least `capacity` (never lowers it). No
  /// buffer may be out: one made smaller could not come back. Idle ones
  /// grow when next taken.
  void grow(std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  std::size_t idle() const { return arena_.idle(); }
  std::uint64_t takes() const { return arena_.takes(); }
  std::uint64_t reuses() const { return arena_.reuses(); }

 private:
  Arena<Bytes> arena_;
  std::size_t capacity_;
};

/// RAII scratch buffer: taken from a BufferPool (or handed over) on
/// construction, retired on destruction unless release() handed it on
/// first. Safe across actor blocking points — each lease owns its buffer
/// outright, concurrent leases simply draw distinct buffers — and movable,
/// so a queued item can own one.
class BufferLease {
 public:
  BufferLease(BufferPool& pool, std::size_t size)
      : pool_(&pool), buffer_(pool.take(size)) {}
  /// Leases `buffer`, which `pool` made and the caller hands over.
  BufferLease(BufferPool& pool, Bytes buffer)
      : pool_(&pool), buffer_(std::move(buffer)) {}
  ~BufferLease() {
    if (pool_ != nullptr) {
      pool_->give(std::move(buffer_));
    }
  }

  BufferLease(BufferLease&& other) noexcept
      : pool_(std::exchange(other.pool_, nullptr)),
        buffer_(std::move(other.buffer_)) {}

  /// Hands the buffer on; whoever takes it gives it back to the pool.
  Bytes release() {
    pool_ = nullptr;
    return std::move(buffer_);
  }

  Bytes& buffer() { return buffer_; }
  const Bytes& buffer() const { return buffer_; }
  std::byte* data() { return buffer_.data(); }
  std::size_t size() const { return buffer_.size(); }

 private:
  BufferPool* pool_;
  Bytes buffer_;
};

}  // namespace mad::util
