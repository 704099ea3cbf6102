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
//   * BufferPool    — LIFO pool of util::Bytes in power-of-two size
//                     classes, one freelist per class: every paquet-sized
//                     buffer of the forwarding path (wire packets, one
//                     pool per fabric, which reliable senders fill,
//                     receivers park, the plain relay forwards and the
//                     reliable gateway keeps as its stored fragments).
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

/// LIFO pool of byte buffers in power-of-two size classes, from kMinClass
/// up to the pool's capacity rounded up to a power of two. A buffer is
/// reserved at its class's size when it is first made, and take(size)
/// serves from the smallest class that holds `size`: a 4 KB ping does not
/// pin a buffer sized for the largest packet of the fabric. give() files a
/// buffer by its capacity, so a buffer trimmed after it was taken (a
/// paquet body kept without its trailer) still goes back to its class.
/// Nothing is searched, dropped or regrown, and each class retains at most
/// the peak number of its buffers live at once. Buffers are util::Bytes,
/// so neither making nor reusing one zero-fills it.
class BufferPool {
 public:
  /// The smallest size class (one page).
  static constexpr std::size_t kMinClass = 4096;

  explicit BufferPool(std::size_t capacity);

  /// A buffer of `size` (at most capacity()) bytes of unspecified content.
  Bytes take(std::size_t size);
  /// Retires a buffer this pool made: its capacity must be one of the
  /// pool's classes.
  void give(Bytes buffer);
  /// Raises the capacity to at least `capacity` (never lowers it), adding
  /// the classes up to it. No buffer may be out.
  void grow(std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  /// Totals over every class.
  std::size_t idle() const { return idle_; }
  std::uint64_t takes() const { return takes_; }
  std::uint64_t reuses() const { return reuses_; }

 private:
  /// Index of the smallest class that holds `size` bytes.
  static std::size_t class_of(std::size_t size);

  std::vector<std::vector<Bytes>> free_;  // free_[c]: kMinClass << c bytes
  std::size_t capacity_;
  std::size_t idle_ = 0;
  std::uint64_t takes_ = 0;
  std::uint64_t reuses_ = 0;
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
