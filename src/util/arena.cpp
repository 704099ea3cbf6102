#include "util/arena.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "util/panic.hpp"

namespace mad::util {

BufferPool::BufferPool(std::size_t capacity)
    : free_(class_of(capacity) + 1), capacity_(capacity) {}

std::size_t BufferPool::class_of(std::size_t size) {
  return static_cast<std::size_t>(
      std::bit_width((std::max(size, kMinClass) - 1) / kMinClass));
}

Bytes BufferPool::take(std::size_t size) {
  MAD_ASSERT(size <= capacity_, "pooled buffer of " + std::to_string(size) +
                                    " bytes exceeds the pool capacity " +
                                    std::to_string(capacity_));
  ++takes_;
  const std::size_t c = class_of(size);
  Bytes buffer;
  if (free_[c].empty()) {
    buffer.reserve(kMinClass << c);  // a new buffer: reserved once
  } else {
    ++reuses_;
    --idle_;
    buffer = std::move(free_[c].back());
    free_[c].pop_back();
  }
  buffer.resize(size);
  return buffer;
}

void BufferPool::give(Bytes buffer) {
  const std::size_t c = class_of(buffer.capacity());
  MAD_ASSERT(c < free_.size() && buffer.capacity() == kMinClass << c,
             "retired buffer of capacity " +
                 std::to_string(buffer.capacity()) +
                 " was not made by this pool");
  free_[c].push_back(std::move(buffer));
  ++idle_;
}

void BufferPool::grow(std::size_t capacity) {
  MAD_ASSERT(idle() == takes() - reuses(),
             "pool capacity raised while buffers are out");
  capacity_ = std::max(capacity_, capacity);
  free_.resize(class_of(capacity_) + 1);
}

}  // namespace mad::util
