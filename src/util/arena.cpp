#include "util/arena.hpp"

#include <algorithm>
#include <string>

#include "util/panic.hpp"

namespace mad::util {

Bytes BufferPool::take(std::size_t size) {
  MAD_ASSERT(size <= capacity_, "pooled buffer of " + std::to_string(size) +
                                    " bytes exceeds the pool capacity " +
                                    std::to_string(capacity_));
  Bytes buffer = arena_.take();
  if (buffer.capacity() < capacity_) {
    buffer.reserve(capacity_);  // a new buffer: reserved once, at capacity
  }
  buffer.resize(size);
  return buffer;
}

void BufferPool::give(Bytes buffer) {
  MAD_ASSERT(buffer.capacity() >= capacity_,
             "retired buffer was not made by this pool");
  arena_.give(std::move(buffer));
}

void BufferPool::grow(std::size_t capacity) {
  MAD_ASSERT(idle() == takes() - reuses(),
             "pool capacity raised while buffers are out");
  capacity_ = std::max(capacity_, capacity);
}

}  // namespace mad::util
