#include "util/arena.hpp"

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

Bytes BufferArena::take(std::size_t size) {
  ++takes_;
  auto best = free_.end();
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->capacity() >= size &&
        (best == free_.end() || it->capacity() < best->capacity())) {
      best = it;
    }
  }
  if (best != free_.end()) {
    ++reuses_;
    Bytes buffer = std::move(*best);
    free_.erase(best);
    buffer.resize(size);  // within capacity: the address stays put
    return buffer;
  }
  Bytes buffer;
  buffer.resize(size);
  return buffer;
}

void BufferArena::give(Bytes buffer) {
  if (buffer.capacity() == 0) {
    return;
  }
  free_.push_back(std::move(buffer));
}

}  // namespace mad::util
