// Byte-span and iovec helpers shared by the whole stack.
//
// Madeleine builds messages out of scattered user-space blocks; NIC models
// accept gather lists so that "DMA gather" (dynamic-buffer protocols) can be
// expressed without intermediate software copies.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/panic.hpp"

namespace mad::util {

using ByteSpan = std::span<const std::byte>;
using MutByteSpan = std::span<std::byte>;

/// std::allocator whose value-less construct default-initializes, so a
/// vector's resize() leaves the new elements as they are instead of
/// zeroing them.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>& /*other*/) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// A byte buffer whose resize writes nothing: the bytes it grows by are
/// unspecified until the caller fills them. Every pooled paquet buffer has
/// this type, because a reused buffer would otherwise zero its growth.
using Bytes = std::vector<std::byte, DefaultInitAllocator<std::byte>>;

/// Gather list of read-only blocks.
using ConstIovec = std::vector<ByteSpan>;
/// Scatter list of writable blocks.
using MutIovec = std::vector<MutByteSpan>;

inline std::size_t total_size(const ConstIovec& iov) {
  std::size_t n = 0;
  for (const auto& s : iov) {
    n += s.size();
  }
  return n;
}

inline std::size_t total_size(const MutIovec& iov) {
  std::size_t n = 0;
  for (const auto& s : iov) {
    n += s.size();
  }
  return n;
}

/// Scatters `src` across the blocks of `dst`; sizes must match exactly.
inline void scatter(ByteSpan src, const MutIovec& dst) {
  MAD_ASSERT(src.size() == total_size(dst), "scatter: size mismatch");
  std::size_t offset = 0;
  for (const auto& piece : dst) {
    if (!piece.empty()) {
      std::memcpy(piece.data(), src.data() + offset, piece.size());
      offset += piece.size();
    }
  }
}

/// Reinterprets a trivially-copyable object as bytes.
template <typename T>
ByteSpan object_bytes(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  return {reinterpret_cast<const std::byte*>(&value), sizeof(T)};
}

template <typename T>
MutByteSpan object_bytes_mut(T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  return {reinterpret_cast<std::byte*>(&value), sizeof(T)};
}

/// Makes a byte vector from a string (test/demo convenience).
inline std::vector<std::byte> to_bytes(const std::string& text) {
  const auto* p = reinterpret_cast<const std::byte*>(text.data());
  return {p, p + text.size()};
}

inline std::string to_string(ByteSpan bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

}  // namespace mad::util
