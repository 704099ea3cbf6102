#include "util/arena.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "util/panic.hpp"

namespace mad::util {
namespace {

TEST(Arena, TakeGivesFreshThenRecycles) {
  Arena<std::string> arena;
  std::string a = arena.take();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(arena.reuses(), 0u);
  a = "hello arena, remember my capacity";
  arena.give(std::move(a));
  const std::string b = arena.take();
  EXPECT_EQ(b, "hello arena, remember my capacity");  // same object back
  EXPECT_EQ(arena.takes(), 2u);
  EXPECT_EQ(arena.reuses(), 1u);
}

TEST(Arena, LifoOrder) {
  Arena<std::vector<int>> arena;
  std::vector<int> first{1};
  std::vector<int> second{2};
  arena.give(std::move(first));
  arena.give(std::move(second));
  EXPECT_EQ(arena.take(), (std::vector<int>{2}));  // most recently retired
  EXPECT_EQ(arena.take(), (std::vector<int>{1}));
  EXPECT_EQ(arena.idle(), 0u);
}

TEST(BufferLease, ReturnsBufferOnDestruction) {
  BufferPool pool(512);
  const std::byte* addr = nullptr;
  {
    BufferLease lease(pool, 256);
    EXPECT_EQ(lease.size(), 256u);
    addr = lease.data();
    EXPECT_EQ(pool.idle(), 0u);
  }
  EXPECT_EQ(pool.idle(), 1u);
  BufferLease again(pool, 128);
  EXPECT_EQ(again.data(), addr);  // recycled the retired buffer
  EXPECT_EQ(pool.reuses(), 1u);
}

TEST(BufferPool, EachClassIsServedAndReused) {
  // Power-of-two classes from 4 KB up to the capacity: a request is served
  // from the smallest class that holds it, and a retired buffer serves the
  // next request of its class.
  BufferPool pool(64 * 1024);
  const std::vector<std::pair<std::size_t, std::size_t>> size_and_class = {
      {1, 4096},         {4096, 4096},           {4097, 8192},
      {8192, 8192},      {10000, 16384},         {16 * 1024 + 1, 32768},
      {64 * 1024, 65536}};
  for (const auto& [size, capacity] : size_and_class) {
    SCOPED_TRACE("size " + std::to_string(size));
    Bytes first = pool.take(size);
    EXPECT_EQ(first.size(), size);
    EXPECT_EQ(first.capacity(), capacity);
    const std::byte* made = first.data();
    const std::uint64_t reuses = pool.reuses();
    pool.give(std::move(first));
    Bytes again = pool.take(size);
    EXPECT_EQ(again.data(), made);
    EXPECT_EQ(pool.reuses(), reuses + 1);
    pool.give(std::move(again));
  }
  EXPECT_EQ(pool.idle(), 5u);  // one buffer per class
}

TEST(BufferPool, SmallRequestDoesNotTakeALargeIdleBuffer) {
  BufferPool pool(256 * 1024);
  pool.give(pool.take(200 * 1024));
  const Bytes ping = pool.take(100);
  EXPECT_EQ(ping.capacity(), BufferPool::kMinClass);
  EXPECT_EQ(pool.reuses(), 0u);
  EXPECT_EQ(pool.idle(), 1u);
}

TEST(BufferPool, GiveOfAForeignCapacityPanics) {
  BufferPool pool(64 * 1024);
  Bytes odd;
  odd.reserve(6000);
  EXPECT_THROW(pool.give(std::move(odd)), PanicError);
  // An empty buffer has no class: a receive that unwound before it
  // adopted a paquet must not hand one back.
  EXPECT_THROW(pool.give(Bytes{}), PanicError);
  Bytes above;
  above.reserve(128 * 1024);  // a class of a larger pool
  EXPECT_THROW(pool.give(std::move(above)), PanicError);
  EXPECT_EQ(pool.idle(), 0u);
}

TEST(BufferPool, IdleCountsEveryClass) {
  BufferPool pool(256 * 1024);
  std::vector<Bytes> out;
  for (const std::size_t size : {100, 5000, 5000, 70000, 256 * 1024}) {
    out.push_back(pool.take(size));
  }
  EXPECT_EQ(pool.idle() + out.size(), pool.takes() - pool.reuses());
  for (Bytes& buffer : out) {
    pool.give(std::move(buffer));
  }
  out.clear();
  EXPECT_EQ(pool.idle(), 5u);
  EXPECT_EQ(pool.idle(), pool.takes() - pool.reuses());
  // Trimmed after it was taken, a buffer still goes back to its class.
  Bytes trimmed = pool.take(5000);
  trimmed.resize(10);
  pool.give(std::move(trimmed));
  for (const std::size_t size : {4000, 8000, 1 << 17}) {
    out.push_back(pool.take(size));
  }
  // The trimmed buffer's reuse, then idle 4, 8 and 128 KB buffers.
  EXPECT_EQ(pool.reuses(), 4u);
  EXPECT_EQ(pool.idle() + out.size(), pool.takes() - pool.reuses());
  for (Bytes& buffer : out) {
    pool.give(std::move(buffer));
  }
  EXPECT_EQ(pool.idle(), pool.takes() - pool.reuses());
}

TEST(BufferPool, GrowRaisesTheCapacityWhileNothingIsOut) {
  BufferPool pool(0);
  EXPECT_THROW(pool.take(1), PanicError);
  pool.grow(8 * 1024);
  EXPECT_EQ(pool.capacity(), 8u * 1024);
  Bytes held = pool.take(8 * 1024);
  EXPECT_THROW(pool.grow(64 * 1024), PanicError);  // a buffer is out
  pool.give(std::move(held));
  pool.grow(4 * 1024);  // never lowers
  EXPECT_EQ(pool.capacity(), 8u * 1024);
  pool.grow(100 * 1024);
  EXPECT_EQ(pool.capacity(), 100u * 1024);
  // The top class rounds the capacity up to a power of two.
  EXPECT_EQ(pool.take(100 * 1024).capacity(), 128u * 1024);
  EXPECT_THROW(pool.take(100 * 1024 + 1), PanicError);
  // A buffer made before the pool grew still serves its class.
  const Bytes reused = pool.take(5000);
  EXPECT_EQ(reused.capacity(), 8u * 1024);
  EXPECT_EQ(pool.reuses(), 1u);
}

}  // namespace
}  // namespace mad::util
