#include "util/arena.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

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

TEST(BufferArena, ReusesBestFitAndKeepsAddressStable) {
  BufferArena arena;
  Bytes small = arena.take(64);
  Bytes big = arena.take(4096);
  const std::byte* big_addr = big.data();
  arena.give(std::move(big));
  arena.give(std::move(small));
  EXPECT_EQ(arena.idle(), 2u);

  // A 32-byte request must draw the 64-byte buffer, not re-key the big
  // one (address stability is what the RDMA registration cache needs).
  const Bytes tiny = arena.take(32);
  EXPECT_LT(tiny.capacity(), 4096u);
  const Bytes large = arena.take(2048);
  EXPECT_EQ(large.data(), big_addr);  // resized within capacity, same spot
  EXPECT_EQ(arena.reuses(), 2u);
}

TEST(BufferArena, AllocatesWhenNothingFits) {
  BufferArena arena;
  arena.give(Bytes(16));
  const Bytes buf = arena.take(1024);
  EXPECT_EQ(buf.size(), 1024u);
  EXPECT_EQ(arena.reuses(), 0u);
  EXPECT_EQ(arena.idle(), 1u);  // the 16-byte one is still there
}

TEST(BufferArena, DropsEmptyBuffers) {
  BufferArena arena;
  arena.give({});
  EXPECT_EQ(arena.idle(), 0u);
}

TEST(BufferLease, ReturnsBufferOnDestruction) {
  BufferArena arena;
  const std::byte* addr = nullptr;
  {
    BufferLease lease(arena, 256);
    EXPECT_EQ(lease.size(), 256u);
    addr = lease.data();
    EXPECT_EQ(arena.idle(), 0u);
  }
  EXPECT_EQ(arena.idle(), 1u);
  BufferLease again(arena, 128);
  EXPECT_EQ(again.data(), addr);  // recycled the retired buffer
}

}  // namespace
}  // namespace mad::util
