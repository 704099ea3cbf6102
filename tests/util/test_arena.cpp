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

}  // namespace
}  // namespace mad::util
