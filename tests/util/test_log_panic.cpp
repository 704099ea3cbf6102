#include <gtest/gtest.h>

#include "util/panic.hpp"

namespace mad::util {
namespace {

TEST(Panic, ThrowsPanicErrorWithLocation) {
  try {
    MAD_PANIC("boom");
    FAIL() << "did not throw";
  } catch (const PanicError& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_log_panic"),
              std::string::npos);
  }
}

TEST(Panic, AssertPassesOnTrue) {
  EXPECT_NO_THROW(MAD_ASSERT(1 + 1 == 2, "math works"));
}

TEST(Panic, AssertThrowsOnFalse) {
  EXPECT_THROW(MAD_ASSERT(false, "nope"), PanicError);
}

}  // namespace
}  // namespace mad::util
