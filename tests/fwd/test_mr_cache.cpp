// Pin-down registration cache: LRU eviction, in-flight refcounts,
// invalidation, region-key namespaces and the diagnosable misuse panic.
#include <gtest/gtest.h>

#include <string>

#include "fwd/mr_cache.hpp"
#include "util/panic.hpp"

namespace mad::fwd {
namespace {

/// Slot `slot` of one relay's pipeline budget, `len` bytes of it.
RegionKey slot(std::uint64_t slot, std::size_t len) {
  return {RegionKey::Kind::PipelineSlot, /*owner=*/7, slot, len};
}

TEST(MrCache, FirstAcquireMissesRepeatHits) {
  MrCache cache(4);
  EXPECT_FALSE(cache.acquire(slot(0, 4096)));
  cache.release(slot(0, 4096));
  EXPECT_TRUE(cache.acquire(slot(0, 4096)));
  cache.release(slot(0, 4096));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
  EXPECT_EQ(cache.pinned_bytes(), 4096u);
}

TEST(MrCache, DifferentLengthIsADifferentRegion) {
  // Keyed with the length: a prefix of a pinned region is not the region.
  MrCache cache(4);
  EXPECT_FALSE(cache.acquire(slot(0, 4096)));
  cache.release(slot(0, 4096));
  EXPECT_FALSE(cache.acquire(slot(0, 2048)));
  cache.release(slot(0, 2048));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(MrCache, EvictsLeastRecentlyUsedAtCapacity) {
  MrCache cache(2);
  cache.acquire(slot(0, 100));
  cache.release(slot(0, 100));
  cache.acquire(slot(1, 100));
  cache.release(slot(1, 100));
  // Touch slot 0: slot 1 becomes the LRU victim.
  cache.acquire(slot(0, 100));
  cache.release(slot(0, 100));
  cache.acquire(slot(2, 100));  // evicts slot 1
  cache.release(slot(2, 100));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.contains(slot(0, 100)));
  EXPECT_FALSE(cache.contains(slot(1, 100)));
  EXPECT_TRUE(cache.contains(slot(2, 100)));
  EXPECT_EQ(cache.pinned_bytes(), 200u);
}

TEST(MrCache, InFlightRegionsAreNeverEvicted) {
  MrCache cache(2);
  cache.acquire(slot(0, 100));  // held for the whole test
  cache.acquire(slot(1, 100));  // held too
  // Cache is at capacity with nothing evictable: it must grow past its
  // bound (an active DMA cannot be unpinned), not evict a referenced pin.
  cache.acquire(slot(2, 100));
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_TRUE(cache.contains(slot(0, 100)));
  EXPECT_TRUE(cache.contains(slot(1, 100)));
  cache.release(slot(0, 100));
  cache.release(slot(1, 100));
  cache.release(slot(2, 100));
  // Back over capacity with idle entries: the next miss evicts.
  cache.acquire(slot(3, 100));
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(MrCache, UnheldReleasePanics) {
  MrCache cache(4, "sci0.nic0.mr");
  try {
    cache.release(slot(0, 4096));
    FAIL() << "expected a panic";
  } catch (const util::PanicError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("released but not held"), std::string::npos) << what;
    EXPECT_NE(what.find("sci0.nic0.mr"), std::string::npos) << what;
    EXPECT_NE(what.find("pipeline slot"), std::string::npos) << what;
  }
}

TEST(MrCache, KindsAreSeparateNamespaces) {
  // The same owner, slot and length under two kinds are two regions: a
  // relay's pipeline slot never aliases a send-ring slot.
  MrCache cache(4);
  const RegionKey ring{RegionKey::Kind::SendRing, 7, 0, 4096};
  EXPECT_FALSE(cache.acquire(slot(0, 4096)));
  cache.release(slot(0, 4096));
  EXPECT_FALSE(cache.acquire(ring));
  cache.release(ring);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(MrCache, InvalidateDropsIdleAndDoomsInFlight) {
  MrCache cache(4);
  cache.acquire(slot(0, 100));
  cache.release(slot(0, 100));  // idle
  cache.acquire(slot(1, 100));  // in flight across the invalidation
  cache.invalidate_all();
  EXPECT_EQ(cache.stats().invalidations, 2u);
  EXPECT_FALSE(cache.contains(slot(0, 100)));
  // Doomed: still present (the failing transfer references it) but no
  // longer a valid mapping.
  EXPECT_FALSE(cache.contains(slot(1, 100)));
  EXPECT_EQ(cache.size(), 1u);
  // The release after the (failed) transfer finally drops it.
  cache.release(slot(1, 100));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.pinned_bytes(), 0u);
  // Re-acquiring a dropped region is a fresh miss.
  EXPECT_FALSE(cache.acquire(slot(1, 100)));
  cache.release(slot(1, 100));
}

TEST(MrCache, ReacquireOfDoomedInFlightRegionReRegisters) {
  MrCache cache(4);
  cache.acquire(slot(0, 100));
  cache.invalidate_all();  // dooms slot 0 while held
  // A new transfer over the same region must re-pin, not reuse the dead
  // mapping.
  EXPECT_FALSE(cache.acquire(slot(0, 100)));
  EXPECT_TRUE(cache.contains(slot(0, 100)));
  cache.release(slot(0, 100));
  cache.release(slot(0, 100));
  EXPECT_TRUE(cache.contains(slot(0, 100)));  // fresh mapping is retained
}

}  // namespace
}  // namespace mad::fwd
