#include "fwd/mr_cache.hpp"

#include "util/panic.hpp"

namespace mad::fwd {

MrCache::MrCache(std::size_t capacity, std::string name)
    : capacity_(capacity), name_(std::move(name)) {
  MAD_ASSERT(capacity_ >= 1, "registration cache needs capacity >= 1");
}

std::string MrCache::describe(const RegionKey& key) const {
  static const char* const kinds[] = {"pipeline slot", "static buffer",
                                      "send ring", "receive region"};
  return name_ + ": " + kinds[static_cast<int>(key.kind)] + " (owner " +
         std::to_string(key.owner) + ", slot " + std::to_string(key.slot) +
         ", " + std::to_string(key.len) + " bytes)";
}

void MrCache::make_room() {
  if (entries_.size() < capacity_ || lru_.empty()) {
    // Under capacity, or everything retained is in flight: in the latter
    // case the cache grows past its bound (real pin-down caches do the
    // same — an active DMA cannot be unpinned) and shrinks back as
    // transfers complete.
    return;
  }
  const RegionKey victim = lru_.front();
  auto it = entries_.find(victim);
  MAD_ASSERT(it != entries_.end(), name_ + ": LRU list out of sync");
  lru_.pop_front();
  it->second.in_lru = false;
  pinned_bytes_ -= victim.len;
  entries_.erase(it);
  ++stats_.evictions;
}

bool MrCache::acquire(const RegionKey& key) {
  MAD_ASSERT(key.len > 0, name_ + ": acquire of empty region");
  auto it = entries_.find(key);
  if (it != entries_.end() && !it->second.doomed) {
    Entry& e = it->second;
    if (e.in_lru) {
      lru_.erase(e.lru);
      e.in_lru = false;
    }
    ++e.refs;
    ++stats_.hits;
    return true;
  }
  if (it != entries_.end()) {
    // Doomed by an invalidation while previous uses were in flight: the
    // old mapping is dead, so this lookup re-registers on top of it.
    Entry& e = it->second;
    if (e.in_lru) {
      lru_.erase(e.lru);
      e.in_lru = false;
    }
    e.doomed = false;
    ++e.refs;
    ++stats_.misses;
    return false;
  }
  make_room();
  Entry e;
  e.refs = 1;
  entries_.emplace(key, e);
  pinned_bytes_ += key.len;
  ++stats_.misses;
  return false;
}

void MrCache::release(const RegionKey& key) {
  auto it = entries_.find(key);
  MAD_ASSERT(it != entries_.end(), describe(key) + " released but not held");
  Entry& e = it->second;
  MAD_ASSERT(e.refs > 0, describe(key) + " released more times than acquired");
  --e.refs;
  if (e.refs > 0) {
    return;
  }
  if (e.doomed) {
    drop(it);
    return;
  }
  // Idle and retained: most recently used end of the eviction order.
  lru_.push_back(key);
  e.lru = std::prev(lru_.end());
  e.in_lru = true;
}

void MrCache::drop(std::map<RegionKey, Entry>::iterator it) {
  if (it->second.in_lru) {
    lru_.erase(it->second.lru);
  }
  pinned_bytes_ -= it->first.len;
  entries_.erase(it);
}

void MrCache::invalidate_all() {
  for (auto it = entries_.begin(); it != entries_.end();) {
    ++stats_.invalidations;
    if (it->second.refs > 0) {
      // In flight: the mapping is dead but the (failing) transfer still
      // references the entry; drop it at release.
      it->second.doomed = true;
      ++it;
    } else {
      auto victim = it++;
      drop(victim);
    }
  }
}

bool MrCache::contains(const RegionKey& key) const {
  const auto it = entries_.find(key);
  return it != entries_.end() && !it->second.doomed;
}

}  // namespace mad::fwd
