// Pin-down memory-registration cache (Tezuka et al.'s pin-down cache, via
// the MPICH2-over-InfiniBand design referenced in PAPERS.md).
//
// One-sided transfers require both endpoints' memory to be registered
// (pinned) with the NIC, and registration is expensive — a syscall plus a
// per-page cost that can rival the transfer itself for small regions. The
// classic amortization is an LRU cache of registrations: repeated
// transfers from the same buffers (exactly what the gateway's recycled
// pipeline slots produce) pin once and hit thereafter. Regions in flight
// are refcounted and never evicted; a NIC crash or channel teardown
// invalidates every cached registration, because the mappings die with
// the adapter state.
//
// A real NIC registers host addresses; a reproducible simulator models
// them instead. Every region is named by simulation state (RegionKey), so
// whether a transfer hits, and what it costs in virtual time, never
// depends on where the allocator put a buffer.
//
// This class is the pure bookkeeping: lookups, LRU, refcounts, stats, and
// loud panics on misuse. Simulated pin-time charging lives in RdmaTm,
// which keeps the cache unit-testable without an engine.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <list>
#include <map>
#include <string>

namespace mad::fwd {

/// The simulated identity of a registered region: which buffer of which
/// owner, and how many bytes of it. Each kind is its own namespace, so
/// keys of different kinds never collide.
struct RegionKey {
  enum class Kind : std::uint8_t {
    /// A slot of a plain gateway relay's pipeline budget. Owner: the relay
    /// (gateway rank, ingress network, rail); slot: the slot index.
    PipelineSlot,
    /// An incoming static buffer a relay sends from directly. Owner: the
    /// relay; slot: the buffer's StaticBufferPool slot.
    StaticBuffer,
    /// A reliable sender's registered send ring. Owner: the connection's tx
    /// tag; slot: the peer NIC index in the high half, seq % window below.
    SendRing,
    /// The receive region behind a rendezvous. Owner: the sender's tx tag.
    ReceiveRegion,
  };

  Kind kind = Kind::PipelineSlot;
  std::uint64_t owner = 0;
  std::uint64_t slot = 0;
  std::size_t len = 0;

  auto operator<=>(const RegionKey&) const = default;
};

struct MrCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Registrations dropped (or doomed) by invalidate_all.
  std::uint64_t invalidations = 0;

  double hit_rate() const {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

class MrCache {
 public:
  /// `capacity` bounds the number of *retained* registrations; regions in
  /// flight may temporarily exceed it when nothing is evictable. `name`
  /// prefixes panic messages so a misuse names its NIC.
  explicit MrCache(std::size_t capacity, std::string name = "mr");

  /// Transfer-time lookup of `key`. Hit: the registration is reused.
  /// Miss: the region is registered, evicting the least-recently-used
  /// unreferenced entry when the cache is full. Either way the region's
  /// refcount is bumped — it is in flight until the matching release().
  /// Returns true on a hit (the caller charges pin cost on a miss).
  bool acquire(const RegionKey& key);

  /// Ends one in-flight use. A region doomed by invalidate_all while in
  /// flight is deregistered here, once the hardware is done with it.
  void release(const RegionKey& key);

  /// NIC crash / channel teardown: every registration dies with the
  /// adapter state. Unreferenced entries are dropped now; in-flight ones
  /// are doomed and dropped at their release (their transfer is failing
  /// anyway — the NIC is gone).
  void invalidate_all();

  bool contains(const RegionKey& key) const;

  /// Registrations currently held (including doomed in-flight ones).
  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Bytes currently pinned across all registrations.
  std::uint64_t pinned_bytes() const { return pinned_bytes_; }
  const MrCacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    int refs = 0;
    bool doomed = false;  // invalidated while in flight
    bool in_lru = false;
    std::list<RegionKey>::iterator lru;  // valid while in_lru
  };

  std::string describe(const RegionKey& key) const;
  void drop(std::map<RegionKey, Entry>::iterator it);
  /// Evicts the LRU unreferenced entry if the cache is at capacity and one
  /// exists.
  void make_room();

  std::size_t capacity_;
  std::string name_;
  std::map<RegionKey, Entry> entries_;
  std::list<RegionKey> lru_;  // front = least recently used, evictable
  std::uint64_t pinned_bytes_ = 0;
  MrCacheStats stats_;
};

}  // namespace mad::fwd
