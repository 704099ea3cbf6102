// One-sided RDMA-style transmission module (per NIC).
//
// The paper's worst case — Myrinet→SCI forwarding pinned at ~35-40 MB/s —
// is not a copy problem but a bus problem: the gateway's outgoing SCI leg
// is programmed I/O, and PIO loses PCI arbitration to the concurrent
// Myrinet DMA receive (§3.4.1). The fix, borrowed from the
// MPICH2-over-InfiniBand design (PAPERS.md), is one-sided: the sender
// writes directly into the destination's pre-registered memory with
// bus-master DMA on both host buses, and the destination CPU sees only a
// completion notification. Registration is expensive, so a pin-down cache
// (fwd/mr_cache.hpp) amortizes it across the buffers the gateway and the
// reliable senders recycle, each named by its simulated region.
//
// An RdmaTm wraps one NIC with:
//   * Pin          — registration lookup of a region through the LRU
//                    cache, charging the simulated pin cost (base +
//                    per-page) on a miss;
//   * write()      — queue-pair-style one-sided write: pins the source
//                    region, then pushes the fragment as a single
//                    net::SendOptions{one_sided} packet (same tag and
//                    FIFO order as the two-sided path, so framing around
//                    it is untouched), from a view or by ownership;
//   * rendezvous() — the control handshake that has the REMOTE side
//                    register its receive region (keyed by the sender's
//                    tx tag): one control RTT, plus the remote pin cost
//                    when the remote cache misses;
//   * invalidate() — NIC crash / channel teardown: all registrations die
//                    with the adapter state.
#pragma once

#include <cstdint>
#include <string>

#include "fwd/mr_cache.hpp"
#include "net/nic.hpp"
#include "sim/time.hpp"
#include "util/bytes.hpp"

namespace mad::sim {
class Engine;
}

namespace mad::fwd {

struct RdmaOptions {
  bool enabled = false;
  /// Blocks at or above this size cross gateways as one-sided writes
  /// after a rendezvous; smaller blocks keep the eager two-sided path
  /// (the handshake and pin costs would outweigh the PIO conflict they
  /// avoid).
  std::uint32_t rendezvous_threshold = 32 * 1024;
  /// Registered regions the pin-down cache retains per NIC.
  std::size_t cache_capacity = 64;

  /// Panics loudly on inconsistent settings.
  void validate() const;
};

/// Registration cost model: pinning costs base + ceil(len/page) * page
/// cost (syscall entry plus per-page table walk — the shape Tezuka et al.
/// measured).
inline constexpr sim::Time kPinBaseCost = sim::microseconds(20);
inline constexpr sim::Time kPinPageCost = sim::microseconds(1);
inline constexpr std::size_t kPinPageSize = 4096;

class RdmaTm {
 public:
  RdmaTm(sim::Engine& engine, net::Nic& nic, const RdmaOptions& options,
         std::string label);

  net::Nic& nic() const { return nic_; }
  MrCache& cache() { return cache_; }
  const MrCache& cache() const { return cache_; }
  const RdmaOptions& options() const { return options_; }

  /// RAII in-flight registration of one local region: acquired through
  /// the cache (charging pin cost on a miss), released on destruction.
  class Pin {
   public:
    Pin(RdmaTm& tm, const RegionKey& region);
    ~Pin();
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    bool hit() const { return hit_; }

   private:
    MrCache& cache_;
    RegionKey region_;
    bool hit_;
  };

  /// One-sided write of `data`, which lives in `region` (of data.size()
  /// bytes), to the peer NIC: pins the region, then sends the bytes as a
  /// single one-sided packet. `completion` marks the last fragment of a
  /// block — the remote completion notification the destination actor
  /// pays receive software for.
  void write(int dst_nic_index, std::uint64_t tag, util::ByteSpan data,
             RegionKey region, bool completion);
  /// The same write of `packet`, a buffer of the network's packet pool,
  /// sent by ownership (net::Nic::send's adopting form).
  void write(int dst_nic_index, std::uint64_t tag, util::Bytes packet,
             RegionKey region, bool completion);

  /// Rendezvous with the destination NIC's RdmaTm for a block of `len`
  /// bytes landing under `remote_key`, the sender's tx tag (the receive
  /// buffers behind one tag are stable, so the tag names the region).
  /// Charges the control round trip; on a remote-cache miss this actor
  /// additionally waits out the remote side's pin cost. Returns true when
  /// the remote registration was already cached.
  bool rendezvous(RdmaTm& remote, std::uint64_t remote_key, std::size_t len);

  /// NIC crash / channel teardown: drops every cached registration.
  void invalidate();

  std::uint64_t writes() const { return writes_; }
  std::uint64_t bytes_written() const { return bytes_written_; }
  std::uint64_t rendezvous_count() const { return rendezvous_count_; }
  std::uint64_t rendezvous_hits() const { return rendezvous_hits_; }

 private:
  friend class Pin;
  sim::Time pin_cost(std::size_t len) const;
  /// Cache lookup + miss-cost charging shared by local pins and the
  /// remote side of a rendezvous.
  bool acquire_charged(const RegionKey& region);
  /// Counts one write of `bytes`.
  void count_write(std::size_t bytes);

  sim::Engine& engine_;
  net::Nic& nic_;
  RdmaOptions options_;
  std::string label_;
  MrCache cache_;
  std::uint64_t writes_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t rendezvous_count_ = 0;
  std::uint64_t rendezvous_hits_ = 0;
};

}  // namespace mad::fwd
