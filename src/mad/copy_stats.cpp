#include "mad/copy_stats.hpp"

#include <cstring>

#include "sim/engine.hpp"
#include "util/panic.hpp"

namespace mad {

namespace {

/// Sustained software memcpy rate of the modelled node in bytes/s (PII-450
/// through PC100 SDRAM ≈ 100 MB/s — comparable to the PCI reception rate,
/// exactly the paper's observation).
constexpr double kCopyRate = 100e6;

}  // namespace

CopyStats& copy_stats() {
  static CopyStats stats;
  return stats;
}

void counted_copy(util::MutByteSpan dst, util::ByteSpan src, CopyPath path) {
  MAD_ASSERT(dst.size() == src.size(), "counted_copy: size mismatch");
  if (!src.empty()) {
    std::memcpy(dst.data(), src.data(), src.size());
  }
  count_copy(src.size(), path);
}

void count_copy(std::size_t bytes, CopyPath path) {
  CopyStats& stats = copy_stats();
  ++stats.copies;
  stats.bytes += bytes;
  ++stats.path_copies[static_cast<std::size_t>(path)];
  stats.path_bytes[static_cast<std::size_t>(path)] += bytes;
  // The CPU is busy for the duration of the copy.
  if (sim::Engine* engine = sim::Engine::current()) {
    engine->sleep_for(sim::transfer_time(bytes, kCopyRate));
  }
}

}  // namespace mad
