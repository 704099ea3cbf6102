// Software-copy accounting.
//
// The paper's central efficiency argument (§2.3 "Minimizing copies") is
// about *software* copies performed by the library — copies into static
// protocol buffers, SAFER staging copies, gateway regrouping. Hardware
// transfers (NIC DMA placement, wire movement) are not copies in this
// sense. Every software copy in the mad/ and fwd/ layers is charged where
// it happens, and only there, so tests can assert zero-copy paths: through
// counted_copy(), or through count_copy() beside a copy made by other
// means (the fused copy-and-digest of fwd/generic_tm.hpp). A paquet a
// gateway keeps in the buffer it arrived in is charged nothing, and so is
// the host pass that stands for a dynamic-buffer NIC placing a paquet in
// user memory.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/bytes.hpp"

namespace mad {

/// Which forwarding strategy a software copy belongs to, so benches and
/// tests can attribute copies per path instead of only in aggregate:
///   * Staged   — reader/writer staging and protocol copies (the default;
///                every pre-existing call site);
///   * ZeroCopy — the residual copies of the zero-copy gateway matrix
///                (§2.3): today only the unavoidable static→static
///                regrouping copy;
///   * OneSided — copies on the one-sided RDMA-style forwarding path.
///                None exist (the path is DMA end to end); the bucket is
///                asserted zero by tests, so any copy later added to that
///                path is caught the moment it is attributed.
enum class CopyPath { Staged = 0, ZeroCopy = 1, OneSided = 2 };
inline constexpr std::size_t kCopyPathCount = 3;

struct CopyStats {
  std::uint64_t copies = 0;
  std::uint64_t bytes = 0;
  std::uint64_t path_copies[kCopyPathCount] = {};
  std::uint64_t path_bytes[kCopyPathCount] = {};

  std::uint64_t copies_on(CopyPath path) const {
    return path_copies[static_cast<std::size_t>(path)];
  }
  std::uint64_t bytes_on(CopyPath path) const {
    return path_bytes[static_cast<std::size_t>(path)];
  }

  void reset() { *this = {}; }
};

/// Process-global accounting (the simulation engine runs one actor at a
/// time, so no synchronization is needed).
CopyStats& copy_stats();

/// memcpy + accounting + virtual-time cost: when called from a simulation
/// actor the copy charges bytes/kCopyRate (100 MB/s, copy_stats.cpp) of
/// CPU time — the paper notes a copy "can take as much time as the
/// reception of a message".
void counted_copy(util::MutByteSpan dst, util::ByteSpan src,
                  CopyPath path = CopyPath::Staged);

/// Accounts (and charges time for) a copy performed by other means; call
/// it beside that copy.
void count_copy(std::size_t bytes, CopyPath path = CopyPath::Staged);

}  // namespace mad
