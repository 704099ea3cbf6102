// Core identifiers and the pack/unpack flag pairs of the Madeleine API.
#pragma once

#include <cstdint>
#include <string>

namespace mad {

/// Global rank of a node within a session ("configuration" in Madeleine
/// terms). Assigned by Domain::add_node in registration order.
using NodeRank = int;

/// Identifies a channel across the whole configuration.
using ChannelId = int;

/// Sender-side semantics of mad_pack (paper §2.1.2).
enum class SendMode {
  /// Data is copied at pack() time; the user may modify the buffer as soon
  /// as pack() returns. Costs one software copy.
  Safer,
  /// Data is read somewhere between pack() and end_packing(), so a change
  /// made in between may or may not be transmitted. The path decides (a
  /// deviation from the paper, which reads it at end_packing(); see
  /// ARCHITECTURE.md §3):
  ///   * a native channel's aggregating BMM reads it at the next Express
  ///     block or at end_packing() (DynamicAggregTx suspends its drain);
  ///     the eager and static shapes and the hybrid's small blocks read it
  ///     during pack();
  ///   * a forwarded (GTM) message reads it during pack(), and a reliable
  ///     hop snapshots it there so retransmissions carry the sealed bytes;
  ///     a plain striped message's rail actors read it before
  ///     end_packing() returns.
  Later,
  /// Madeleine chooses the cheapest scheme; the buffer must stay unchanged
  /// until end_packing(). This is the common, fastest mode.
  Cheaper,
};

/// Receiver-side semantics of mad_unpack.
enum class RecvMode {
  /// Data is guaranteed available when unpack() returns — required when the
  /// receiver needs the value to interpret the rest of the message (sizes,
  /// tags). Forces an aggregation flush on the sender.
  Express,
  /// Data is guaranteed available only after end_unpacking(); lets the
  /// library aggregate freely.
  Cheaper,
};

const char* to_string(SendMode mode);
const char* to_string(RecvMode mode);

}  // namespace mad
