// The sending half of every GTM hop (paper §2.3): one unit shared by the
// origin's VcMessageWriter, each rail of a striped transfer and the gateway
// relay.
//
// An egress writes the GTM sender discipline on one hop message: the
// preamble, the self-describing message header (plus the stripe header on
// a rail), then per block a block header and MTU-sized fragments, then the
// end marker. On a reliable hop the same elements go through a
// ReliableSender window with a fresh epoch. After a failed attempt, one
// failover loop books the setback (a dead hop, an admission refusal or a
// stale route), reopens the hop on the current best route and lets the
// caller replay what it stored, until an attempt succeeds or no route is
// left. What the egress does not own stays with its caller: what to store
// for replay, when to check for a stale route, the gateway's DRR grants,
// static-buffer sends and one-sided block cut.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <ranges>
#include <utility>
#include <vector>

#include "fwd/generic_tm.hpp"
#include "fwd/reliable.hpp"
#include "topo/routing.hpp"
#include "util/bytes.hpp"

namespace mad::fwd {

class VirtualChannel;

/// Why one egress attempt failed.
struct Setback {
  enum class Kind {
    None,
    /// The next hop exhausted its retry budget (HopFailure).
    HopDied,
    /// The next hop is a healthy gateway whose admission gate refused the
    /// message (FlowRejected).
    Rejected,
    /// The route moved and the open hop's peer is dead (Egress::stale).
    RouteStale,
  };
  Kind kind = Kind::None;
  HopFailure failure;  // HopDied only

  bool ok() const { return kind == Kind::None; }
};

/// A block a sender keeps for replay after a failover.
struct StoredBlock {
  /// A view of a caller's buffer, which stays unchanged until the message
  /// ends.
  StoredBlock(const GtmBlockHeader& header, util::ByteSpan data)
      : header(header), data(data) {}
  /// A temporary buffer would convert to the view and leave it dangling.
  template <typename Buffer>
    requires(!std::ranges::borrowed_range<Buffer>)
  StoredBlock(const GtmBlockHeader& header, Buffer&& temporary) = delete;
  /// A block that owns its bytes.
  StoredBlock(const GtmBlockHeader& header, std::vector<std::byte> bytes)
      : header(header), owned(std::move(bytes)), data(owned) {}
  /// A block stored fragment by fragment as it arrives (the gateway
  /// relay): `data` stays empty and `fragments` fills up.
  explicit StoredBlock(const GtmBlockHeader& header) : header(header) {}
  // Moving keeps `owned`'s heap buffer, so `data` stays valid; a copy
  // would not.
  StoredBlock(StoredBlock&&) = default;
  StoredBlock& operator=(StoredBlock&&) = default;

  GtmBlockHeader header;
  std::vector<std::byte> owned;  // empty for a view
  util::ByteSpan data;
  /// One buffer of the channel's paquet pool per MTU fragment, in order;
  /// whoever stored them gives them back.
  std::vector<util::Bytes> fragments;
};

class Egress {
 public:
  /// The sender at `self` of the message `header` describes, on channel
  /// pair `rail`. Every hop message repeats `header` (a reliable hop with a
  /// fresh epoch) and `stripe` when set. `reject_seed` seeds the jitter of
  /// the backoff after admission rejections.
  Egress(VirtualChannel& vc, NodeRank self, const GtmMsgHeader& header,
         std::optional<GtmStripeHeader> stripe, int rail,
         std::uint64_t reject_seed);
  // The window holds a reference to the writer beside it.
  Egress(const Egress&) = delete;
  Egress& operator=(const Egress&) = delete;

  /// Aims the next hop message along `route`: the regular channel when the
  /// route is one hop (the destination itself), the special channel toward
  /// a gateway otherwise. A reliable hop takes a fresh epoch.
  void set_route(const topo::Route& route);
  /// set_route on the current best route to the destination.
  void pick_route();
  /// Begins the hop message on the aimed channel and writes its framing.
  void open();

  /// Block header. `one_sided` sends the block's fragments as RDMA-style
  /// writes after a rendezvous (the out TM must keep dynamic buffers).
  void block_header(const GtmBlockHeader& header, bool one_sided = false);
  /// One MTU fragment of the current block.
  void fragment(util::ByteSpan payload);
  /// A whole two-sided block: its header, then its fragments.
  void block(const GtmBlockHeader& header, util::ByteSpan data);
  /// The end marker; a reliable hop then drains its window.
  void end();
  /// Closes the hop message. A failed window is dropped first, so closing
  /// a dead hop never blocks and releases the connection's tx lock.
  void close();

  /// True when the route table moved since this hop was aimed AND its
  /// peer is now dead: the stream is doomed (the dead relay will never
  /// ack), so the caller reroutes before feeding it more. Quality-only
  /// cost refreshes also move the table, but a live next hop keeps it.
  bool stale() const;

  /// Runs `step`, returning a HopFailure or FlowRejected as the setback.
  template <typename Step>
  static Setback attempt(Step&& step) {
    try {
      step();
      return {};
    } catch (const HopFailure& failure) {
      return {Setback::Kind::HopDied, failure};
    } catch (const FlowRejected&) {
      return {Setback::Kind::Rejected, {}};
    }
  }

  /// The failover loop. Closes the failed hop and books `setback`: a dead
  /// hop is declared to the routing table (with a failover when a route
  /// survives), a rejection backs off exponentially with deterministic
  /// jitter, a stale route counts a proactive reroute. Then it reopens on
  /// the current best route and runs `replay`, until an attempt succeeds.
  /// Panics "unreachable" when no route is left. `stand_down` (optional)
  /// abandons the message before a reopen and after a failed replay.
  void recover(Setback setback, const std::function<Setback()>& replay,
               const std::function<bool()>& stand_down = {});

  /// One step on the open hop: `step` (or, on a stale route, nothing),
  /// then recovery with `replay` after any setback.
  template <typename Step, typename Replay>
  void send(Step&& step, Replay&& replay) {
    const Setback setback =
        stale() ? Setback{Setback::Kind::RouteStale, {}} : attempt(step);
    if (!setback.ok()) {
      recover(setback, [&] { return attempt(replay); });
    }
  }

  Channel& channel() const { return *channel_; }
  NodeRank next() const { return next_; }
  /// The reliable window of the open hop; nullptr on plain hops.
  ReliableSender* sender() { return sender_ ? &*sender_ : nullptr; }

 private:
  bool reliable() const { return (header_.flags & kGtmFlagReliable) != 0; }

  VirtualChannel& vc_;
  NodeRank self_;
  NodeRank dst_;
  int rail_;
  GtmMsgHeader header_;
  std::optional<GtmStripeHeader> stripe_;
  std::uint64_t reject_seed_;
  int rejects_ = 0;  // consecutive admission rejections (backoff exponent)
  Channel* channel_ = nullptr;
  NodeRank next_ = -1;
  std::uint64_t route_epoch_ = 0;  // routing().epoch() when aimed
  // The window references the writer, so it is declared after it and
  // dies first.
  std::optional<MessageWriter> writer_;
  std::optional<ReliableSender> sender_;
  std::uint32_t seq_ = 0;
  // The current block's fragments cross as one-sided writes; framing
  // (headers, end markers) always stays two-sided.
  bool one_sided_ = false;
  std::uint64_t fragments_left_ = 0;  // of the current block
};

}  // namespace mad::fwd
