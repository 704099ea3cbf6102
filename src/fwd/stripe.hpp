// Multi-rail striping across parallel gateways (ROADMAP: production-scale
// sharding; remedy for the paper's §3.4.1 shared-PCI-bus bottleneck).
//
// One logical GTM message is split into *rails*: each rail is a complete,
// self-describing GTM stream (message header + GtmStripeHeader + ordinary
// block headers + MTU fragments + end marker) sent over one of the
// node-disjoint routes from topo::Routing::disjoint_routes(). Rail r
// travels exclusively on the virtual channel's rail-r channel pair, so
// rails never contend for a connection's tx lock and every gateway relays
// them with the unmodified paquet engine. The split is a deterministic
// weighted round-robin over paquets — both ends derive the identical chunk
// schedule from the shares announced in the stripe headers, so nothing
// about the app's pack/unpack call sequence needs to be negotiated.
//
// Each rail's sender actor writes its stream through its own Egress
// (fwd/egress.hpp), the hop writer the unstriped origin and the gateway
// relay use too; what stays here is the schedule, the per-rail credit
// windows, the rail actors and the stripe.* metrics.
//
// Flow control: the producer (VcMessageWriter::pack) acquires one credit
// from the target rail's CreditWindow per chunk; the rail's sender actor
// releases it once the chunk is on the wire (acked, in reliable mode). A
// slow, regulated, or failing rail therefore backpressures only its own
// stripe. In reliable mode a rail whose first-hop gateway dies goes
// through the egress's failover loop like any other sender: the gateway
// is declared dead and the rail replays its chunks over the surviving best
// route (same rail identity, fresh epoch) — the "repair rail" — while the
// other rails stream on undisturbed.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "fwd/regulation.hpp"
#include "fwd/reliable.hpp"
#include "fwd/virtual_channel.hpp"
#include "sim/condition.hpp"
#include "sim/mailbox.hpp"
#include "topo/routing.hpp"
#include "util/bytes.hpp"

namespace mad::fwd {

/// One rail of a striped transfer: the route it takes and its weight
/// (consecutive paquets per round-robin round).
struct RailPlan {
  topo::Route route;
  std::uint32_t share = 1;
};

/// Rail plans for src→dst: up to max_rails node-disjoint routes, each
/// weighted by its own route MTU relative to the narrowest rail (a rail
/// whose networks carry bigger paquets takes proportionally more of them
/// per round), clamped to [1, 64]. VcOptions::rail_weights overrides the
/// derived shares ("measured rate" knob). Fewer than two plans means the
/// transfer is not worth striping.
std::vector<RailPlan> plan_rails(const VirtualChannel& vc, NodeRank src,
                                 NodeRank dst, int max_rails);

/// The deterministic chunker both ends share. State persists across blocks
/// of one message so many small blocks still spread over all rails.
class StripeSchedule {
 public:
  StripeSchedule() = default;  // unusable until assigned from a real one
  explicit StripeSchedule(std::vector<std::uint32_t> shares);

  struct Chunk {
    std::size_t rail = 0;
    std::uint64_t bytes = 0;
  };

  /// Next chunk of a block with `remaining` bytes left: the current rail
  /// takes up to its unused share of mtu-sized paquets (at least one).
  /// remaining == 0 (an empty block) charges the current rail a zero-byte
  /// chunk without consuming share.
  Chunk next(std::uint64_t remaining, std::uint32_t mtu);

  const std::vector<std::uint32_t>& shares() const { return shares_; }

 private:
  std::vector<std::uint32_t> shares_;
  std::size_t rail_ = 0;
  std::uint32_t used_ = 0;
};

/// Sender side: one actor per rail feeding that rail's channel pair, a
/// credit window per rail, and the shared schedule distributing pack()ed
/// blocks into per-rail chunk streams. Owned (heap-stable) by the
/// VcMessageWriter that went striped.
class Striper {
 public:
  Striper(VirtualChannel& vc, NodeRank src, NodeRank dst,
          std::vector<RailPlan> plans, std::uint32_t stripe_id);
  ~Striper();

  Striper(const Striper&) = delete;
  Striper& operator=(const Striper&) = delete;

  std::size_t rails() const { return rails_.size(); }

  /// Credit-window introspection: tests assert a drained rail leaks no
  /// credits (available == total) even across repair and unwinding.
  std::uint32_t rail_credits_available(std::size_t rail) const {
    return rails_[rail]->credits.available();
  }
  std::uint32_t rail_credits_total(std::size_t rail) const {
    return rails_[rail]->credits.total();
  }

  void pack(util::ByteSpan data, SendMode smode, RecvMode rmode);

  /// Flushes end markers on every rail and joins the rail actors; the
  /// message is fully on the wire (fully acked, in reliable mode) when
  /// this returns.
  void end_packing();

 private:
  struct RailItem {
    util::ByteSpan data;
    GtmBlockHeader header;
    bool end = false;
  };

  struct Rail {
    Rail(sim::Engine& engine, RailPlan plan_in, std::uint32_t credit_chunks,
         const std::string& name)
        : plan(std::move(plan_in)),
          items(engine, /*capacity=*/0, name + ".items"),
          credits(engine, credit_chunks, name + ".credits") {}
    RailPlan plan;
    sim::Mailbox<RailItem> items;
    CreditWindow credits;
  };

  void run_rail(std::size_t index);
  void feed(std::size_t rail, RailItem item);

  VirtualChannel& vc_;
  NodeRank src_;
  NodeRank dst_;
  std::uint32_t stripe_id_;
  StripeSchedule schedule_;
  std::vector<std::unique_ptr<Rail>> rails_;
  std::deque<std::vector<std::byte>> copies_;  // Safer-mode snapshots
  std::size_t rails_done_ = 0;
  sim::Condition done_;
  bool ended_ = false;
};

/// Receiver side: collects the k rail messages of one striped transfer
/// (rail 0 arrives on the regular channel and is owned by the
/// VcMessageReader; rails >= 1 are claimed from the endpoint's stripe
/// inbox by (origin, stripe_id, rail)), then replays the sender's chunk
/// schedule to split unpack() destinations into per-rail chunk jobs.
///
/// One reader actor per rail drains its stream CONCURRENTLY with the
/// others — chunk destinations of different rails are disjoint spans, and
/// the receive cost (rx PCI transfer, per-paquet host overhead) is charged
/// when a paquet is consumed, so a single consuming actor would serialize
/// the rails at the one-flow DMA ceiling and forfeit most of the striping
/// win. unpack() returns once every chunk of that destination landed.
class Reassembler {
 public:
  Reassembler(VcEndpoint& endpoint, VcIncoming& rail0,
              const GtmMsgHeader& header, const GtmStripeHeader& stripe);

  void unpack(util::MutByteSpan dst, SendMode smode, RecvMode rmode);

  /// Reads every rail's end marker, joins the rail reader actors, and
  /// closes and releases the stripe-channel rails (rail 0 stays open —
  /// the owning VcMessageReader closes it).
  void end_unpacking();

  std::size_t rails() const { return rails_.size(); }
  /// Payload paquets received on one rail (bench/test visibility; the
  /// same counts feed the stripe.rx_paquets metric).
  std::uint64_t rail_paquets(std::size_t rail) const {
    return rails_[rail].paquets;
  }

 private:
  struct RxJob {
    util::MutByteSpan dst;
    SendMode smode = SendMode::Cheaper;
    RecvMode rmode = RecvMode::Cheaper;
    bool end = false;
  };

  struct RailRx {
    std::optional<HopReader> hop;
    std::uint64_t paquets = 0;
    std::unique_ptr<sim::Mailbox<RxJob>> jobs;
    std::uint64_t enqueued = 0;
    std::uint64_t completed = 0;  // advanced by the rail's reader actor
  };

  void run_rail_rx(std::size_t rail);
  void read_chunk(std::size_t rail, util::MutByteSpan dst, SendMode smode,
                  RecvMode rmode);
  void enqueue(std::size_t rail, RxJob job);
  /// Blocks until every enqueued job (on every rail) completed.
  void join();

  VirtualChannel& vc_;
  NodeRank self_;
  std::uint32_t mtu_;
  std::vector<StripeIncoming> owned_;  // rails 1..k-1, in rail order
  std::vector<RailRx> rails_;          // all k rails, rail 0 first
  StripeSchedule schedule_;
  sim::Condition progress_;
};

}  // namespace mad::fwd
