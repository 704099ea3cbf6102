#include "fwd/stripe.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "fwd/egress.hpp"
#include "fwd/reliable.hpp"
#include "mad/channel.hpp"
#include "mad/session.hpp"
#include "net/fabric.hpp"
#include "sim/metrics.hpp"
#include "util/panic.hpp"

namespace mad::fwd {

namespace {

std::vector<std::uint32_t> shares_of(const std::vector<RailPlan>& plans) {
  std::vector<std::uint32_t> shares;
  shares.reserve(plans.size());
  for (const RailPlan& plan : plans) {
    shares.push_back(plan.share);
  }
  return shares;
}

std::string rail_label(NodeRank node, std::size_t rail) {
  return "node=" + std::to_string(node) + ",rail=" + std::to_string(rail);
}

/// Releases one rail credit on scope exit — including exceptional unwind
/// (a repair that panics with no surviving route, engine shutdown) — so a
/// dying rail never strands the chunk it was holding.
class CreditGuard {
 public:
  explicit CreditGuard(CreditWindow& credits) : credits_(credits) {}
  ~CreditGuard() { credits_.release(); }
  CreditGuard(const CreditGuard&) = delete;
  CreditGuard& operator=(const CreditGuard&) = delete;

 private:
  CreditWindow& credits_;
};

}  // namespace

std::vector<RailPlan> plan_rails(const VirtualChannel& vc, NodeRank src,
                                 NodeRank dst, int max_rails) {
  std::vector<RailPlan> plans;
  const std::vector<topo::Route> routes =
      vc.routing().disjoint_routes(src, dst, static_cast<std::size_t>(
                                                 std::max(max_rails, 0)));
  if (routes.size() < 2) {
    for (const topo::Route& route : routes) {
      plans.push_back(RailPlan{route, 1});
    }
    return plans;
  }
  // Weight each rail by its own route MTU: a rail whose networks carry
  // bigger paquets ships proportionally more of the (vc-wide, minimum)
  // MTU-sized paquets per round.
  std::vector<std::uint32_t> mtus;
  mtus.reserve(routes.size());
  for (const topo::Route& route : routes) {
    std::vector<net::Network*> nets;
    nets.reserve(route.size());
    for (const topo::Hop& hop : route) {
      nets.push_back(&vc.network(hop.network));
    }
    mtus.push_back(
        compute_route_mtu(vc.domain(), nets, vc.options().paquet_size));
  }
  const std::uint32_t min_mtu = *std::min_element(mtus.begin(), mtus.end());
  for (std::size_t r = 0; r < routes.size(); ++r) {
    std::uint32_t share =
        std::clamp<std::uint32_t>(mtus[r] / min_mtu, 1, 64);
    const auto& weights = vc.options().rail_weights;
    if (r < weights.size() && weights[r] > 0) {
      share = std::min<std::uint32_t>(weights[r], 1024);
    }
    plans.push_back(RailPlan{routes[r], share});
  }
  // Graceful rail degradation: demote a sick rail's share in proportion to
  // its route health and drop it entirely below rail_drop_score. Dropping
  // to a single rail returns that one plan — the caller then sends
  // unstriped, which is exactly the degraded mode we want.
  if (const topo::HealthMonitor* health = vc.health()) {
    const sim::Time now = vc.domain().engine().now();
    sim::MetricsRegistry& metrics = vc.domain().fabric().metrics();
    std::vector<RailPlan> kept;
    kept.reserve(plans.size());
    for (std::size_t r = 0; r < plans.size(); ++r) {
      const double score = health->route_score(src, plans[r].route, now);
      if (score < health->options().rail_drop_score) {
        metrics.add("health.rails_dropped",
                    rail_label(src, r));
        continue;
      }
      RailPlan plan = plans[r];
      const auto scaled = static_cast<std::uint32_t>(
          std::lround(static_cast<double>(plan.share) * score));
      if (scaled < plan.share) {
        metrics.add("health.rails_demoted", rail_label(src, r));
      }
      plan.share = std::max<std::uint32_t>(1, scaled);
      kept.push_back(std::move(plan));
    }
    if (!kept.empty()) {
      plans = std::move(kept);
    }
  }
  return plans;
}

// ---------------------------------------------------------- StripeSchedule

StripeSchedule::StripeSchedule(std::vector<std::uint32_t> shares)
    : shares_(std::move(shares)) {
  MAD_ASSERT(!shares_.empty(), "stripe schedule needs at least one share");
  for (const std::uint32_t share : shares_) {
    MAD_ASSERT(share > 0, "zero stripe share");
  }
}

StripeSchedule::Chunk StripeSchedule::next(std::uint64_t remaining,
                                           std::uint32_t mtu) {
  MAD_ASSERT(!shares_.empty(), "stripe schedule used before assignment");
  if (remaining == 0) {
    return {rail_, 0};
  }
  const std::uint32_t avail = shares_[rail_] - used_;
  const std::uint64_t needed = fragment_count(remaining, mtu);
  const std::uint64_t take = std::min<std::uint64_t>(avail, needed);
  const std::uint64_t bytes =
      std::min<std::uint64_t>(take * static_cast<std::uint64_t>(mtu),
                              remaining);
  const Chunk chunk{rail_, bytes};
  used_ += static_cast<std::uint32_t>(take);
  if (used_ == shares_[rail_]) {
    rail_ = (rail_ + 1) % shares_.size();
    used_ = 0;
  }
  return chunk;
}

// ----------------------------------------------------------------- Striper

Striper::Striper(VirtualChannel& vc, NodeRank src, NodeRank dst,
                 std::vector<RailPlan> plans, std::uint32_t stripe_id)
    : vc_(vc),
      src_(src),
      dst_(dst),
      stripe_id_(stripe_id),
      schedule_(shares_of(plans)),
      done_(vc.domain().engine(),
            vc.name() + ".stripe.done." + std::to_string(src)) {
  MAD_ASSERT(plans.size() >= 2, "striping needs at least two rails");
  MAD_ASSERT(plans.size() <= 0xFFFF, "rail count exceeds the wire format");
  sim::Engine& engine = vc.domain().engine();
  rails_.reserve(plans.size());
  for (std::size_t r = 0; r < plans.size(); ++r) {
    rails_.push_back(std::make_unique<Rail>(
        engine, std::move(plans[r]), vc.options().rail_credit_chunks,
        vc.name() + ".rail" + std::to_string(r) + "." + std::to_string(src)));
  }
  for (std::size_t r = 0; r < rails_.size(); ++r) {
    engine.spawn(vc.name() + ".rail" + std::to_string(r) + "." +
                     std::to_string(src) + "->" + std::to_string(dst),
                 [this, r] { run_rail(r); });
  }
}

// No assert on ended_: when a rail actor panics (no surviving route), the
// exception unwinds the app actor's stack through this destructor while
// the engine is shutting down — the rail actors never run again.
Striper::~Striper() = default;

void Striper::feed(std::size_t rail, RailItem item) {
  // One credit per chunk: a rail that stopped draining (slow, regulated,
  // mid-repair) blocks the producer HERE — only once its own window is
  // exhausted, and without touching the other rails.
  rails_[rail]->credits.acquire();
  rails_[rail]->items.send(std::move(item));
}

void Striper::pack(util::ByteSpan data, SendMode smode, RecvMode rmode) {
  MAD_ASSERT(!ended_, "pack after end_packing");
  util::ByteSpan src = data;
  if (smode == SendMode::Safer) {
    // Safer lets the app reuse the buffer as soon as pack() returns, but
    // the rail actor sends later: snapshot into the striper's arena (kept
    // until destruction — reliable repair may replay it much later).
    copies_.emplace_back(data.begin(), data.end());
    src = util::ByteSpan(copies_.back());
  }
  // An empty block still takes one (zero-byte) chunk.
  std::size_t offset = 0;
  do {
    const StripeSchedule::Chunk chunk =
        schedule_.next(src.size() - offset, vc_.mtu());
    feed(chunk.rail, RailItem{src.subspan(offset, chunk.bytes),
                              block_header_for(chunk.bytes, smode, rmode),
                              false});
    offset += chunk.bytes;
  } while (offset < src.size());
}

void Striper::end_packing() {
  MAD_ASSERT(!ended_, "end_packing called twice");
  for (const std::unique_ptr<Rail>& rail : rails_) {
    rail->items.send(RailItem{{}, {}, true});
  }
  while (rails_done_ < rails_.size()) {
    done_.wait();
  }
  ended_ = true;
}

void Striper::run_rail(std::size_t index) {
  Rail& rail = *rails_[index];
  sim::Engine& engine = vc_.domain().engine();
  sim::MetricsRegistry& metrics = vc_.domain().fabric().metrics();
  sim::Trace* trace = vc_.options().trace;
  const std::string label = rail_label(src_, index);
  // One egress, so one sliding window, per rail: each rail pipelines its
  // own hop's ack round trips, composing with (not replacing) the credit
  // window's chunk-level backpressure.
  Egress egress(
      vc_, src_,
      GtmMsgHeader{static_cast<std::uint32_t>(dst_),
                   static_cast<std::uint32_t>(src_), vc_.mtu(), 0,
                   static_cast<std::uint8_t>(
                       kGtmFlagStriped |
                       (vc_.reliable() ? kGtmFlagReliable : 0))},
      GtmStripeHeader{stripe_id_, static_cast<std::uint16_t>(index),
                      static_cast<std::uint16_t>(rails_.size()),
                      rail.plan.share},
      static_cast<int>(index),
      (static_cast<std::uint64_t>(src_) << 40) ^
          (static_cast<std::uint64_t>(dst_) << 20));
  std::vector<RailItem> sent;  // reliable mode: chunks handed to this rail

  const auto emit = [&](const RailItem& item) {
    const sim::Time begin = engine.now();
    egress.block(item.header, item.data);
    if (metrics.enabled()) {
      metrics.add("stripe.tx_paquets", label,
                  fragment_count(item.data.size(), vc_.mtu()));
      metrics.add("stripe.tx_bytes", label, item.data.size());
    }
    if (trace != nullptr) {
      trace->record(begin, engine.now(), "stripe.tx",
                    "rail=" + std::to_string(index) +
                        " bytes=" + std::to_string(item.data.size()));
    }
  };

  // The repair rail: reopened by the egress's failover loop (same rail
  // identity and share, fresh epoch) over the current best surviving
  // route, it replays everything already handed to this rail. Overlap with
  // a surviving rail's route is fine — the rail keeps its own channel
  // pair, so the shared gateway relays both streams without interleaving
  // them.
  const auto repair = [&](bool finishing) {
    metrics.add("stripe.repairs", label);
    if (trace != nullptr) {
      trace->instant_here("stripe.repair",
                          "rail=" + std::to_string(index) +
                              " via=" + std::to_string(egress.next()));
    }
    for (const RailItem& item : sent) {
      emit(item);
    }
    if (finishing) {
      egress.end();
    }
  };

  egress.set_route(rail.plan.route);
  egress.open();
  try {
    for (;;) {
      RailItem item = rail.items.recv();
      if (item.end) {
        egress.send([&] { egress.end(); }, [&] { repair(true); });
        break;
      }
      // The credit travels with the chunk and is handed back when this
      // iteration ends — successfully or by unwinding.
      CreditGuard credit(rail.credits);
      if (vc_.reliable()) {
        sent.push_back(item);
      }
      egress.send([&] { emit(item); }, [&] { repair(false); });
    }
  } catch (...) {
    // Unwinding (an unreachable-rail panic, engine shutdown): hand back
    // the credits of chunks still parked in the mailbox so the window
    // drains to available == total instead of leaking what the dead rail
    // held.
    while (auto parked = rail.items.try_recv()) {
      if (!parked->end) {
        rail.credits.release();
      }
    }
    throw;
  }
  egress.close();
  ++rails_done_;
  done_.notify_all();
}

// ------------------------------------------------------------- Reassembler

Reassembler::Reassembler(VcEndpoint& endpoint, VcIncoming& rail0,
                         const GtmMsgHeader& header,
                         const GtmStripeHeader& stripe)
    : vc_(endpoint.vc()),
      self_(endpoint.rank()),
      mtu_(endpoint.vc().mtu()),
      progress_(endpoint.vc().domain().engine(),
                endpoint.vc().name() + ".rxprogress." +
                    std::to_string(endpoint.rank())) {
  MAD_ASSERT(stripe.rails >= 2, "striped message with fewer than two rails");
  std::vector<std::uint32_t> shares(stripe.rails, 0);
  shares[0] = stripe.share;
  owned_.reserve(stripe.rails - 1u);
  for (std::uint16_t r = 1; r < stripe.rails; ++r) {
    StripeIncoming inc =
        endpoint.collect_rail(header.origin, stripe.stripe_id, r);
    MAD_ASSERT(inc.header.final_dst == static_cast<std::uint32_t>(self_),
               "striped rail delivered to the wrong node");
    MAD_ASSERT(inc.header.origin == header.origin,
               "striped rail origin mismatch");
    MAD_ASSERT(inc.header.mtu == header.mtu, "striped rail MTU mismatch");
    MAD_ASSERT(inc.header.flags == header.flags,
               "striped rail flags mismatch");
    MAD_ASSERT(inc.stripe.rails == stripe.rails,
               "striped rail count mismatch");
    shares[r] = inc.stripe.share;
    owned_.push_back(std::move(inc));
  }
  rails_.resize(stripe.rails);
  // Blocking (not detect_dead) reliable receivers: a striped rail is
  // relayed two-phase, so a partial rail stream never reaches this node.
  rails_[0].hop.emplace(vc_, self_, rail0.reader, *rail0.channel, header,
                        /*detect_dead=*/false);
  for (std::size_t r = 1; r < rails_.size(); ++r) {
    StripeIncoming& inc = owned_[r - 1];
    rails_[r].hop.emplace(vc_, self_, inc.reader, *inc.channel, inc.header,
                          /*detect_dead=*/false);
  }
  schedule_ = StripeSchedule(std::move(shares));
  // One reader actor per rail: the rails' receive costs overlap instead of
  // serializing in the unpacking actor. `this` is heap-stable (the
  // VcMessageReader owns the Reassembler through a unique_ptr).
  sim::Engine& engine = vc_.domain().engine();
  for (std::size_t r = 0; r < rails_.size(); ++r) {
    rails_[r].jobs = std::make_unique<sim::Mailbox<RxJob>>(
        engine, /*capacity=*/0,
        vc_.name() + ".rxrail" + std::to_string(r) + "." +
            std::to_string(self_));
    engine.spawn(vc_.name() + ".rxrail" + std::to_string(r) + "." +
                     std::to_string(self_),
                 [this, r] { run_rail_rx(r); });
  }
}

void Reassembler::run_rail_rx(std::size_t rail) {
  RailRx& rx = rails_[rail];
  for (;;) {
    RxJob job = rx.jobs->recv();
    if (job.end) {
      rx.hop->end();
      ++rx.completed;
      progress_.notify_all();
      break;
    }
    read_chunk(rail, job.dst, job.smode, job.rmode);
    ++rx.completed;
    progress_.notify_all();
  }
}

void Reassembler::enqueue(std::size_t rail, RxJob job) {
  ++rails_[rail].enqueued;
  rails_[rail].jobs->send(std::move(job));
}

void Reassembler::join() {
  while (std::any_of(rails_.begin(), rails_.end(), [](const RailRx& rx) {
    return rx.completed < rx.enqueued;
  })) {
    progress_.wait();
  }
}

void Reassembler::read_chunk(std::size_t rail, util::MutByteSpan dst,
                             SendMode smode, RecvMode rmode) {
  RailRx& rx = rails_[rail];
  rx.hop->block(dst, smode, rmode);
  const std::uint64_t fragments = fragment_count(dst.size(), mtu_);
  rx.paquets += fragments;
  sim::MetricsRegistry& metrics = vc_.domain().fabric().metrics();
  if (metrics.enabled() && fragments > 0) {
    metrics.add("stripe.rx_paquets", rail_label(self_, rail), fragments);
    metrics.add("stripe.rx_bytes", rail_label(self_, rail), dst.size());
  }
}

void Reassembler::unpack(util::MutByteSpan dst, SendMode smode,
                         RecvMode rmode) {
  // An empty block still takes one (zero-byte) chunk, as on the sender.
  std::size_t offset = 0;
  do {
    const StripeSchedule::Chunk chunk =
        schedule_.next(dst.size() - offset, mtu_);
    enqueue(chunk.rail,
            RxJob{dst.subspan(offset, chunk.bytes), smode, rmode, false});
    offset += chunk.bytes;
  } while (offset < dst.size());
  join();
}

void Reassembler::end_unpacking() {
  // Each rail actor reads its own end marker, then exits.
  for (std::size_t r = 0; r < rails_.size(); ++r) {
    enqueue(r, RxJob{{}, SendMode::Cheaper, RecvMode::Cheaper, true});
  }
  join();
  // Close and release the stripe-channel rails; rail 0 stays open for the
  // owning VcMessageReader to close.
  for (StripeIncoming& inc : owned_) {
    inc.reader.end_unpacking();
    inc.done->notify_all();
  }
}

}  // namespace mad::fwd
