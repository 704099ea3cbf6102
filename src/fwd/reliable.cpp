#include "fwd/reliable.hpp"


#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "fwd/rdma_tm.hpp"
#include "fwd/virtual_channel.hpp"
#include "mad/channel.hpp"
#include "mad/copy_stats.hpp"
#include "mad/message.hpp"
#include "mad/session.hpp"
#include "net/fabric.hpp"
#include "net/link.hpp"
#include "sim/metrics.hpp"
#include "util/arena.hpp"
#include "util/panic.hpp"

namespace mad::fwd {

namespace {

/// Deadline multiplier per retry (exponential backoff).
constexpr double kTimeoutBackoff = 2.0;

}  // namespace

void ReliableOptions::validate() const {
  MAD_ASSERT(ack_timeout > 0, "reliable mode needs a positive ack timeout");
  MAD_ASSERT(max_attempts >= 1, "reliable mode needs at least one attempt");
  MAD_ASSERT(window >= 1, "reliable window must hold at least one paquet");
  MAD_ASSERT(ack_timeout <= kMaxAckTimeout,
             "reliable ack_timeout must be <= kMaxAckTimeout");
}

sim::Time backed_off_timeout(sim::Time timeout, double backoff,
                             sim::Time cap) {
  const double next = static_cast<double>(timeout) * backoff;
  // !(next < cap) also catches inf/NaN from a runaway chain: the clamped
  // cap is the only safe answer either way.
  if (!(next < static_cast<double>(cap))) {
    return cap;
  }
  return static_cast<sim::Time>(next);
}

// ------------------------------------------------------------------- sender

ReliableSender::ReliableSender(VirtualChannel& vc, NodeRank self,
                               MessageWriter& out, Channel& out_channel,
                               NodeRank peer, std::uint32_t epoch)
    : vc_(vc),
      self_(self),
      out_(out),
      peer_(peer),
      epoch_(epoch),
      conn_(&out_channel.connection_to(peer)),
      network_(&out_channel.network()),
      engine_(&vc.domain().engine()),
      metrics_(&vc.domain().fabric().metrics()),
      trace_(vc.options().trace),
      node_label_("node=" + std::to_string(self)),
      window_(static_cast<std::size_t>(vc.options().reliable.window)),
      jitter_rng_((static_cast<std::uint64_t>(self) << 40) ^
                  (static_cast<std::uint64_t>(peer) << 20) ^ epoch) {
  // Adaptive mode starts at one paquet and slow-starts toward the cap;
  // static mode operates at the cap from the first send.
  const ReliableOptions& opts = vc.options().reliable;
  // RFC 6928-style initial window: slow start opens from a small burst
  // rather than a single paquet, trimming two round trips off the ramp.
  cwnd_ = opts.adaptive
              ? std::min(4.0, static_cast<double>(window_))
              : static_cast<double>(window_);
  ssthresh_ = static_cast<double>(window_);
  const net::NicModelParams& model = out_channel.tm().model();
  if (vc.options().rdma.enabled && !model.tx_static() && !model.hybrid()) {
    rdma_ = vc.rdma_tm(out_channel.tm().nic());
  }
}

std::size_t ReliableSender::effective_window() const {
  if (!vc_.options().reliable.adaptive) {
    return window_;
  }
  const auto w = static_cast<std::size_t>(cwnd_);
  return std::clamp<std::size_t>(w, 1, window_);
}

void ReliableSender::on_congestion(bool timeout) {
  if (!vc_.options().reliable.adaptive) {
    return;
  }
  // One multiplicative decrease per window of data: signals landing while
  // an earlier decrease is still draining are echoes of the same event.
  // A timeout is the exception — the pipe is empty, so collapse anyway.
  if (in_recovery_ && !timeout) {
    return;
  }
  // CUBIC-style decrease factor (RFC 9438 uses 0.7): with selective acks
  // the sender retransmits exactly the lost paquet, so the classic 0.5
  // overcorrects — the pipe drains far below the available rate and the
  // additive regrowth never catches back up on short transfers.
  ssthresh_ = std::max(cwnd_ * 0.7, 2.0);
  cwnd_ = timeout ? 1.0 : ssthresh_;
  if (!inflight_.empty()) {
    in_recovery_ = true;
    recover_seq_ = inflight_.back().seq;
  }
  vc_.count_reliability(self_, &ReliabilityStats::window_decreases,
                        "rel.window_decreases");
  if (metrics_->enabled()) {
    metrics_->histogram("rel.cwnd", node_label_).record(cwnd_);
  }
  if (trace_ != nullptr) {
    trace_->instant_here("rel.window_decrease",
                         "peer=" + std::to_string(peer_) + " cwnd=" +
                             std::to_string(effective_window()) +
                             (timeout ? " cause=timeout" : " cause=signal"));
  }
}

void ReliableSender::on_ack_growth() {
  if (!vc_.options().reliable.adaptive) {
    return;
  }
  // Delay-gated growth (Vegas-flavored): a round trip at twice the
  // observed floor means the pipe is already full and the extra delay is
  // queueing this sender built itself. Growing further would not add
  // goodput — it would only push the operating point toward the cap,
  // where every retransmit sits behind a window's worth of queue and
  // recovery gaps double.
  if (have_rtt_ && min_rtt_us_ > 0.0 && last_rtt_us_ > 2.0 * min_rtt_us_) {
    return;
  }
  if (cwnd_ < ssthresh_) {
    cwnd_ += 1.0;  // slow start: one paquet per ack
  } else {
    cwnd_ += 1.0 / cwnd_;  // congestion avoidance: ~one paquet per RTT
  }
  cwnd_ = std::min(cwnd_, static_cast<double>(window_));
  if (metrics_->enabled()) {
    metrics_->histogram("rel.cwnd", node_label_).record(cwnd_);
  }
}

sim::Time ReliableSender::initial_rto() const {
  const ReliableOptions& opts = vc_.options().reliable;
  const auto rto = have_rtt_ ? static_cast<sim::Time>(
                                   (srtt_us_ + 4.0 * rttvar_us_) * 1000.0)
                             : opts.ack_timeout;
  // A pending backoff (timer fired, no valid sample since) floors the
  // fresh-paquet deadline too, not just the retransmitted paquet's.
  return std::clamp(std::max(rto, backed_off_rto_), opts.ack_timeout,
                    kMaxAckTimeout);
}

void ReliableSender::set_framing(const Preamble& preamble,
                                 const GtmMsgHeader& header,
                                 const std::optional<GtmStripeHeader>& stripe) {
  framing_.clear();
  const auto keep = [this](util::ByteSpan bytes) {
    framing_.emplace_back(bytes.begin(), bytes.end());
  };
  keep(util::object_bytes(preamble));
  keep(util::object_bytes(header));
  if (stripe) {
    keep(util::object_bytes(*stripe));
  }
}

void ReliableSender::transmit(InFlight& p) {
  p.tx_begin = engine_->now();
  if (p.seq == 0 && p.retransmitted && !framing_.empty()) {
    // The receiver never acks paquet 0 while its framing is missing (it
    // cannot even tell which stream the paquet belongs to), so a lost
    // prologue always surfaces as paquet-0 retransmissions — and each one
    // re-offers the prologue. The announce comes first: it is the only
    // wake-up the receiver's accept loop gets, and the original is a
    // one-shot that a link-down window may have swallowed whole.
    out_.resend_announce();
    // Same modes as write_preamble/write_msg_header so each blob lands as
    // its own express wire paquet.
    for (const std::vector<std::byte>& blob : framing_) {
      out_.pack(util::ByteSpan(blob), SendMode::Safer, RecvMode::Express);
    }
  }
  // Filled straight into a packet buffer, which the NIC adopts.
  util::Bytes wire = network_->buffer_pool().take(p.payload().size() +
                                                  kGtmTrailerBytes);
  fill(p, wire);
  if (p.one_sided) {
    // One-sided with completion: the receiver is notified of (and acks)
    // every paquet, but the payload crosses both host buses as DMA from
    // slot seq % window of this connection's registered send ring. A
    // retransmit re-sends from the same slot.
    const RegionKey slot{
        RegionKey::Kind::SendRing, conn_->tx_tag,
        (static_cast<std::uint64_t>(conn_->peer_nic_index) << 32) |
            (p.seq % window_),
        0};
    rdma_->write(conn_->peer_nic_index, conn_->tx_tag, std::move(wire), slot,
                 /*completion=*/true);
  } else {
    out_.send_paquet(std::move(wire));
  }
  p.sent_at = engine_->now();
  p.deadline = p.sent_at + p.rto;
}

void ReliableSender::fill(InFlight& p, util::MutByteSpan wire) {
  const util::ByteSpan payload = p.payload();
  if (!p.digest) {
    p.digest = gtm_copy_digest(wire.first(payload.size()), payload);
  } else if (!payload.empty()) {
    std::memcpy(wire.data(), payload.data(), payload.size());
  }
  const GtmPaquetTrailer trailer{p.seq, epoch_,
                                 gtm_seal(*p.digest, p.seq, epoch_)};
  std::memcpy(wire.data() + payload.size(), &trailer, kGtmTrailerBytes);
}

void ReliableSender::sample_ack(InFlight& p) {
  const sim::Time now = engine_->now();
  metrics_->observe_us("rel.ack_us", node_label_,
                       sim::to_microseconds(now - p.tx_begin));
  // Karn's rule: a retransmitted paquet's ack is ambiguous, no RTT sample.
  const double rtt_us =
      p.retransmitted ? -1.0 : sim::to_microseconds(now - p.sent_at);
  if (rtt_us > 0.0) {
    backed_off_rto_ = 0;  // Karn-valid sample: backoff episode over
    if (min_rtt_us_ <= 0.0 || rtt_us < min_rtt_us_) {
      min_rtt_us_ = rtt_us;
    }
    last_rtt_us_ = rtt_us;
    if (!have_rtt_) {
      srtt_us_ = rtt_us;
      rttvar_us_ = rtt_us / 2.0;
      have_rtt_ = true;
    } else {
      rttvar_us_ = 0.75 * rttvar_us_ + 0.25 * std::abs(srtt_us_ - rtt_us);
      srtt_us_ = 0.875 * srtt_us_ + 0.125 * rtt_us;
    }
    metrics_->observe_us("rel.rtt_us", node_label_, rtt_us);
  }
  // Every completed round trip is a loss-free health sample for the hop.
  if (topo::HealthMonitor* health = vc_.health()) {
    health->record_ack(self_, peer_, now, rtt_us);
  }
}

void ReliableSender::expire(InFlight& p) {
  const ReliableOptions& opts = vc_.options().reliable;
  vc_.count_reliability(self_, &ReliabilityStats::timeouts, "rel.timeouts");
  if (trace_ != nullptr) {
    trace_->instant_here("rel.timeout",
                         "peer=" + std::to_string(peer_) + " seq=" +
                             std::to_string(p.seq) + " attempt=" +
                             std::to_string(p.attempts));
  }
  if (topo::HealthMonitor* health = vc_.health()) {
    health->record_loss(self_, peer_, engine_->now());
  }
  if (p.attempts >= opts.max_attempts) {
    throw HopFailure{peer_, p.attempts};
  }
  // A retransmit timeout usually means the pipe drained without
  // delivering, and the adaptive window collapses to one paquet. The
  // exception (RACK/TLP's insight) is an isolated tail loss: every other
  // in-flight paquet is already selectively acked, so the path is
  // demonstrably delivering and the evidence amounts to one lost paquet
  // — a multiplicative decrease, not a blackout.
  on_congestion(/*timeout=*/!others_sacked(p));
  vc_.count_reliability(self_, &ReliabilityStats::retransmits,
                        "rel.retransmits");
  if (trace_ != nullptr) {
    trace_->instant_here("rel.retransmit",
                         "peer=" + std::to_string(peer_) + " seq=" +
                             std::to_string(p.seq) + " attempt=" +
                             std::to_string(p.attempts + 1));
  }
  p.rto = backed_off_timeout(p.rto, kTimeoutBackoff, kMaxAckTimeout);
  backed_off_rto_ = std::max(backed_off_rto_, p.rto);
  // Desynchronize from periodic faults: a pure doubling chain repeats the
  // same phase against any fault period that divides its steps, so a
  // retransmit that once landed in a flap's down-window would land in every
  // later one too. Jitter stays under the kMaxAckTimeout ceiling.
  const auto extra = static_cast<sim::Time>(
      static_cast<double>(p.rto) * kRetransmitJitter *
      jitter_rng_.next_double());
  p.rto = std::min(p.rto + extra, kMaxAckTimeout);
  ++p.attempts;
  p.retransmitted = true;
  transmit(p);
}

void ReliableSender::make_room(std::size_t slots) {
  // Re-check the window bound after every drain step: in adaptive mode a
  // congestion mark consumed while waiting can shrink it under us.
  for (;;) {
    const std::size_t window = effective_window();
    const std::size_t want = std::min(std::max<std::size_t>(slots, 1),
                                      window);
    if (inflight_.size() + want <= window) {
      return;
    }
    drain_to(inflight_.size() - 1);
  }
}

void ReliableSender::send_header(std::uint32_t seq,
                                 const GtmBlockHeader& header) {
  InFlight p;
  p.seq = seq;
  p.header = header;
  enqueue(std::move(p));
}

void ReliableSender::send_fragment(std::uint32_t seq, util::ByteSpan payload,
                                   bool one_sided,
                                   std::optional<std::uint64_t> digest) {
  InFlight p;
  p.seq = seq;
  p.fragment = payload;
  p.digest = digest;
  p.one_sided = one_sided && rdma_ != nullptr;
  enqueue(std::move(p));
}

void ReliableSender::enqueue(InFlight p) {
  MAD_ASSERT(inflight_.empty() || p.seq == inflight_.back().seq + 1,
             "reliable window fed out of sequence");
  make_room();
  p.rto = initial_rto();
  inflight_.push_back(std::move(p));
  transmit(inflight_.back());
  if (metrics_->enabled()) {
    metrics_->histogram("rel.window_occupancy", node_label_)
        .record(static_cast<double>(inflight_.size()));
  }
}

void ReliableSender::flush() { drain_to(0); }

bool ReliableSender::others_sacked(const InFlight& p) const {
  for (const InFlight& q : inflight_) {
    if (q.seq != p.seq && !q.sacked) {
      return false;
    }
  }
  return true;
}

sim::Time ReliableSender::ack_cover(std::uint32_t seq) const {
  return network_->acks().posted_cover_time(
      conn_->tx_tag, conn_->peer_nic_index, epoch_, seq);
}

ReliableSender::FrontLoss ReliableSender::front_loss(sim::Time now,
                                                     sim::Time& resend_at) {
  resend_at = sim::kForever;
  InFlight& front = inflight_.front();
  // Three duplicate cumulative acks mean the receiver keeps re-acking the
  // same prefix. The burst is spent on this verdict either way.
  const bool dup_acks = dup_acks_ >= 3;
  if (dup_acks) {
    dup_acks_ = 0;
  }
  if (front.sacked || ack_cover(front.seq) != sim::kForever) {
    return FrontLoss::None;  // delivered, or its ack is on the wire
  }
  if (!front.retransmitted) {
    // NewReno-style: one fast retransmit per window front; dup acks and
    // sacks that keep arriving after it are echoes of the same loss.
    if (dup_acks) {
      return FrontLoss::DupAcks;
    }
    // SACK-based loss detection (RFC 6675's IsLost, one paquet deep): the
    // wire is FIFO, so a selective ack for any paquet sent after the
    // front proves the front's own arrival slot has passed — if three or
    // more later paquets are sacked and the front is still uncovered, it
    // is lost. Unlike the duplicate-ack counter this needs no NEW posts:
    // after a partial recovery (two holes in one window) the receiver has
    // everything parked and posts nothing more, so the second hole would
    // otherwise sit out a full RTO that dup acks can never cut short.
    if (inflight_.size() < 2) {
      return FrontLoss::None;
    }
    std::size_t sacked_later = 0;
    for (std::size_t i = 1; i < inflight_.size(); ++i) {
      if (inflight_[i].sacked) {
        ++sacked_later;
      }
    }
    // Early-retransmit relaxation (RFC 5827): a flight too small to ever
    // produce three later sacks lowers the bar to flight - 1, so a loss at
    // the tail of a window (or during slow start) does not have to wait
    // for the retransmit timer.
    const std::size_t needed = std::min<std::size_t>(3, inflight_.size() - 1);
    return sacked_later >= needed ? FrontLoss::Sacks : FrontLoss::None;
  }
  // SACK-based lost-retransmit detection. Once the front has been fast
  // retransmitted, every later in-flight paquet getting selectively acked
  // while the cumulative frontier still sits below the front means the
  // receiver has consumed everything behind the front and is waiting on
  // that one paquet. If half an RTO then passes without the retransmit's
  // ack, the retransmit itself was almost certainly dropped: waiting out
  // the full (backed-off, queue-inflated) RTO would idle the pipe for tens
  // of milliseconds and collapse the adaptive window. Resend once at the
  // half-RTO mark instead, and let a second loss fall back to the timer.
  // The half-RTO guard keeps a merely in-flight (not lost) retransmit from
  // triggering a wasteful duplicate: its ack arrives around one RTT, well
  // under RTO/2.
  if (front.sack_rtx || inflight_.size() < 2 || !others_sacked(front)) {
    return FrontLoss::None;
  }
  resend_at = front.sent_at + initial_rto() / 2;
  return resend_at <= now ? FrontLoss::LostRetransmit : FrontLoss::None;
}

void ReliableSender::resend_front(FrontLoss loss) {
  InFlight& front = inflight_.front();
  // A fast retransmit is a fresh loss signal; the lost-retransmit resend
  // repeats one already counted, so it only spends its one-shot.
  const bool fast = loss != FrontLoss::LostRetransmit;
  vc_.count_reliability(self_, &ReliabilityStats::retransmits,
                        "rel.retransmits");
  if (fast) {
    vc_.count_reliability(self_, &ReliabilityStats::fast_retransmits,
                          "rel.fast_retransmits");
  }
  if (trace_ != nullptr) {
    const std::string detail =
        "peer=" + std::to_string(peer_) + " seq=" + std::to_string(front.seq);
    if (loss == FrontLoss::DupAcks) {
      trace_->instant_here("rel.fast_retransmit", detail);
    } else if (loss == FrontLoss::Sacks) {
      trace_->instant_here("rel.fast_retransmit", detail + " cause=sack");
    } else {
      trace_->instant_here("rel.sack_retransmit", detail);
    }
  }
  if (fast) {
    if (topo::HealthMonitor* health = vc_.health()) {
      health->record_loss(self_, peer_, engine_->now());
    }
    on_congestion(/*timeout=*/false);
    front.retransmitted = true;
  } else {
    front.sack_rtx = true;
  }
  transmit(front);
}

void ReliableSender::drain_to(std::size_t target) {
  net::AckRegistry& acks = network_->acks();
  const std::uint64_t tag = conn_->tx_tag;
  const int rx_nic = conn_->peer_nic_index;
  for (;;) {
    const net::AckView view = acks.view(tag, rx_nic, epoch_);
    // Duplicate-cumulative-ack accounting (fast-retransmit trigger). The
    // board only counts a post as a duplicate when it re-acked the current
    // frontier without advancing it, so a late re-ack of an older seq (a
    // retransmit the receiver had already passed — common right after a
    // failover epoch bump) never inflates this counter.
    const std::uint64_t dup_delta =
        view.dup_posts >= seen_dup_posts_ ? view.dup_posts - seen_dup_posts_
                                          : 0;
    seen_dup_posts_ = view.dup_posts;
    if (view.has_cum) {
      if (have_cum_mark_ && view.cum_seq == cum_mark_) {
        dup_acks_ += static_cast<int>(dup_delta);
      } else {
        // Frontier moved. The board only counts dups that re-acked the
        // frontier current at consume time — i.e. this one — so the
        // delta is NOT discarded: a sender that spent the whole dup
        // burst blocked in a long pack still fast-retransmits instead
        // of stalling into a timeout.
        have_cum_mark_ = true;
        cum_mark_ = view.cum_seq;
        dup_acks_ = static_cast<int>(dup_delta);
      }
    }
    // Congestion marks from a backed-up gateway queue (adaptive mode).
    const std::uint64_t mark_delta =
        view.marks >= seen_marks_ ? view.marks - seen_marks_ : 0;
    seen_marks_ = view.marks;
    if (mark_delta > 0) {
      vc_.count_reliability(self_, &ReliabilityStats::congestion_marks,
                            "rel.congestion_marks", mark_delta);
      on_congestion(/*timeout=*/false);
    }
    // Admission rejects: the receiving gateway refused this epoch's
    // message outright. Abandon the epoch — the writer replays the whole
    // message on a fresh one after its backoff. Checked before any
    // retransmit work: pushing the window at a gateway that said no only
    // feeds its stale-paquet drain.
    const std::uint64_t reject_delta =
        view.rejects >= seen_rejects_ ? view.rejects - seen_rejects_ : 0;
    seen_rejects_ = view.rejects;
    if (reject_delta > 0) {
      vc_.count_reliability(self_, &ReliabilityStats::flow_rejects,
                            "rel.flow_rejects", reject_delta);
      throw FlowRejected{peer_};
    }
    // A cumulative ack past the recovery point ends the decrease episode.
    if (in_recovery_ && view.has_cum && view.cum_seq >= recover_seq_) {
      in_recovery_ = false;
    }
    // Selective acks exempt their paquets from the retransmit timer.
    for (const std::uint32_t sacked_seq : view.sacks) {
      for (InFlight& p : inflight_) {
        if (p.seq == sacked_seq && !p.sacked) {
          p.sacked = true;
          sample_ack(p);
        }
      }
    }
    // Pop the cumulatively acknowledged prefix.
    std::uint64_t acked = 0;
    while (!inflight_.empty() && view.has_cum &&
           inflight_.front().seq <= view.cum_seq) {
      InFlight& front = inflight_.front();
      if (!front.sacked) {
        sample_ack(front);
      }
      ++acked;
      inflight_.pop_front();
      on_ack_growth();
    }
    if (acked > 0) {
      vc_.count_reliability(self_, &ReliabilityStats::paquets_acked,
                            "rel.paquets_acked", acked);
    }
    if (inflight_.size() <= target) {
      return;
    }
    const sim::Time now = engine_->now();
    // Every loss trigger resends the window front through one path.
    sim::Time resend_at = sim::kForever;
    if (const FrontLoss loss = front_loss(now, resend_at);
        loss != FrontLoss::None) {
      resend_front(loss);
      continue;  // the pack advanced virtual time; re-read the board
    }
    // Expiry scan + next-wake computation. A single retransmit timer
    // guards the oldest unsacked paquet: its successors' acks can only
    // arrive after its own, so independent per-paquet deadlines would
    // cascade into spurious retransmits whenever the pipe's round trip
    // exceeds the current RTO (always true for a freshly opened deep
    // window, whose first deadlines predate any RTT sample). The timer
    // re-arms whenever the window advances past its paquet.
    sim::Time wake = std::min(view.next_visible, resend_at);
    bool transmitted = false;
    bool timer_armed = false;
    for (InFlight& p : inflight_) {
      if (p.sacked) {
        continue;
      }
      const sim::Time cover = ack_cover(p.seq);
      if (cover != sim::kForever) {
        // An ack covering this paquet is already on the wire: never time
        // it out, just wait out its visibility latency.
        if (cover > now) {
          wake = std::min(wake, cover);
        }
        continue;
      }
      if (timer_armed) {
        continue;  // waits behind the front's timer
      }
      timer_armed = true;
      if (!have_timer_ || timer_seq_ != p.seq) {
        have_timer_ = true;
        timer_seq_ = p.seq;
        p.deadline = now + p.rto;
      }
      if (p.deadline <= now && view.last_hold > p.deadline - p.rto) {
        // The receiver held the stream unread during this period (a
        // striped rail waiting for its rail 0): it is alive, and the
        // paquet waits to be read. Re-arm the timer without a resend, a
        // backoff or a charge to the retry budget, as TCP's persist timer
        // does.
        p.deadline = now + p.rto;
        wake = std::min(wake, p.deadline);
      } else if (p.deadline <= now) {
        expire(p);
        transmitted = true;
      } else {
        wake = std::min(wake, p.deadline);
      }
    }
    if (transmitted) {
      continue;
    }
    MAD_ASSERT(wake > now && wake != sim::kForever,
               "reliable window stalled with nothing to wait on");
    acks.wait_activity(tag, rx_nic, wake);
  }
}

// ----------------------------------------------------------------- receiver

ReliableReceiver::ReliableReceiver(VirtualChannel& vc, NodeRank self,
                                   Channel& in_channel, NodeRank peer,
                                   std::uint32_t epoch)
    : vc_(vc),
      self_(self),
      in_channel_(in_channel),
      peer_(peer),
      epoch_(epoch),
      self_nic_(in_channel.tm().nic().index()),
      charge_delivery_(in_channel.tm().model().rx_static() ||
                       in_channel.tm().model().hybrid()),
      node_label_("node=" + std::to_string(self)),
      window_(static_cast<std::size_t>(vc.options().reliable.window)) {}

ReliableReceiver::~ReliableReceiver() {
  util::BufferPool& pool = in_channel_.network().buffer_pool();
  for (auto& [seq, parked] : reorder_) {
    pool.give(std::move(parked.body));
  }
}

std::uint64_t ReliableReceiver::recv(MessageReader& in,
                                     std::uint32_t expected_seq,
                                     util::MutByteSpan payload_dst) {
  Verified paquet = receive(in, expected_seq, payload_dst);
  MAD_ASSERT(paquet.body.size() == payload_dst.size(),
             "reliable paquet payload of " +
                 std::to_string(paquet.body.size()) + " bytes, expected " +
                 std::to_string(payload_dst.size()));
  in_channel_.network().buffer_pool().give(std::move(paquet.body));
  return paquet.digest;
}

std::uint64_t ReliableReceiver::recv(MessageReader& in,
                                     std::uint32_t expected_seq,
                                     util::Bytes& body) {
  Verified paquet = receive(in, expected_seq, std::nullopt);
  body = std::move(paquet.body);
  return paquet.digest;
}

ReliableReceiver::Verified ReliableReceiver::receive(
    MessageReader& in, std::uint32_t expected_seq,
    std::optional<util::MutByteSpan> copy_to) {
  MAD_ASSERT(expected_seq == next_,
             "reliable GTM stream desync: caller expects seq " +
                 std::to_string(expected_seq) + ", receiver is at " +
                 std::to_string(next_));
  const Connection& conn = in_channel_.connection_to(peer_);
  net::Network& network = in_channel_.network();
  util::BufferPool& pool = network.buffer_pool();
  sim::Engine& engine = vc_.domain().engine();

  if (const auto it = reorder_.find(next_); it != reorder_.end()) {
    // Already received out of order: serve from the reorder buffer,
    // with the digest its verification computed. The copying form copies
    // it out; the adopting form takes the buffer as it is.
    Verified& parked = it->second;
    if (copy_to && !parked.body.empty()) {
      counted_copy(*copy_to, util::ByteSpan(parked.body));
    }
    Verified served = std::move(parked);
    reorder_.erase(it);
    ++next_;
    return served;
  }
  MAD_ASSERT(next_ == cum_next_, "reliable reorder buffer desync");

  for (;;) {
    util::Bytes arrived;
    // Poll in ack_timeout slices so a dead upstream peer is noticed: the
    // stream it was feeding will never complete, and the origin's replay
    // arrives on a fresh stream (StreamReader adoption).
    for (;;) {
      std::optional<util::Bytes> got = in.take_paquet_until(
          engine.now() + vc_.options().reliable.ack_timeout);
      if (got.has_value()) {
        arrived = std::move(*got);
        break;
      }
      if (vc_.is_dead(peer_) || vc_.node_crashed(peer_) ||
          vc_.node_crashed(self_)) {
        throw PeerDied{peer_};
      }
    }
    const std::size_t wire_size = arrived.size();
    // Verify the trailer. When its fields, as they arrived, name this
    // epoch's in-order paquet and the body fits `copy_to`, the
    // verification pass also writes the body there; every other paquet is
    // only digested. A corrupt one leaves junk in `copy_to`, which the
    // retransmission overwrites before this call returns.
    const util::ByteSpan wire(arrived);
    std::optional<GtmPaquetTrailer> verified = wire_trailer(wire);
    std::uint64_t digest = 0;
    if (verified) {
      const util::ByteSpan body = wire.first(wire_size - kGtmTrailerBytes);
      const bool in_place = copy_to && verified->epoch == epoch_ &&
                            verified->seq == cum_next_ &&
                            body.size() == copy_to->size();
      digest = in_place ? gtm_copy_digest(*copy_to, body) : gtm_digest(body);
      if (gtm_seal(digest, verified->seq, verified->epoch) !=
          verified->checksum) {
        verified.reset();
      }
    }
    // A paquet-0 retransmission re-sends the framing prologue in front of
    // itself (ReliableSender::set_framing); mid-stream those duplicates
    // surface here as trailer-less wire paquets of the framing sizes.
    if (!verified) {
      if (wire_size == sizeof(Preamble) || wire_size == sizeof(GtmMsgHeader) ||
          wire_size == sizeof(GtmStripeHeader)) {
        // Duplicated framing, already consumed: a header that fails as a
        // paquet is stale, not corrupt (a header cannot carry a trailer).
        vc_.count_reliability(self_, &ReliabilityStats::stale_drops,
                              "rel.stale_drops");
      } else {
        // Corrupt or mangled: drop silently; the sender's retransmit timer
        // covers it.
        vc_.count_reliability(self_, &ReliabilityStats::corrupt_drops,
                              "rel.corrupt_drops");
      }
      pool.give(std::move(arrived));
      continue;
    }
    const GtmPaquetTrailer trailer = *verified;
    const std::size_t body_size = wire_size - kGtmTrailerBytes;
    if (trailer.epoch != epoch_ || trailer.seq < cum_next_) {
      // Duplicate (or a late retransmit of a superseded stream): drop, but
      // re-acknowledge — the original ack may have been posted before the
      // sender timed out, or suppressed by a fault window. Within the
      // epoch the re-ack also doubles as a duplicate cumulative ack. A
      // *newer* epoch is different: this receiver is the stale one, and
      // acking data it did not deliver would silently lose it — drop only.
      vc_.count_reliability(self_, &ReliabilityStats::dup_drops,
                            "rel.dup_drops");
      if (trailer.epoch <= epoch_) {
        network.post_ack(conn.rx_tag, self_nic_, conn.peer_nic_index,
                         trailer.epoch, trailer.seq);
      }
      pool.give(std::move(arrived));
      continue;
    }
    if (reorder_.contains(trailer.seq)) {
      // Duplicate of a parked out-of-order paquet: re-issue its sack.
      vc_.count_reliability(self_, &ReliabilityStats::dup_drops,
                            "rel.dup_drops");
      network.post_sack(conn.rx_tag, self_nic_, conn.peer_nic_index, epoch_,
                        trailer.seq);
      if (cum_next_ > 0) {
        network.post_ack(conn.rx_tag, self_nic_, conn.peer_nic_index,
                         epoch_, cum_next_ - 1);
      }
      pool.give(std::move(arrived));
      continue;
    }
    // The network buffer itself is kept, trimmed to the body.
    arrived.resize(body_size);
    if (trailer.seq == cum_next_) {
      // In order: a copying receive's verification pass already wrote the
      // body, and is charged as the copy it made unless the NIC places
      // paquets in user memory itself. The adopting form keeps the buffer
      // and copies nothing. The lease gives the buffer back should the
      // charge unwind.
      util::BufferLease body(pool, std::move(arrived));
      if (copy_to && charge_delivery_ && body_size > 0) {
        count_copy(body_size);
      }
      ++cum_next_;
      ++next_;
      while (reorder_.contains(cum_next_)) {
        ++cum_next_;  // parked paquets extend the contiguous prefix
      }
      network.post_ack(conn.rx_tag, self_nic_, conn.peer_nic_index, epoch_,
                       cum_next_ - 1);
      return {body.release(), digest};
    }
    // Out of order: park it and tell the sender with a selective ack plus
    // a duplicate cumulative ack (the fast-retransmit signal).
    MAD_ASSERT(trailer.seq < cum_next_ + window_,
               "reliable GTM stream desync: got seq " +
                   std::to_string(trailer.seq) + " beyond the window at " +
                   std::to_string(cum_next_));
    reorder_.emplace(trailer.seq, Verified{std::move(arrived), digest});
    network.post_sack(conn.rx_tag, self_nic_, conn.peer_nic_index, epoch_,
                      trailer.seq);
    if (cum_next_ > 0) {
      network.post_ack(conn.rx_tag, self_nic_, conn.peer_nic_index, epoch_,
                       cum_next_ - 1);
    }
  }
}

void ReliableReceiver::post_congestion_mark() {
  const Connection& conn = in_channel_.connection_to(peer_);
  in_channel_.network().post_mark(conn.rx_tag, self_nic_,
                                  conn.peer_nic_index, epoch_);
  sim::MetricsRegistry& metrics = vc_.domain().fabric().metrics();
  if (metrics.enabled()) {
    metrics.counter("rel.marks_posted", node_label_).add();
  }
}

void ReliableReceiver::complete(std::uint32_t last_seq) {
  Connection& conn = in_channel_.connection_to(peer_);
  conn.rx_epoch_done = std::max(conn.rx_epoch_done, epoch_);
  vc_.queue_tail_acks(in_channel_, peer_, epoch_, last_seq);
}

// --------------------------------------------------------------- HopReader

HopReader::HopReader(VirtualChannel& vc, NodeRank self,
                     MessageReader& reader, Channel& channel,
                     const GtmMsgHeader& header)
    : reader_(reader), mtu_(vc.mtu()) {
  if ((header.flags & kGtmFlagReliable) != 0) {
    rel_ = std::make_unique<ReliableReceiver>(
        vc, self, channel, reader.source(), header.epoch);
  }
}

GtmBlockHeader HopReader::block_header() {
  if (!rel_) {
    return read_block_header(reader_);
  }
  GtmBlockHeader header{};
  rel_->recv(reader_, seq_++, util::object_bytes_mut(header));
  return header;
}

std::optional<std::uint64_t> HopReader::fragment(util::MutByteSpan dst) {
  if (rel_) {
    return rel_->recv(reader_, seq_++, dst);
  }
  reader_.unpack(dst, SendMode::Cheaper, RecvMode::Express);
  return std::nullopt;
}

std::uint64_t HopReader::fragment(util::Bytes& body) {
  MAD_ASSERT(rel_ != nullptr, "adopting a fragment of a plain stream");
  return rel_->recv(reader_, seq_++, body);
}

void HopReader::block(util::MutByteSpan dst, SendMode smode, RecvMode rmode) {
  const GtmBlockHeader header = block_header();
  MAD_ASSERT(header.end_of_message == 0,
             "unpack past the end of a forwarded message");
  MAD_ASSERT(header.size == dst.size(),
             "unpack size " + std::to_string(dst.size()) +
                 " does not match packed size " + std::to_string(header.size));
  MAD_ASSERT(decode_smode(header.smode) == smode &&
                 decode_rmode(header.rmode) == rmode,
             "unpack flags do not match the pack flags");
  fragments(dst);
}

void HopReader::fragments(util::MutByteSpan dst) {
  const std::uint64_t count = fragment_count(dst.size(), mtu_);
  for (std::uint64_t i = 0; i < count; ++i) {
    fragment(dst.subspan(i * mtu_, fragment_size(dst.size(), mtu_, i)));
  }
}

void HopReader::end() {
  MAD_ASSERT(block_header().end_of_message == 1,
             "end_unpacking before all blocks were consumed");
  finish();
}

void HopReader::finish() {
  if (rel_) {
    rel_->complete(seq_ - 1);
  }
}

}  // namespace mad::fwd
