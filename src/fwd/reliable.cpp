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
#include "util/panic.hpp"

namespace mad::fwd {

void ReliableOptions::validate() const {
  MAD_ASSERT(ack_timeout > 0, "reliable mode needs a positive ack timeout");
  MAD_ASSERT(timeout_backoff >= 1.0,
             "reliable timeout_backoff must be >= 1 (a shrinking retransmit "
             "deadline never converges)");
  MAD_ASSERT(max_attempts >= 1, "reliable mode needs at least one attempt");
  MAD_ASSERT(window >= 1, "reliable window must hold at least one paquet");
  MAD_ASSERT(max_ack_timeout >= ack_timeout,
             "reliable max_ack_timeout must be >= ack_timeout");
  MAD_ASSERT(retransmit_jitter >= 0.0 && retransmit_jitter <= 1.0,
             "reliable retransmit_jitter must be within [0, 1]");
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

ReliableSender::~ReliableSender() {
  for (InFlight& p : inflight_) {
    pool_return(std::move(p.wire));
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
  ReliabilityStats& stats = vc_.mutable_gateway_stats(self_).reliability;
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
  ++stats.window_decreases;
  metrics_->add("rel.window_decreases", node_label_);
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
  if (window_ <= 1) {
    // Stop-and-wait keeps the PR-1 fixed first-attempt deadline exactly.
    return opts.ack_timeout;
  }
  const auto rto = have_rtt_ ? static_cast<sim::Time>(
                                   (srtt_us_ + 4.0 * rttvar_us_) * 1000.0)
                             : opts.ack_timeout;
  // A pending backoff (timer fired, no valid sample since) floors the
  // fresh-paquet deadline too, not just the retransmitted paquet's.
  return std::clamp(std::max(rto, backed_off_rto_), opts.ack_timeout,
                    opts.max_ack_timeout);
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
  if (p.one_sided && rdma_ != nullptr) {
    // One-sided with completion: the receiver is notified of (and acks)
    // every paquet, but the payload crosses both host buses as DMA from
    // the registered wire buffer. Retransmits reuse the same buffer, so
    // the pin-down cache hit is guaranteed.
    rdma_->write(conn_->peer_nic_index, conn_->tx_tag,
                 util::ByteSpan(p.wire), /*completion=*/true);
  } else {
    out_.pack(util::ByteSpan(p.wire), SendMode::Cheaper, RecvMode::Express);
  }
  p.sent_at = engine_->now();
  p.deadline = p.sent_at + p.rto;
}

util::Bytes ReliableSender::pool_take(std::size_t size) {
  return rdma_ != nullptr ? wire_arena_.take(size)
                          : vc_.buffer_pool().take(size);
}

void ReliableSender::pool_return(util::Bytes wire) {
  if (rdma_ != nullptr) {
    wire_arena_.give(std::move(wire));
  } else {
    vc_.buffer_pool().give(std::move(wire));
  }
}

void ReliableSender::sample_ack(InFlight& p) {
  const sim::Time now = engine_->now();
  metrics_->observe_us("rel.ack_us", node_label_,
                       sim::to_microseconds(now - p.tx_begin));
  // Karn's rule: a retransmitted paquet's ack is ambiguous, no RTT sample.
  const double rtt_us =
      p.retransmitted ? -1.0 : sim::to_microseconds(now - p.sent_at);
  if (window_ > 1 && rtt_us > 0.0) {
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
  // Every completed round trip is a loss-free health sample for the hop;
  // stop-and-wait feeds no adaptive RTO but its RTTs are just as valid.
  if (topo::HealthMonitor* health = vc_.health()) {
    health->record_ack(self_, peer_, now, rtt_us);
  }
}

void ReliableSender::expire(InFlight& p) {
  const ReliableOptions& opts = vc_.options().reliable;
  ReliabilityStats& stats = vc_.mutable_gateway_stats(self_).reliability;
  ++stats.timeouts;
  metrics_->add("rel.timeouts", node_label_);
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
  bool others_sacked = true;
  for (const InFlight& q : inflight_) {
    if (q.seq != p.seq && !q.sacked) {
      others_sacked = false;
      break;
    }
  }
  on_congestion(/*timeout=*/!others_sacked);
  ++stats.retransmits;
  metrics_->add("rel.retransmits", node_label_);
  if (trace_ != nullptr) {
    trace_->instant_here("rel.retransmit",
                         "peer=" + std::to_string(peer_) + " seq=" +
                             std::to_string(p.seq) + " attempt=" +
                             std::to_string(p.attempts + 1));
  }
  p.rto = backed_off_timeout(p.rto, opts.timeout_backoff,
                             opts.max_ack_timeout);
  if (window_ > 1) {
    backed_off_rto_ = std::max(backed_off_rto_, p.rto);
  }
  if (opts.retransmit_jitter > 0.0) {
    // Desynchronize from periodic faults: a pure doubling chain repeats the
    // same phase against any fault period that divides its steps, so a
    // retransmit that once landed in a flap's down-window would land in
    // every later one too. Jitter stays under the max_ack_timeout ceiling.
    const auto extra = static_cast<sim::Time>(
        static_cast<double>(p.rto) * opts.retransmit_jitter *
        jitter_rng_.next_double());
    p.rto = std::min(p.rto + extra, opts.max_ack_timeout);
  }
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

void ReliableSender::send(std::uint32_t seq, util::ByteSpan payload,
                          bool one_sided) {
  MAD_ASSERT(inflight_.empty() || seq == inflight_.back().seq + 1,
             "reliable window fed out of sequence");
  make_room();
  InFlight p;
  p.seq = seq;
  p.one_sided = one_sided && rdma_ != nullptr;
  p.wire = pool_take(payload.size() + kGtmTrailerBytes);
  const util::MutByteSpan wire(p.wire);
  const GtmPaquetTrailer trailer{
      seq, epoch_,
      gtm_copy_checksum(wire.first(payload.size()), payload, seq, epoch_)};
  std::memcpy(wire.data() + payload.size(), &trailer, kGtmTrailerBytes);
  p.rto = initial_rto();
  inflight_.push_back(std::move(p));
  transmit(inflight_.back());
  if (metrics_->enabled()) {
    metrics_->histogram("rel.window_occupancy", node_label_)
        .record(static_cast<double>(inflight_.size()));
  }
}

void ReliableSender::flush() { drain_to(0); }

void ReliableSender::drain_to(std::size_t target) {
  ReliabilityStats& stats = vc_.mutable_gateway_stats(self_).reliability;
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
      stats.congestion_marks += mark_delta;
      metrics_->add("rel.congestion_marks", node_label_, mark_delta);
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
      stats.flow_rejects += reject_delta;
      metrics_->add("rel.flow_rejects", node_label_, reject_delta);
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
    while (!inflight_.empty() && view.has_cum &&
           inflight_.front().seq <= view.cum_seq) {
      InFlight& front = inflight_.front();
      if (!front.sacked) {
        sample_ack(front);
      }
      ++stats.paquets_acked;
      metrics_->add("rel.paquets_acked", node_label_);
      pool_return(std::move(front.wire));
      inflight_.pop_front();
      on_ack_growth();
    }
    if (inflight_.size() <= target) {
      return;
    }
    const sim::Time now = engine_->now();
    // Fast retransmit: three duplicate cumulative acks mean the receiver
    // keeps re-acking the same prefix — the window front is lost.
    if (window_ > 1 && dup_acks_ >= 3) {
      dup_acks_ = 0;
      InFlight& front = inflight_.front();
      // NewReno-style: one fast retransmit per window front. Dup acks
      // that keep arriving after the front was already retransmitted are
      // echoes of the same loss, not a new one.
      if (!front.retransmitted && !front.sacked &&
          acks.posted_cover_time(tag, rx_nic, epoch_, front.seq) ==
              sim::kForever) {
        ++stats.retransmits;
        ++stats.fast_retransmits;
        metrics_->add("rel.retransmits", node_label_);
        metrics_->add("rel.fast_retransmits", node_label_);
        if (trace_ != nullptr) {
          trace_->instant_here("rel.fast_retransmit",
                               "peer=" + std::to_string(peer_) + " seq=" +
                                   std::to_string(front.seq));
        }
        if (topo::HealthMonitor* health = vc_.health()) {
          health->record_loss(self_, peer_, now);
        }
        on_congestion(/*timeout=*/false);
        front.retransmitted = true;
        transmit(front);
        continue;  // the pack advanced virtual time; re-read the board
      }
    }
    // SACK-based loss detection (RFC 6675's IsLost, one paquet deep): the
    // wire is FIFO, so a selective ack for any paquet sent after the
    // front proves the front's own arrival slot has passed — if three or
    // more later paquets are sacked and the front is still uncovered, it
    // is lost. Unlike the duplicate-ack counter this needs no NEW posts:
    // after a partial recovery (two holes in one window) the receiver has
    // everything parked and posts nothing more, so the second hole would
    // otherwise sit out a full RTO that dup acks can never cut short.
    if (window_ > 1 && inflight_.size() >= 2) {
      InFlight& front = inflight_.front();
      if (!front.retransmitted && !front.sacked) {
        std::size_t sacked_later = 0;
        for (std::size_t i = 1; i < inflight_.size(); ++i) {
          if (inflight_[i].sacked) {
            ++sacked_later;
          }
        }
        // Early-retransmit relaxation (RFC 5827): a flight too small to
        // ever produce three later sacks lowers the bar to flight - 1,
        // so a loss at the tail of a window (or during slow start) does
        // not have to wait for the retransmit timer.
        const std::size_t needed =
            std::min<std::size_t>(3, inflight_.size() - 1);
        if (sacked_later >= needed &&
            acks.posted_cover_time(tag, rx_nic, epoch_, front.seq) ==
                sim::kForever) {
          ++stats.retransmits;
          ++stats.fast_retransmits;
          metrics_->add("rel.retransmits", node_label_);
          metrics_->add("rel.fast_retransmits", node_label_);
          if (trace_ != nullptr) {
            trace_->instant_here("rel.fast_retransmit",
                                 "peer=" + std::to_string(peer_) + " seq=" +
                                     std::to_string(front.seq) +
                                     " cause=sack");
          }
          if (topo::HealthMonitor* health = vc_.health()) {
            health->record_loss(self_, peer_, engine_->now());
          }
          on_congestion(/*timeout=*/false);
          front.retransmitted = true;
          transmit(front);
          continue;  // the pack advanced virtual time; re-read the board
        }
      }
    }
    // SACK-based lost-retransmit detection. Once the front has been fast
    // retransmitted, every later in-flight paquet getting selectively
    // acked while the cumulative frontier still sits below the front
    // means the receiver has consumed everything behind the front and is
    // waiting on that one paquet. If half an RTO then passes without the
    // retransmit's ack, the retransmit itself was almost certainly
    // dropped: waiting out the full (backed-off, queue-inflated) RTO
    // would idle the pipe for tens of milliseconds and collapse the
    // adaptive window. Resend once at the half-RTO mark instead, and let
    // a second loss fall back to the timer. The half-RTO guard keeps a
    // merely in-flight (not lost) retransmit from triggering a wasteful
    // duplicate: its ack arrives around one RTT, well under RTO/2.
    sim::Time sack_rtx_at = sim::kForever;
    if (window_ > 1 && inflight_.size() >= 2) {
      InFlight& front = inflight_.front();
      if (front.retransmitted && !front.sack_rtx && !front.sacked &&
          acks.posted_cover_time(tag, rx_nic, epoch_, front.seq) ==
              sim::kForever) {
        bool others_sacked = true;
        for (std::size_t i = 1; i < inflight_.size(); ++i) {
          if (!inflight_[i].sacked) {
            others_sacked = false;
            break;
          }
        }
        if (others_sacked) {
          sack_rtx_at = front.sent_at + initial_rto() / 2;
          if (sack_rtx_at <= now) {
            front.sack_rtx = true;
            ++stats.retransmits;
            metrics_->add("rel.retransmits", node_label_);
            if (trace_ != nullptr) {
              trace_->instant_here("rel.sack_retransmit",
                                   "peer=" + std::to_string(peer_) + " seq=" +
                                       std::to_string(front.seq));
            }
            transmit(front);
            continue;  // the pack advanced virtual time; re-read the board
          }
        }
      }
    }
    // Expiry scan + next-wake computation. A single retransmit timer
    // guards the oldest unsacked paquet: its successors' acks can only
    // arrive after its own, so independent per-paquet deadlines would
    // cascade into spurious retransmits whenever the pipe's round trip
    // exceeds the current RTO (always true for a freshly opened deep
    // window, whose first deadlines predate any RTT sample). The timer
    // re-arms whenever the window advances past its paquet.
    sim::Time wake = std::min(view.next_visible, sack_rtx_at);
    bool transmitted = false;
    bool timer_armed = false;
    for (InFlight& p : inflight_) {
      if (p.sacked) {
        continue;
      }
      const sim::Time cover =
          acks.posted_cover_time(tag, rx_nic, epoch_, p.seq);
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
      if (p.deadline <= now) {
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
                                   std::uint32_t epoch, bool detect_dead)
    : vc_(vc),
      self_(self),
      in_channel_(in_channel),
      peer_(peer),
      epoch_(epoch),
      detect_dead_(detect_dead),
      self_nic_(in_channel.tm().nic().index()),
      node_label_("node=" + std::to_string(self)),
      window_(static_cast<std::size_t>(vc.options().reliable.window)),
      scratch_(vc.buffer_pool().take(vc.buffer_pool().capacity())) {}

ReliableReceiver::~ReliableReceiver() {
  util::BufferPool& pool = vc_.buffer_pool();
  pool.give(std::move(scratch_));
  for (auto& [seq, parked] : reorder_) {
    pool.give(std::move(parked));
  }
}

void ReliableReceiver::recv(MessageReader& in, std::uint32_t expected_seq,
                            util::MutByteSpan payload_dst) {
  MAD_ASSERT(expected_seq == next_,
             "reliable GTM stream desync: caller expects seq " +
                 std::to_string(expected_seq) + ", receiver is at " +
                 std::to_string(next_));
  ReliabilityStats& stats = vc_.mutable_gateway_stats(self_).reliability;
  sim::MetricsRegistry& metrics = vc_.domain().fabric().metrics();
  const Connection& conn = in_channel_.connection_to(peer_);
  net::Network& network = in_channel_.network();
  sim::Engine& engine = vc_.domain().engine();

  if (const auto it = reorder_.find(next_); it != reorder_.end()) {
    // Already received out of order: serve from the reorder buffer.
    MAD_ASSERT(it->second.size() == payload_dst.size(),
               "reliable paquet payload of " +
                   std::to_string(it->second.size()) + " bytes, expected " +
                   std::to_string(payload_dst.size()));
    if (!payload_dst.empty()) {
      counted_copy(payload_dst, util::ByteSpan(it->second));
    }
    vc_.buffer_pool().give(std::move(it->second));
    reorder_.erase(it);
    ++next_;
    return;
  }
  MAD_ASSERT(next_ == cum_next_, "reliable reorder buffer desync");

  for (;;) {
    std::uint32_t wire_size = 0;
    if (detect_dead_) {
      // Poll in ack_timeout slices so a dead upstream peer is noticed:
      // the stream it was feeding will never complete, and the origin's
      // replay arrives on a fresh stream (reader adoption).
      for (;;) {
        const auto got = in.unpack_paquet_until(
            util::MutByteSpan(scratch_),
            engine.now() + vc_.options().reliable.ack_timeout);
        if (got.has_value()) {
          wire_size = *got;
          break;
        }
        if (vc_.is_dead(peer_) || vc_.node_crashed(peer_) ||
            vc_.node_crashed(self_)) {
          throw PeerDied{peer_};
        }
      }
    } else {
      wire_size = in.unpack_paquet(util::MutByteSpan(scratch_));
    }
    // Verify the trailer. When its fields, as they arrived, name this
    // epoch's in-order paquet and the body fits the caller's buffer, the
    // verification pass also writes the body there (the only place a
    // verified in-order body goes); every other paquet is only
    // checksummed. A corrupt one leaves junk in `payload_dst`, which the
    // retransmission overwrites before this call returns.
    const util::ByteSpan wire(scratch_.data(), wire_size);
    std::optional<GtmPaquetTrailer> verified = wire_trailer(wire);
    if (verified) {
      const util::ByteSpan body = wire.first(wire_size - kGtmTrailerBytes);
      const bool in_place = verified->epoch == epoch_ &&
                            verified->seq == cum_next_ &&
                            body.size() == payload_dst.size();
      const std::uint64_t checksum =
          in_place ? gtm_copy_checksum(payload_dst, body, verified->seq,
                                       verified->epoch)
                   : gtm_paquet_checksum(body, verified->seq,
                                         verified->epoch);
      if (checksum != verified->checksum) {
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
        ++stats.stale_drops;
        metrics.add("rel.stale_drops", node_label_);
      } else {
        // Corrupt or mangled: drop silently; the sender's retransmit timer
        // covers it.
        ++stats.corrupt_drops;
        metrics.add("rel.corrupt_drops", node_label_);
      }
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
      ++stats.dup_drops;
      metrics.add("rel.dup_drops", node_label_);
      if (trailer.epoch <= epoch_) {
        network.post_ack(conn.rx_tag, self_nic_, conn.peer_nic_index,
                         trailer.epoch, trailer.seq);
      }
      continue;
    }
    if (reorder_.contains(trailer.seq)) {
      // Duplicate of a parked out-of-order paquet: re-issue its sack.
      ++stats.dup_drops;
      metrics.add("rel.dup_drops", node_label_);
      network.post_sack(conn.rx_tag, self_nic_, conn.peer_nic_index, epoch_,
                        trailer.seq);
      if (cum_next_ > 0) {
        network.post_ack(conn.rx_tag, self_nic_, conn.peer_nic_index,
                         epoch_, cum_next_ - 1);
      }
      continue;
    }
    if (trailer.seq == cum_next_) {
      // In order: the verification pass already wrote the body to the
      // caller's buffer. It is charged as the staged copy it models.
      MAD_ASSERT(body_size == payload_dst.size(),
                 "reliable paquet payload of " + std::to_string(body_size) +
                     " bytes, expected " +
                     std::to_string(payload_dst.size()));
      if (!payload_dst.empty()) {
        count_copy(payload_dst.size());
      }
      ++cum_next_;
      ++next_;
      while (reorder_.contains(cum_next_)) {
        ++cum_next_;  // parked paquets extend the contiguous prefix
      }
      network.post_ack(conn.rx_tag, self_nic_, conn.peer_nic_index, epoch_,
                       cum_next_ - 1);
      return;
    }
    // Out of order: park it and tell the sender with a selective ack plus
    // a duplicate cumulative ack (the fast-retransmit signal).
    MAD_ASSERT(trailer.seq < cum_next_ + window_,
               "reliable GTM stream desync: got seq " +
                   std::to_string(trailer.seq) + " beyond the window at " +
                   std::to_string(cum_next_));
    // The staging buffer itself is parked, trimmed to the body; a fresh one
    // takes its place.
    util::Bytes parked = std::exchange(
        scratch_, vc_.buffer_pool().take(vc_.buffer_pool().capacity()));
    parked.resize(body_size);
    reorder_.emplace(trailer.seq, std::move(parked));
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
  vc_.domain().fabric().metrics().add("rel.marks_posted", node_label_);
}

void ReliableReceiver::complete(std::uint32_t last_seq) {
  Connection& conn = in_channel_.connection_to(peer_);
  conn.rx_epoch_done = std::max(conn.rx_epoch_done, epoch_);
  vc_.spawn_tail_acker(in_channel_, peer_, epoch_, last_seq);
}

// --------------------------------------------------------------- HopReader

HopReader::HopReader(VirtualChannel& vc, NodeRank self,
                     MessageReader& reader, Channel& channel,
                     const GtmMsgHeader& header, bool detect_dead)
    : reader_(reader), mtu_(vc.mtu()) {
  if ((header.flags & kGtmFlagReliable) != 0) {
    rel_ = std::make_unique<ReliableReceiver>(
        vc, self, channel, reader.source(), header.epoch, detect_dead);
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

void HopReader::fragment(util::MutByteSpan dst) {
  if (rel_) {
    rel_->recv(reader_, seq_++, dst);
  } else {
    reader_.unpack(dst, SendMode::Cheaper, RecvMode::Express);
  }
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
