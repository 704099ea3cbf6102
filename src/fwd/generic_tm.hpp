// Generic Transmission Module (paper §2.2.1, §2.3).
//
// Messages that travel through at least two networks cannot rely on the
// per-protocol BMM shapes: the gateway would have to ungroup and regroup
// buffers. The GTM fixes one discipline on both ends instead:
//
//   * one MTU for the whole route — the largest paquet every traversed
//     network can carry unfragmented (optionally capped by configuration);
//   * self-description — a message header (final destination, origin, MTU)
//     first, then for each user block a block header (size + the pack flag
//     pair), then the block payload cut into MTU-sized fragments, each
//     flushed as its own packet (RecvMode::Express forces per-fragment
//     flushing in every BMM shape, so the discipline holds on static and
//     dynamic protocols alike);
//   * an end-of-message marker — "the description of an empty message".
//
// This header defines the wire structs and the read/write helpers used by
// the virtual-channel writer/reader and by the gateway relay.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mad/message.hpp"
#include "mad/session.hpp"
#include "mad/types.hpp"
#include "util/bytes.hpp"

namespace mad::fwd {

/// First block of every message on a *regular* channel of a virtual
/// channel: tells the receiver who originated the message and whether the
/// body is GTM-formatted (it crossed a gateway) or native.
struct Preamble {
  std::uint32_t origin = 0;
  std::uint8_t forwarded = 0;
};

/// GtmMsgHeader.flags bit: the message body is carried in reliable-GTM
/// framing (every element after this header is a sequenced, checksummed,
/// acknowledged paquet — see fwd/reliable.hpp).
inline constexpr std::uint8_t kGtmFlagReliable = 1;

/// GtmMsgHeader.flags bit: this message is one *rail* of a striped
/// transfer (see fwd/stripe.hpp). A GtmStripeHeader follows the message
/// header; the body is an ordinary GTM paquet stream carrying this rail's
/// share of the original message, reassembled at the final receiver.
inline constexpr std::uint8_t kGtmFlagStriped = 2;

/// First GTM element: everything a gateway needs that the application
/// would normally provide (paper §2.2.1 — "self-describing messages are
/// mandatory"). `epoch` identifies one reliable stream on one hop; each
/// sender bumps it per message (and per failover reopen), so a receiver
/// can discard late retransmits of a superseded stream.
struct GtmMsgHeader {
  std::uint32_t final_dst = 0;
  std::uint32_t origin = 0;
  std::uint32_t mtu = 0;
  std::uint32_t epoch = 0;
  std::uint8_t flags = 0;
  /// fwd::TrafficClass of the message (control/latency/bulk), stamped by
  /// the originating writer and propagated hop to hop so every gateway
  /// arbitrates and admits with the same priority. Fits in the struct's
  /// existing padding — the wire element size is unchanged.
  std::uint8_t traffic_class = 0;
};

/// Per-block element: size and the pack flag pair ("the emission and
/// reception constraints"), or the end-of-message marker.
struct GtmBlockHeader {
  std::uint64_t size = 0;
  std::uint8_t smode = 0;
  std::uint8_t rmode = 0;
  std::uint8_t end_of_message = 0;
};

/// Second GTM element of a striped rail (directly after GtmMsgHeader, on
/// every hop): identifies which rail of which striped transfer this
/// stream carries. `stripe_id` is a per-origin transfer counter, so the
/// final receiver can match rails of the same message even when several
/// striped transfers from one origin are in flight. `share` is the rail's
/// weight — the number of consecutive paquets it takes per round-robin
/// round — which lets the receiver reconstruct the exact chunk schedule
/// without any out-of-band agreement.
struct GtmStripeHeader {
  std::uint32_t stripe_id = 0;
  std::uint16_t rail = 0;
  std::uint16_t rails = 0;
  std::uint32_t share = 0;
};

/// Reliable-mode paquet trailer, appended to every GTM element payload.
/// The checksum covers the payload bytes *and* (seq, epoch), so a flipped
/// trailer field is caught as corruption rather than misread as a
/// duplicate.
struct GtmPaquetTrailer {
  std::uint32_t seq = 0;
  std::uint32_t epoch = 0;
  std::uint64_t checksum = 0;
};

inline constexpr std::uint32_t kGtmTrailerBytes = sizeof(GtmPaquetTrailer);
static_assert(kGtmTrailerBytes == 16);

// Stale-paquet discrimination at message boundaries: every message on
// every channel starts with the preamble paquet, and the smallest
// reliable paquet (an empty payload plus its trailer) is strictly larger,
// so a receiver between messages can identify a late retransmit of the
// previous stream by wire size alone and drop it.
static_assert(sizeof(Preamble) < kGtmTrailerBytes,
              "the preamble must be smaller than any reliable paquet");

std::uint64_t gtm_paquet_checksum(util::ByteSpan payload, std::uint32_t seq,
                                  std::uint32_t epoch);
/// Copies `src` to `dst` (same size, not overlapping) and returns
/// gtm_paquet_checksum(src, seq, epoch), in one pass over the bytes.
std::uint64_t gtm_copy_checksum(util::MutByteSpan dst, util::ByteSpan src,
                                std::uint32_t seq, std::uint32_t epoch);
GtmPaquetTrailer make_paquet_trailer(util::ByteSpan payload, std::uint32_t seq,
                                     std::uint32_t epoch);
/// The trailer fields of a reliable paquet on the wire (payload then
/// trailer) as they arrived, unverified; nullopt when `wire` is shorter
/// than a trailer.
std::optional<GtmPaquetTrailer> wire_trailer(util::ByteSpan wire);
/// The trailer of a reliable paquet on the wire, or nullopt when `wire` is
/// shorter than a trailer or its checksum fails.
std::optional<GtmPaquetTrailer> verified_trailer(util::ByteSpan wire);

std::uint8_t encode(SendMode mode);
std::uint8_t encode(RecvMode mode);
SendMode decode_smode(std::uint8_t value);
RecvMode decode_rmode(std::uint8_t value);

GtmBlockHeader block_header_for(std::uint64_t size, SendMode smode,
                                RecvMode rmode);
GtmBlockHeader end_marker();

void write_preamble(MessageWriter& writer, const Preamble& preamble);
Preamble read_preamble(MessageReader& reader);

void write_msg_header(MessageWriter& writer, const GtmMsgHeader& header);
GtmMsgHeader read_msg_header(MessageReader& reader);

void write_block_header(MessageWriter& writer, const GtmBlockHeader& header);
GtmBlockHeader read_block_header(MessageReader& reader);

void write_stripe_header(MessageWriter& writer, const GtmStripeHeader& header);
GtmStripeHeader read_stripe_header(MessageReader& reader);

/// Number of MTU-sized fragments of a block.
std::uint64_t fragment_count(std::uint64_t size, std::uint32_t mtu);
/// Size of fragment `index` (the last one may be partial).
std::uint32_t fragment_size(std::uint64_t size, std::uint32_t mtu,
                            std::uint64_t index);

/// The route-wide MTU: the minimum effective TM MTU over `networks`,
/// optionally capped by `requested` (0 = no cap). This is the paper's
/// "optimal packet size for every network the message goes through".
std::uint32_t compute_route_mtu(const Domain& domain,
                                const std::vector<net::Network*>& networks,
                                std::uint32_t requested);

}  // namespace mad::fwd
