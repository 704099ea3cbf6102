#include "fwd/generic_tm.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "util/panic.hpp"

namespace mad::fwd {

namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::size_t kLanes = 4;
constexpr std::size_t kStripe = kLanes * sizeof(std::uint64_t);

std::uint64_t load_word(const std::byte* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);  // wire slices carry no alignment
  return w;
}

void store_word(std::byte* p, std::uint64_t w) {
  std::memcpy(p, &w, sizeof w);
}

// One lane step: a bijection of `h` for a fixed word, and injective in `w`
// for a fixed `h` (odd multipliers, add and rotate are all invertible mod
// 2^64). The word is multiplied before it meets the state: in the
// `(h ^ w) * odd` order a flip of the product's top bit survives the
// multiply unchanged, so a second flip in the lane's next word cancels it.
std::uint64_t mix(std::uint64_t h, std::uint64_t w) {
  return std::rotl(h + w * kPrime2, 31) * kPrime1;
}

// Avalanche: xor-shifts and odd multiplies, so a bijection of 64 bits.
std::uint64_t finalize(std::uint64_t h) {
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime1;
  h ^= h >> 32;
  return h;
}

// Four independent lanes take one 8-byte word each per 32-byte stripe, so
// their multiply chains overlap. The leftover words, the zero-padded byte
// tail, the length and (seq, epoch) are then folded into the combined
// state one `mix` each. Every step from a payload byte to the result is
// injective in that byte with everything else fixed, so any change
// confined to one byte of the payload, or to seq or epoch, changes the
// checksum — the fault injector's corruption model (one byte XOR 1..255).
//
// This is the one checksum loop. With `kCopy` it also stores every word it
// loads to `dst`, so a copy and its checksum are one pass over the bytes
// (the integrated copy-and-checksum of classic TCP stacks).
template <bool kCopy>
std::uint64_t checksum_pass(std::byte* dst, const std::byte* p,
                            std::size_t size, std::uint32_t seq,
                            std::uint32_t epoch) {
  std::array<std::uint64_t, kLanes> lane = {kPrime1 + kPrime2, kPrime2, 0,
                                            0 - kPrime1};
  std::size_t at = 0;
  for (; at + kStripe <= size; at += kStripe) {
    for (std::size_t i = 0; i < kLanes; ++i) {
      const std::size_t word = at + i * sizeof(std::uint64_t);
      const std::uint64_t w = load_word(p + word);
      if constexpr (kCopy) {
        store_word(dst + word, w);
      }
      lane[i] = mix(lane[i], w);
    }
  }
  std::uint64_t h = lane[0];
  for (std::size_t i = 1; i < kLanes; ++i) {
    h = mix(h, lane[i]);
  }
  for (; at + sizeof(std::uint64_t) <= size; at += sizeof(std::uint64_t)) {
    const std::uint64_t w = load_word(p + at);
    if constexpr (kCopy) {
      store_word(dst + at, w);
    }
    h = mix(h, w);
  }
  if (at < size) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p + at, size - at);
    if constexpr (kCopy) {
      std::memcpy(dst + at, p + at, size - at);
    }
    h = mix(h, tail);
  }
  h = mix(h, size);
  h = mix(h, (static_cast<std::uint64_t>(epoch) << 32) | seq);
  return finalize(h);
}

}  // namespace

std::uint64_t gtm_paquet_checksum(util::ByteSpan payload, std::uint32_t seq,
                                  std::uint32_t epoch) {
  return checksum_pass<false>(nullptr, payload.data(), payload.size(), seq,
                              epoch);
}

std::uint64_t gtm_copy_checksum(util::MutByteSpan dst, util::ByteSpan src,
                                std::uint32_t seq, std::uint32_t epoch) {
  MAD_ASSERT(dst.size() == src.size(), "gtm_copy_checksum: size mismatch");
  return checksum_pass<true>(dst.data(), src.data(), src.size(), seq, epoch);
}

GtmPaquetTrailer make_paquet_trailer(util::ByteSpan payload, std::uint32_t seq,
                                     std::uint32_t epoch) {
  return {seq, epoch, gtm_paquet_checksum(payload, seq, epoch)};
}

std::optional<GtmPaquetTrailer> wire_trailer(util::ByteSpan wire) {
  if (wire.size() < kGtmTrailerBytes) {
    return std::nullopt;
  }
  GtmPaquetTrailer trailer;
  std::memcpy(&trailer, wire.data() + wire.size() - kGtmTrailerBytes,
              kGtmTrailerBytes);
  return trailer;
}

std::optional<GtmPaquetTrailer> verified_trailer(util::ByteSpan wire) {
  const auto trailer = wire_trailer(wire);
  if (!trailer ||
      trailer->checksum !=
          gtm_paquet_checksum(wire.first(wire.size() - kGtmTrailerBytes),
                              trailer->seq, trailer->epoch)) {
    return std::nullopt;
  }
  return trailer;
}

std::uint8_t encode(SendMode mode) {
  return static_cast<std::uint8_t>(mode);
}

std::uint8_t encode(RecvMode mode) {
  return static_cast<std::uint8_t>(mode);
}

SendMode decode_smode(std::uint8_t value) {
  MAD_ASSERT(value <= static_cast<std::uint8_t>(SendMode::Cheaper),
             "bad SendMode on the wire");
  return static_cast<SendMode>(value);
}

RecvMode decode_rmode(std::uint8_t value) {
  MAD_ASSERT(value <= static_cast<std::uint8_t>(RecvMode::Cheaper),
             "bad RecvMode on the wire");
  return static_cast<RecvMode>(value);
}

GtmBlockHeader block_header_for(std::uint64_t size, SendMode smode,
                                RecvMode rmode) {
  return {size, encode(smode), encode(rmode), 0};
}

GtmBlockHeader end_marker() { return {0, 0, 0, 1}; }

void write_preamble(MessageWriter& writer, const Preamble& preamble) {
  writer.pack_value(preamble);
}

Preamble read_preamble(MessageReader& reader) {
  return reader.unpack_value<Preamble>();
}

void write_msg_header(MessageWriter& writer, const GtmMsgHeader& header) {
  writer.pack_value(header);
}

GtmMsgHeader read_msg_header(MessageReader& reader) {
  return reader.unpack_value<GtmMsgHeader>();
}

void write_block_header(MessageWriter& writer, const GtmBlockHeader& header) {
  writer.pack_value(header);
}

GtmBlockHeader read_block_header(MessageReader& reader) {
  return reader.unpack_value<GtmBlockHeader>();
}

void write_stripe_header(MessageWriter& writer, const GtmStripeHeader& header) {
  writer.pack_value(header);
}

GtmStripeHeader read_stripe_header(MessageReader& reader) {
  GtmStripeHeader header = reader.unpack_value<GtmStripeHeader>();
  MAD_ASSERT(header.rails > 0 && header.rail < header.rails,
             "bad rail index on the wire");
  MAD_ASSERT(header.share > 0, "zero stripe share on the wire");
  return header;
}

std::uint64_t fragment_count(std::uint64_t size, std::uint32_t mtu) {
  MAD_ASSERT(mtu > 0, "zero MTU");
  return (size + mtu - 1) / mtu;
}

std::uint32_t fragment_size(std::uint64_t size, std::uint32_t mtu,
                            std::uint64_t index) {
  const std::uint64_t offset = index * static_cast<std::uint64_t>(mtu);
  MAD_ASSERT(offset < size, "fragment index out of range");
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(mtu, size - offset));
}

std::uint32_t compute_route_mtu(const Domain& domain,
                                const std::vector<net::Network*>& networks,
                                std::uint32_t requested) {
  MAD_ASSERT(!networks.empty(), "virtual channel without networks");
  std::uint32_t mtu = requested == 0 ? UINT32_MAX : requested;
  for (const net::Network* network : networks) {
    const net::NicModelParams& model = network->model();
    std::uint32_t effective = model.max_packet;
    if (model.tx_static() || model.rx_static()) {
      effective = std::min(effective, model.static_buffer_size);
    }
    mtu = std::min(mtu, effective);
  }
  (void)domain;
  MAD_ASSERT(mtu > 0 && mtu != UINT32_MAX, "could not derive a route MTU");
  return mtu;
}

}  // namespace mad::fwd
