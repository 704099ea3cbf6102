#include "fwd/generic_tm.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "util/panic.hpp"

namespace mad::fwd {

namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kLaneMul = 0x9E3779B1u;  // odd, below 2^32
constexpr std::size_t kLanes = 32;
constexpr std::size_t kStripe = kLanes * sizeof(std::uint64_t);
using Lanes = std::array<std::uint64_t, kLanes>;

std::uint64_t load_word(const std::byte* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);  // wire slices carry no alignment
  return w;
}

void store_word(std::byte* p, std::uint64_t w) {
  std::memcpy(p, &w, sizeof w);
}

// One step of the combined state: a bijection of `h` for a fixed word, and
// injective in `w` for a fixed `h` (odd multipliers, add and rotate are all
// invertible mod 2^64). The word is multiplied before it meets the state:
// in the `(h ^ w) * odd` order a flip of the product's top bit survives the
// multiply unchanged, so a second flip in the next word cancels it.
constexpr std::uint64_t mix(std::uint64_t h, std::uint64_t w) {
  return std::rotl(h + w * kPrime2, 31) * kPrime1;
}

// One lane step, two 32x32->64 multiplies (`pmuludq`). Adding `w` and the
// xor-shift are bijections of the sum; the low half's product fixes the
// low 32 bits (odd `kLaneMul`), so the low half and then the high half
// can be recovered: a bijection of `h`, injective in `w`. The xor-shift
// folds the sum's top bit into the low half's multiply, so a top-bit flip
// in one word cannot cancel against one in the lane's next word.
constexpr std::uint64_t lane_step(std::uint64_t h, std::uint64_t w) {
  std::uint64_t x = h + w;
  x ^= x >> 32;
  return (x & 0xFFFF'FFFFu) * kLaneMul + ((x >> 32) * kLaneMul << 32);
}

constexpr Lanes kLaneSeeds = [] {
  Lanes seeds{};
  for (std::size_t i = 0; i < kLanes; ++i) {
    seeds[i] = kPrime2 * (i + 1);
  }
  return seeds;
}();

// Pairwise `mix` of the lanes down to one state, so the fold's multiply
// chains overlap too; each `mix` is injective in either input.
constexpr std::uint64_t fold(Lanes lane) {
  for (std::size_t n = kLanes; n > 1; n /= 2) {
    for (std::size_t i = 0; i < n / 2; ++i) {
      lane[i] = mix(lane[2 * i], lane[2 * i + 1]);
    }
  }
  return lane[0];
}

// The state of a payload shorter than one stripe.
constexpr std::uint64_t kSeedFold = fold(kLaneSeeds);

// Avalanche: xor-shifts and odd multiplies, so a bijection of 64 bits.
std::uint64_t finalize(std::uint64_t h) {
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime1;
  h ^= h >> 32;
  return h;
}

std::uint64_t g_checksum_bytes = 0;
std::uint64_t g_copy_bytes = 0;

// A lane kernel runs `lane_step` over `stripes` whole stripes from `p`,
// lane i taking word i of each stripe, and with `kCopy` stores every word
// it loads to `dst`.
using LaneKernel = Lanes (*)(Lanes lane, std::byte* dst, const std::byte* p,
                             std::size_t stripes);

// The portable kernel, the reference for the vector one.
template <bool kCopy>
Lanes portable_lanes(Lanes lane, std::byte* dst, const std::byte* p,
                     std::size_t stripes) {
  for (std::size_t at = 0; at < stripes * kStripe; at += kStripe) {
    for (std::size_t i = 0; i < kLanes; ++i) {
      const std::size_t word = at + i * sizeof(std::uint64_t);
      const std::uint64_t w = load_word(p + word);
      if constexpr (kCopy) {
        store_word(dst + word, w);
      }
      lane[i] = lane_step(lane[i], w);
    }
  }
  return lane;
}

#if defined(__x86_64__)
// The same lanes, four to a register.
template <bool kCopy>
__attribute__((target("avx2"))) Lanes avx2_lanes(Lanes lane, std::byte* dst,
                                                 const std::byte* p,
                                                 std::size_t stripes) {
  constexpr std::size_t kRegs = kLanes / 4;
  const __m256i mul = _mm256_set1_epi64x(kLaneMul);
  __m256i h[kRegs];
  for (std::size_t i = 0; i < kRegs; ++i) {
    h[i] = _mm256_loadu_si256(
        reinterpret_cast<const __m256i_u*>(lane.data() + 4 * i));
  }
  for (std::size_t at = 0; at < stripes * kStripe; at += kStripe) {
    for (std::size_t i = 0; i < kRegs; ++i) {
      const __m256i w =
          _mm256_loadu_si256(reinterpret_cast<const __m256i_u*>(p + at) + i);
      if constexpr (kCopy) {
        _mm256_storeu_si256(reinterpret_cast<__m256i_u*>(dst + at) + i, w);
      }
      // `lane_step`: after the xor-shift the high half is still x >> 32.
      const __m256i x = _mm256_add_epi64(h[i], w);
      const __m256i hi = _mm256_srli_epi64(x, 32);
      const __m256i lo = _mm256_xor_si256(x, hi);
      h[i] = _mm256_add_epi64(_mm256_mul_epu32(lo, mul),
                              _mm256_slli_epi64(_mm256_mul_epu32(hi, mul), 32));
    }
  }
  for (std::size_t i = 0; i < kRegs; ++i) {
    _mm256_storeu_si256(reinterpret_cast<__m256i_u*>(lane.data() + 4 * i),
                        h[i]);
  }
  return lane;
}

// Whether this CPU runs the AVX2 kernel, asked once per process.
bool has_avx2() {
  static const bool avx2 = (__builtin_cpu_init(),
                            __builtin_cpu_supports("avx2") != 0);
  return avx2;
}
#endif

// Thirty-two independent lanes take one 8-byte word each per 256-byte
// stripe, so their multiply chains overlap (and a vector kernel runs them
// four to a register). The lanes are folded into one state, then the
// leftover words, the zero-padded byte tail and the length are mixed in
// one `mix` each: that state is the payload's digest. Sealing mixes
// (seq, epoch) into the digest and finalizes. Every step from a payload
// byte to the checksum is injective in that byte with everything else
// fixed, so any change confined to one byte of the payload, or to seq or
// epoch, changes the checksum — the fault injector's corruption model
// (one byte XOR 1..255).
//
// This is the one checksum loop. With `kCopy` it also stores every word it
// loads to `dst`, so a copy and its digest are one pass over the bytes
// (the integrated copy-and-checksum of classic TCP stacks). Either kernel
// gives the same lanes, so every host computes the same trailers.
template <bool kCopy>
std::uint64_t digest_with(LaneKernel kernel, std::byte* dst,
                          const std::byte* p, std::size_t size) {
  const std::size_t stripes = size / kStripe;
  std::uint64_t h =
      stripes == 0 ? kSeedFold : fold(kernel(kLaneSeeds, dst, p, stripes));
  std::size_t at = stripes * kStripe;
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
  return mix(h, size);
}

template <bool kCopy>
std::uint64_t digest_pass(std::byte* dst, const std::byte* p,
                          std::size_t size) {
  g_checksum_bytes += size;
  if constexpr (kCopy) {
    g_copy_bytes += size;
  }
#if defined(__x86_64__)
  if (has_avx2()) {
    return digest_with<kCopy>(avx2_lanes<kCopy>, dst, p, size);
  }
#endif
  return digest_with<kCopy>(portable_lanes<kCopy>, dst, p, size);
}

}  // namespace

namespace detail {

// The portable kernel alone, for the test that checks the dispatched
// digest against it. Counts nothing.
std::uint64_t portable_digest(util::ByteSpan payload) {
  return digest_with<false>(portable_lanes<false>, nullptr, payload.data(),
                            payload.size());
}

std::uint64_t portable_copy_digest(util::MutByteSpan dst, util::ByteSpan src) {
  MAD_ASSERT(dst.size() == src.size(), "portable_copy_digest: size mismatch");
  return digest_with<true>(portable_lanes<true>, dst.data(), src.data(),
                           src.size());
}

}  // namespace detail

std::uint64_t gtm_digest(util::ByteSpan payload) {
  return digest_pass<false>(nullptr, payload.data(), payload.size());
}

std::uint64_t gtm_copy_digest(util::MutByteSpan dst, util::ByteSpan src) {
  MAD_ASSERT(dst.size() == src.size(), "gtm_copy_digest: size mismatch");
  return digest_pass<true>(dst.data(), src.data(), src.size());
}

std::uint64_t gtm_seal(std::uint64_t digest, std::uint32_t seq,
                       std::uint32_t epoch) {
  return finalize(mix(digest, (static_cast<std::uint64_t>(epoch) << 32) | seq));
}

std::uint64_t& gtm_checksum_bytes() { return g_checksum_bytes; }

std::uint64_t& gtm_copy_bytes() { return g_copy_bytes; }

std::uint64_t gtm_paquet_checksum(util::ByteSpan payload, std::uint32_t seq,
                                  std::uint32_t epoch) {
  return gtm_seal(gtm_digest(payload), seq, epoch);
}

std::uint64_t gtm_copy_checksum(util::MutByteSpan dst, util::ByteSpan src,
                                std::uint32_t seq, std::uint32_t epoch) {
  return gtm_seal(gtm_copy_digest(dst, src), seq, epoch);
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
