#include "crypto/sha256.h"

#include <cstring>

#include "crypto/sha256_blocks.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define SBFT_SHA256_SHANI 1
#endif

namespace sbft::crypto {

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#ifdef SBFT_SHA256_SHANI
// The SHA-NI round instructions keep the eight state words as two vectors,
// (A, B, E, F) and (C, D, G, H), and take message words plus round constants
// four at a time; the message-schedule instructions extend the 16 block words
// to 64, four at a time.
__attribute__((target("sha,sse4.1"))) void shani_blocks(uint32_t* state,
                                                        const uint8_t* blocks,
                                                        size_t count) {
  // Reverses the bytes of each 32-bit lane: block words are big-endian.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  auto load = [](const void* p) {
    return _mm_loadu_si128(static_cast<const __m128i*>(p));
  };
  __m128i cdab = _mm_shuffle_epi32(load(state), 0xB1);
  __m128i efgh = _mm_shuffle_epi32(load(state + 4), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4] = {};  // w[g % 4]: message words 4g .. 4g+3
#pragma GCC unroll 16
    for (size_t g = 0; g < 16; ++g) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(load(blocks + 16 * g), bswap);
      } else {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16].
        __m128i t = _mm_add_epi32(
            _mm_sha256msg1_epu32(w[g % 4], w[(g + 1) % 4]),
            _mm_alignr_epi8(w[(g + 3) % 4], w[(g + 2) % 4], 4));
        w[g % 4] = _mm_sha256msg2_epu32(t, w[(g + 3) % 4]);
      }
      __m128i wk = _mm_add_epi32(w[g % 4], load(kK + 4 * g));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}
#endif

}  // namespace

namespace sha256_blocks {

void portable(uint32_t* state, const uint8_t* blocks, size_t count) {
  for (; count > 0; --count, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (uint32_t(blocks[4 * i]) << 24) |
             (uint32_t(blocks[4 * i + 1]) << 16) |
             (uint32_t(blocks[4 * i + 2]) << 8) | uint32_t(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256::BlockFunction shani() {
#ifdef SBFT_SHA256_SHANI
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
    return &shani_blocks;
  }
#endif
  return nullptr;
}

Sha256::BlockFunction selected() {
  static const Sha256::BlockFunction chosen = [] {
    Sha256::BlockFunction fast = shani();
    return fast != nullptr ? fast : &portable;
  }();
  return chosen;
}

}  // namespace sha256_blocks

Sha256::Sha256() : Sha256(sha256_blocks::selected()) {}

void Sha256::reset() {
  h_[0] = 0x6a09e667;
  h_[1] = 0xbb67ae85;
  h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f;
  h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab;
  h_[7] = 0x5be0cd19;
  buf_len_ = 0;
  total_len_ = 0;
}

Sha256& Sha256::update(ByteSpan data) {
  total_len_ += data.size();
  size_t off = 0;
  if (buf_len_ > 0) {
    size_t take = std::min(data.size(), 64 - buf_len_);
    std::memcpy(buf_ + buf_len_, data.data(), take);
    buf_len_ += take;
    off = take;
    if (buf_len_ == 64) {
      blocks_(h_, buf_, 1);
      buf_len_ = 0;
    }
  }
  if (size_t whole = (data.size() - off) / 64; whole > 0) {
    blocks_(h_, data.data() + off, whole);
    off += 64 * whole;
  }
  if (off < data.size()) {
    std::memcpy(buf_, data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
  return *this;
}

Digest Sha256::finish() {
  uint64_t bit_len = total_len_ * 8;
  // 0x80, zeros up to 56 mod 64, then the big-endian bit length: one update
  // that ends exactly on a block boundary.
  uint8_t pad[72] = {0x80};
  size_t zeros_end = (buf_len_ < 56 ? 56 : 120) - buf_len_;
  for (int i = 0; i < 8; ++i) {
    pad[zeros_end + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(ByteSpan{pad, zeros_end + 8});
  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<uint8_t>(h_[i]);
  }
  return out;
}

Digest sha256(ByteSpan data) { return Sha256().update(data).finish(); }
Digest sha256(std::string_view s) { return sha256(as_span(s)); }

Digest sha256_concat(ByteSpan a, ByteSpan b) {
  return Sha256().update(a).update(b).finish();
}

}  // namespace sbft::crypto
