#include "cache/sha256.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PIM_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace pim::cache {
namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu, 0x59f111f1u,
    0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u, 0x243185beu, 0x550c7dc3u,
    0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u, 0xc19bf174u, 0xe49b69c1u, 0xefbe4786u,
    0x0fc19dc6u, 0x240ca1ccu, 0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau,
    0x983e5152u, 0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu, 0x53380d13u,
    0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u, 0xa2bfe8a1u, 0xa81a664bu,
    0xc24b8b70u, 0xc76c51a3u, 0xd192e819u, 0xd6990624u, 0xf40e3585u, 0x106aa070u,
    0x19a4c116u, 0x1e376c08u, 0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au,
    0x5b9cca4fu, 0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u};

inline uint32_t rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#ifdef PIM_SHA256_X86
#define PIM_SHA_TARGET __attribute__((target("sha,sse4.1")))

// Four message words of the block at `data`, group `i` (0..3).
PIM_SHA_TARGET inline __m128i load_words(const uint8_t* data, int i) {
  // Big-endian words: reverse the bytes of each 32-bit lane.
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
                          byte_swap);
}

// The next four message words from the previous sixteen, held as four
// groups of four: w0 (oldest) .. w3 (newest).
PIM_SHA_TARGET inline __m128i next_words(__m128i w0, __m128i w1, __m128i w2, __m128i w3) {
  const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

// Four rounds on the ABEF / CDGH state halves with message words `w`.
PIM_SHA_TARGET inline void four_rounds(__m128i& abef, __m128i& cdgh, __m128i w, int group) {
  const __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * group));
  const __m128i wk = _mm_add_epi32(w, k);
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

PIM_SHA_TARGET void compress_sha_ni(uint32_t state[8], const uint8_t* data, size_t blocks) {
  // state[0..7] = A..H; the round instructions want ABEF and CDGH.
  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);
  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = load_words(data, 0), w1 = load_words(data, 1);
    __m128i w2 = load_words(data, 2), w3 = load_words(data, 3);
    four_rounds(abef, cdgh, w0, 0);
    four_rounds(abef, cdgh, w1, 1);
    four_rounds(abef, cdgh, w2, 2);
    four_rounds(abef, cdgh, w3, 3);
    for (int group = 4; group < 16; group += 4) {
      w0 = next_words(w0, w1, w2, w3);
      four_rounds(abef, cdgh, w0, group);
      w1 = next_words(w1, w2, w3, w0);
      four_rounds(abef, cdgh, w1, group + 1);
      w2 = next_words(w2, w3, w0, w1);
      four_rounds(abef, cdgh, w2, group + 2);
      w3 = next_words(w3, w0, w1, w2);
      four_rounds(abef, cdgh, w3, group + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

#undef PIM_SHA_TARGET

// CPUID leaf 7 EBX bit 29 (SHA), leaf 1 ECX bits 9 (SSSE3) and 19 (SSE4.1).
bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & (1u << 9)) == 0 || (ecx & (1u << 19)) == 0) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & (1u << 29)) != 0;
}
#endif

constexpr uint32_t kInitialState[8] = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u,
                                       0xa54ff53au, 0x510e527fu, 0x9b05688cu,
                                       0x1f83d9abu, 0x5be0cd19u};

// Pads the last `rest_len` (< 64) bytes of a `total`-byte message, folds
// the closing one or two blocks into `state` with `compress`, and renders
// the digest as lowercase hex.
std::string finish(uint32_t state[8], const uint8_t* rest, size_t rest_len, uint64_t total,
                   void (*compress)(uint32_t*, const uint8_t*, size_t)) {
  uint8_t tail[128] = {};
  if (rest_len > 0) std::memcpy(tail, rest, rest_len);
  tail[rest_len] = 0x80;
  const size_t tail_len = rest_len < 56 ? 64 : 128;
  const uint64_t bit_count = total * 8;
  for (int i = 0; i < 8; ++i)
    tail[tail_len - 8 + i] = static_cast<uint8_t>(bit_count >> (56 - 8 * i));
  compress(state, tail, tail_len / 64);
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (int w = 0; w < 8; ++w) {
    for (int shift = 28; shift >= 0; shift -= 4)
      out.push_back(hex[(state[w] >> shift) & 0xF]);
  }
  return out;
}

}  // namespace

namespace detail {

void compress_portable(uint32_t state[8], const uint8_t* data, size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(data[4 * i]) << 24) |
             (static_cast<uint32_t>(data[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(data[4 * i + 2]) << 8) |
             static_cast<uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t t2 = s0 + maj;
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

void compress(uint32_t state[8], const uint8_t* data, size_t blocks) {
#ifdef PIM_SHA256_X86
  if (sha_extensions()) return compress_sha_ni(state, data, blocks);
#endif
  compress_portable(state, data, blocks);
}

std::string sha256_hex_portable(std::string_view text) {
  uint32_t state[8];
  std::memcpy(state, kInitialState, sizeof state);
  const auto* data = reinterpret_cast<const uint8_t*>(text.data());
  const size_t blocks = text.size() / 64;
  compress_portable(state, data, blocks);
  return finish(state, data + 64 * blocks, text.size() % 64, text.size(), compress_portable);
}

bool sha_extensions() {
#ifdef PIM_SHA256_X86
  static const bool available = cpu_has_sha_ni();
  return available;
#else
  return false;
#endif
}

}  // namespace detail

void Sha256::reset() {
  std::memcpy(state_, kInitialState, sizeof state_);
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha256::update(const void* data, size_t len) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  total_bytes_ += len;
  if (buffered_ > 0) {
    const size_t take = std::min(len, sizeof(buffer_) - buffered_);
    std::memcpy(buffer_ + buffered_, bytes, take);
    buffered_ += take;
    bytes += take;
    len -= take;
    if (buffered_ == sizeof(buffer_)) {
      detail::compress(state_, buffer_, 1);
      buffered_ = 0;
    }
  }
  const size_t blocks = len / sizeof(buffer_);
  if (blocks > 0) {
    detail::compress(state_, bytes, blocks);
    bytes += blocks * sizeof(buffer_);
    len -= blocks * sizeof(buffer_);
  }
  if (len > 0) {
    std::memcpy(buffer_, bytes, len);
    buffered_ = len;
  }
}

std::string Sha256::hex_digest() {
  return finish(state_, buffer_, buffered_, total_bytes_, detail::compress);
}

std::string sha256_hex(std::string_view text) {
  Sha256 hasher;
  hasher.update(text);
  return hasher.hex_digest();
}

}  // namespace pim::cache
