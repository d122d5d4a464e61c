#include "crypto/chacha20.h"

#include <cstring>

#include "crypto/portable.h"
#include "util/check.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define LW_CHACHA_X86 1
#endif

namespace lw::crypto {
namespace {

std::uint32_t Rotl32(std::uint32_t x, int k) {
  return (x << k) | (x >> (32 - k));
}

void QuarterRound(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                  std::uint32_t& d) {
  a += b; d ^= a; d = Rotl32(d, 16);
  c += d; b ^= c; b = Rotl32(b, 12);
  a += b; d ^= a; d = Rotl32(d, 8);
  c += d; b ^= c; b = Rotl32(b, 7);
}

void BlockCore(const std::uint32_t state[16], std::uint8_t out[64]) {
  std::uint32_t x[16];
  std::memcpy(x, state, sizeof x);
  for (int i = 0; i < 10; ++i) {
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    lw::StoreLE32(out + 4 * i, x[i] + state[i]);
  }
}

void InitState(std::uint32_t state[16], ByteSpan key, ByteSpan nonce,
               std::uint32_t counter) {
  LW_CHECK_MSG(key.size() == kChaChaKeySize, "ChaCha20 key must be 32 bytes");
  LW_CHECK_MSG(nonce.size() == kChaChaNonceSize,
               "ChaCha20 nonce must be 12 bytes");
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state[4 + i] = lw::LoadLE32(key.data() + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) {
    state[13 + i] = lw::LoadLE32(nonce.data() + 4 * i);
  }
}

// XORs the keystream into data one block at a time, advancing the block
// counter state[12] (mod 2^32) per block.
void XorBlocks(std::uint32_t state[16], std::uint8_t* data, std::size_t len) {
  std::uint8_t block[64];
  for (std::size_t off = 0; off < len; off += 64) {
    BlockCore(state, block);
    ++state[12];
    const std::size_t n = std::min<std::size_t>(64, len - off);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      lw::StoreLE64(data + off + i,
                    lw::LoadLE64(data + off + i) ^ lw::LoadLE64(block + i));
    }
    for (; i < n; ++i) data[off + i] ^= block[i];
  }
}

#if defined(LW_CHACHA_X86)

// Eight blocks per step: word i of blocks c .. c+7 sits in the eight lanes
// of x[i], so each quarter-round instruction advances eight blocks. Like
// pir/xor_kernel, the functions carry their own target attribute and run
// only after the CPU check below.
__attribute__((target("avx2"))) inline __m256i Rotl(__m256i v, int k) {
  return _mm256_or_si256(_mm256_slli_epi32(v, k), _mm256_srli_epi32(v, 32 - k));
}

__attribute__((target("avx2"))) inline void QuarterRound8(
    __m256i& a, __m256i& b, __m256i& c, __m256i& d, __m256i rot16,
    __m256i rot8) {
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot16);
  c = _mm256_add_epi32(c, d);
  b = Rotl(_mm256_xor_si256(b, c), 12);
  a = _mm256_add_epi32(a, b);
  d = _mm256_shuffle_epi8(_mm256_xor_si256(d, a), rot8);
  c = _mm256_add_epi32(c, d);
  b = Rotl(_mm256_xor_si256(b, c), 7);
}

// 8×8 transpose: in[k] holds word w+k of blocks 0..7 (one per lane);
// out[j] receives words w .. w+7 of block j, in keystream order.
__attribute__((target("avx2"))) inline void Transpose8(const __m256i in[8],
                                                       __m256i out[8]) {
  const __m256i t0 = _mm256_unpacklo_epi32(in[0], in[1]);
  const __m256i t1 = _mm256_unpackhi_epi32(in[0], in[1]);
  const __m256i t2 = _mm256_unpacklo_epi32(in[2], in[3]);
  const __m256i t3 = _mm256_unpackhi_epi32(in[2], in[3]);
  const __m256i t4 = _mm256_unpacklo_epi32(in[4], in[5]);
  const __m256i t5 = _mm256_unpackhi_epi32(in[4], in[5]);
  const __m256i t6 = _mm256_unpacklo_epi32(in[6], in[7]);
  const __m256i t7 = _mm256_unpackhi_epi32(in[6], in[7]);
  // u0: words of blocks 0 and 4, u1: blocks 1 and 5, u2: 2 and 6, u3: 3
  // and 7; u0..u3 hold words w..w+3, u4..u7 words w+4..w+7.
  const __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
  const __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
  const __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
  const __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
  const __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
  const __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
  const __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
  const __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
  out[0] = _mm256_permute2x128_si256(u0, u4, 0x20);
  out[1] = _mm256_permute2x128_si256(u1, u5, 0x20);
  out[2] = _mm256_permute2x128_si256(u2, u6, 0x20);
  out[3] = _mm256_permute2x128_si256(u3, u7, 0x20);
  out[4] = _mm256_permute2x128_si256(u0, u4, 0x31);
  out[5] = _mm256_permute2x128_si256(u1, u5, 0x31);
  out[6] = _mm256_permute2x128_si256(u2, u6, 0x31);
  out[7] = _mm256_permute2x128_si256(u3, u7, 0x31);
}

// XORs the keystream into the first len / 512 * 512 bytes of data, eight
// blocks per step, and advances state[12] past them; returns the bytes
// done. Lane j's counter is state[12] + j mod 2^32, as ++state[12] wraps.
__attribute__((target("avx2"))) std::size_t Xor8BlocksAvx2(
    std::uint32_t state[16], std::uint8_t* data, std::size_t len) {
  const __m256i rot16 = _mm256_setr_epi8(
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
      2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  const __m256i rot8 = _mm256_setr_epi8(
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
      3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14);
  const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  __m256i init[16];
  for (int i = 0; i < 16; ++i) {
    init[i] = _mm256_set1_epi32(static_cast<int>(state[i]));
  }
  std::size_t off = 0;
  for (; off + 512 <= len; off += 512) {
    init[12] = _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int>(state[12])), lanes);
    __m256i x[16];
    for (int i = 0; i < 16; ++i) x[i] = init[i];
    for (int round = 0; round < 10; ++round) {
      QuarterRound8(x[0], x[4], x[8], x[12], rot16, rot8);
      QuarterRound8(x[1], x[5], x[9], x[13], rot16, rot8);
      QuarterRound8(x[2], x[6], x[10], x[14], rot16, rot8);
      QuarterRound8(x[3], x[7], x[11], x[15], rot16, rot8);
      QuarterRound8(x[0], x[5], x[10], x[15], rot16, rot8);
      QuarterRound8(x[1], x[6], x[11], x[12], rot16, rot8);
      QuarterRound8(x[2], x[7], x[8], x[13], rot16, rot8);
      QuarterRound8(x[3], x[4], x[9], x[14], rot16, rot8);
    }
    for (int i = 0; i < 16; ++i) x[i] = _mm256_add_epi32(x[i], init[i]);
    __m256i lo[8], hi[8];
    Transpose8(x, lo);
    Transpose8(x + 8, hi);
    for (int j = 0; j < 8; ++j) {
      auto* block = reinterpret_cast<__m256i*>(data + off + 64 * j);
      _mm256_storeu_si256(
          block, _mm256_xor_si256(_mm256_loadu_si256(block), lo[j]));
      _mm256_storeu_si256(
          block + 1, _mm256_xor_si256(_mm256_loadu_si256(block + 1), hi[j]));
    }
    state[12] += 8;
  }
  return off;
}

bool UseAvx2() {
  static const bool use = __builtin_cpu_supports("avx2") != 0;
  return use;
}

#endif  // LW_CHACHA_X86

}  // namespace

void ChaCha20Block(ByteSpan key, ByteSpan nonce, std::uint32_t counter,
                   std::uint8_t out[64]) {
  std::uint32_t state[16];
  InitState(state, key, nonce, counter);
  BlockCore(state, out);
}

void ChaCha20Xor(ByteSpan key, ByteSpan nonce, std::uint32_t counter,
                 MutableByteSpan data) {
  std::uint32_t state[16];
  InitState(state, key, nonce, counter);
  std::size_t done = 0;
#if defined(LW_CHACHA_X86)
  if (UseAvx2()) done = Xor8BlocksAvx2(state, data.data(), data.size());
#endif
  XorBlocks(state, data.data() + done, data.size() - done);
}

namespace portable {

void ChaCha20Xor(ByteSpan key, ByteSpan nonce, std::uint32_t counter,
                 MutableByteSpan data) {
  std::uint32_t state[16];
  InitState(state, key, nonce, counter);
  XorBlocks(state, data.data(), data.size());
}

}  // namespace portable
}  // namespace lw::crypto
