#include "crypto/aes128.h"

#include <cstring>

#include "crypto/portable.h"
#include "util/check.h"

#if defined(__AES__) && defined(__SSE2__)
#define LW_AESNI_COMPILED 1
#include <immintrin.h>
#include <wmmintrin.h>
#else
#define LW_AESNI_COMPILED 0
#endif

namespace lw::crypto {
namespace {

// ---------------------------------------------------------------------------
// Software AES (used for key schedule everywhere and as the runtime fallback).
// ---------------------------------------------------------------------------

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

std::uint8_t Xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

void SoftSubBytes(std::uint8_t s[16]) {
  for (int i = 0; i < 16; ++i) s[i] = kSbox[s[i]];
}

void SoftShiftRows(std::uint8_t s[16]) {
  // State is column-major: s[4*c + r].
  std::uint8_t t;
  // Row 1: shift left by 1.
  t = s[1];
  s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
  // Row 2: shift left by 2.
  t = s[2]; s[2] = s[10]; s[10] = t;
  t = s[6]; s[6] = s[14]; s[14] = t;
  // Row 3: shift left by 3 (== right by 1).
  t = s[15];
  s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
}

void SoftMixColumns(std::uint8_t s[16]) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* p = s + 4 * c;
    const std::uint8_t a0 = p[0], a1 = p[1], a2 = p[2], a3 = p[3];
    const std::uint8_t all = a0 ^ a1 ^ a2 ^ a3;
    p[0] = static_cast<std::uint8_t>(a0 ^ all ^ Xtime(a0 ^ a1));
    p[1] = static_cast<std::uint8_t>(a1 ^ all ^ Xtime(a1 ^ a2));
    p[2] = static_cast<std::uint8_t>(a2 ^ all ^ Xtime(a2 ^ a3));
    p[3] = static_cast<std::uint8_t>(a3 ^ all ^ Xtime(a3 ^ a0));
  }
}

void SoftAddRoundKey(std::uint8_t s[16], const std::uint8_t rk[16]) {
  for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
}

void SoftEncryptBlock(const std::uint8_t rk[11][16], const std::uint8_t in[16],
                      std::uint8_t out[16]) {
  std::uint8_t s[16];
  std::memcpy(s, in, 16);
  SoftAddRoundKey(s, rk[0]);
  for (int round = 1; round <= 9; ++round) {
    SoftSubBytes(s);
    SoftShiftRows(s);
    SoftMixColumns(s);
    SoftAddRoundKey(s, rk[round]);
  }
  SoftSubBytes(s);
  SoftShiftRows(s);
  SoftAddRoundKey(s, rk[10]);
  std::memcpy(out, s, 16);
}

bool DetectAesni() {
#if LW_AESNI_COMPILED
  return __builtin_cpu_supports("aes") != 0;
#else
  return false;
#endif
}

bool UseAesni() {
  static const bool use = DetectAesni();
  return use;
}

}  // namespace

Aes128::Aes128(ByteSpan key) {
  LW_CHECK_MSG(key.size() == kAes128KeySize, "AES-128 key must be 16 bytes");
  std::memcpy(round_keys_[0], key.data(), 16);
  for (int r = 1; r <= 10; ++r) {
    const std::uint8_t* prev = round_keys_[r - 1];
    std::uint8_t* cur = round_keys_[r];
    // RotWord + SubWord + Rcon on the last word of the previous round key.
    std::uint8_t t[4] = {
        static_cast<std::uint8_t>(kSbox[prev[13]] ^ kRcon[r - 1]),
        kSbox[prev[14]], kSbox[prev[15]], kSbox[prev[12]]};
    for (int i = 0; i < 4; ++i) cur[i] = prev[i] ^ t[i];
    for (int i = 4; i < 16; ++i) cur[i] = prev[i] ^ cur[i - 4];
  }
}

bool Aes128::HasHardwareSupport() { return UseAesni(); }

void Aes128::EncryptBlock(const std::uint8_t in[16], std::uint8_t out[16]) const {
  EncryptBlocks(in, out, 1);
}

#if LW_AESNI_COMPILED
namespace {

// Encrypts `n` blocks, 8 at a time, keeping the pipeline full. AESENC has
// ~4-cycle latency but 1/cycle throughput, so independent blocks overlap.
template <bool kXorInput>
void AesniBlocks(const std::uint8_t rk_bytes[11][16], const std::uint8_t* in,
                 std::uint8_t* out, std::size_t n) {
  __m128i rk[11];
  for (int i = 0; i < 11; ++i) {
    rk[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rk_bytes[i]));
  }
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i b[8], orig[8];
    for (int j = 0; j < 8; ++j) {
      orig[j] = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(in + (i + j) * 16));
      b[j] = _mm_xor_si128(orig[j], rk[0]);
    }
    for (int r = 1; r <= 9; ++r) {
      for (int j = 0; j < 8; ++j) b[j] = _mm_aesenc_si128(b[j], rk[r]);
    }
    for (int j = 0; j < 8; ++j) {
      b[j] = _mm_aesenclast_si128(b[j], rk[10]);
      if constexpr (kXorInput) b[j] = _mm_xor_si128(b[j], orig[j]);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + (i + j) * 16), b[j]);
    }
  }
  for (; i < n; ++i) {
    const __m128i orig =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i * 16));
    __m128i b = _mm_xor_si128(orig, rk[0]);
    for (int r = 1; r <= 9; ++r) b = _mm_aesenc_si128(b, rk[r]);
    b = _mm_aesenclast_si128(b, rk[10]);
    if constexpr (kXorInput) b = _mm_xor_si128(b, orig);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i * 16), b);
  }
}

}  // namespace
#endif  // LW_AESNI_COMPILED

void Aes128::EncryptBlocks(const std::uint8_t* in, std::uint8_t* out,
                           std::size_t n) const {
#if LW_AESNI_COMPILED
  if (UseAesni()) {
    AesniBlocks<false>(round_keys_, in, out, n);
    return;
  }
#endif
  portable::AesEncryptBlocks(*this, in, out, n);
}

void Aes128::MmoBlocks(const std::uint8_t* in, std::uint8_t* out,
                       std::size_t n) const {
#if LW_AESNI_COMPILED
  if (UseAesni()) {
    AesniBlocks<true>(round_keys_, in, out, n);
    return;
  }
#endif
  portable::AesMmoBlocks(*this, in, out, n);
}

namespace portable {

void AesEncryptBlocks(const Aes128& aes, const std::uint8_t* in,
                      std::uint8_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    SoftEncryptBlock(aes.round_keys(), in + i * 16, out + i * 16);
  }
}

void AesMmoBlocks(const Aes128& aes, const std::uint8_t* in,
                  std::uint8_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t tmp[16];
    SoftEncryptBlock(aes.round_keys(), in + i * 16, tmp);
    for (int j = 0; j < 16; ++j) out[i * 16 + j] = tmp[j] ^ in[i * 16 + j];
  }
}

}  // namespace portable
}  // namespace lw::crypto
