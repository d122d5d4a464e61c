#include "crypto/prg.h"

#include "crypto/portable.h"

#if defined(__AES__) && defined(__SSE2__)
#define LW_PRG_AESNI 1
#include <immintrin.h>
#include <wmmintrin.h>
#else
#define LW_PRG_AESNI 0
#endif

namespace lw::crypto {
namespace {

// Arbitrary fixed public constants (digits of pi / e / sqrt 2). Distinct
// keys give independent left/right expansions and leaf conversion.
constexpr std::uint8_t kLeftKey[16] = {0x31, 0x41, 0x59, 0x26, 0x53, 0x58,
                                       0x97, 0x93, 0x23, 0x84, 0x62, 0x64,
                                       0x33, 0x83, 0x27, 0x95};
constexpr std::uint8_t kRightKey[16] = {0x27, 0x18, 0x28, 0x18, 0x28, 0x45,
                                        0x90, 0x45, 0x23, 0x53, 0x60, 0x28,
                                        0x74, 0x71, 0x35, 0x26};
constexpr std::uint8_t kConvertKey[16] = {0x14, 0x14, 0x21, 0x35, 0x62, 0x37,
                                          0x30, 0x95, 0x04, 0x88, 0x01, 0x68,
                                          0x87, 0x24, 0x20, 0x96};

// All ones or all zeros as bit is 1 or 0 (a branch-free select).
std::uint64_t BitMask(std::uint8_t bit) {
  return std::uint64_t{0} - std::uint64_t{bit};
}

#if LW_PRG_AESNI
using Schedule = std::uint8_t[11][kAesBlockSize];

void LoadSchedule(const Schedule& bytes, __m128i rk[11]) {
  for (int i = 0; i < 11; ++i) {
    rk[i] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes[i]));
  }
}

__m128i Mask128(std::uint8_t bit) {
  return _mm_set1_epi64x(static_cast<long long>(BitMask(bit)));
}

// kP parents' two children each: AES-MMO under the left and the right key,
// 2·kP blocks in flight, then the control bits split off and the level's
// correction applied where the parent's bit is set.
template <int kP>
void ExpandParents(const __m128i rl[11], const __m128i rr[11],
                   const std::uint8_t* seeds, const std::uint8_t* ts,
                   std::size_t j, std::size_t n, __m128i cw,
                   std::uint8_t cw_t_left, std::uint8_t cw_t_right,
                   std::uint8_t* next, std::uint8_t* next_t) {
  // Clears bit 0 of byte 0, where the control bit was.
  const __m128i clear = _mm_set_epi64x(-1, ~1LL);
  __m128i s[kP], l[kP], r[kP];
  for (int k = 0; k < kP; ++k) {
    s[k] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(seeds + (j + k) * kPrgSeedSize));
    l[k] = _mm_xor_si128(s[k], rl[0]);
    r[k] = _mm_xor_si128(s[k], rr[0]);
  }
  for (int round = 1; round <= 9; ++round) {
    for (int k = 0; k < kP; ++k) {
      l[k] = _mm_aesenc_si128(l[k], rl[round]);
      r[k] = _mm_aesenc_si128(r[k], rr[round]);
    }
  }
  for (int k = 0; k < kP; ++k) {
    l[k] = _mm_xor_si128(_mm_aesenclast_si128(l[k], rl[10]), s[k]);
    r[k] = _mm_xor_si128(_mm_aesenclast_si128(r[k], rr[10]), s[k]);
    const std::uint8_t t = ts[j + k];
    const __m128i fix = _mm_and_si128(cw, Mask128(t));
    const auto tl = static_cast<std::uint8_t>(_mm_cvtsi128_si32(l[k]) & 1);
    const auto tr = static_cast<std::uint8_t>(_mm_cvtsi128_si32(r[k]) & 1);
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(next + (j + k) * kPrgSeedSize),
        _mm_xor_si128(_mm_and_si128(l[k], clear), fix));
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(next + (n + j + k) * kPrgSeedSize),
        _mm_xor_si128(_mm_and_si128(r[k], clear), fix));
    next_t[j + k] = static_cast<std::uint8_t>(tl ^ (t & cw_t_left));
    next_t[n + j + k] = static_cast<std::uint8_t>(tr ^ (t & cw_t_right));
  }
}

// kB leaves' conversions, kB blocks in flight, each XORed with the output
// word where its control bit is set.
template <int kB>
void ConvertBlocks(const __m128i rk[11], const std::uint8_t* seeds,
                   const std::uint8_t* ts, std::size_t i, __m128i output_cw,
                   std::uint64_t* out) {
  __m128i s[kB], b[kB];
  for (int k = 0; k < kB; ++k) {
    s[k] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(seeds + (i + k) * kPrgSeedSize));
    b[k] = _mm_xor_si128(s[k], rk[0]);
  }
  for (int round = 1; round <= 9; ++round) {
    for (int k = 0; k < kB; ++k) b[k] = _mm_aesenc_si128(b[k], rk[round]);
  }
  for (int k = 0; k < kB; ++k) {
    b[k] = _mm_xor_si128(_mm_aesenclast_si128(b[k], rk[10]), s[k]);
    b[k] = _mm_xor_si128(b[k], _mm_and_si128(output_cw, Mask128(ts[i + k])));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 2 * (i + k)), b[k]);
  }
}
#endif  // LW_PRG_AESNI

}  // namespace

DpfPrg::DpfPrg()
    : aes_left_(ByteSpan(kLeftKey, sizeof kLeftKey)),
      aes_right_(ByteSpan(kRightKey, sizeof kRightKey)),
      aes_convert_(ByteSpan(kConvertKey, sizeof kConvertKey)) {}

void DpfPrg::ExpandBatch(const std::uint8_t* seeds, std::size_t n,
                         std::uint8_t* left, std::uint8_t* right,
                         std::uint8_t* t_left, std::uint8_t* t_right) const {
  aes_left_.MmoBlocks(seeds, left, n);
  aes_right_.MmoBlocks(seeds, right, n);
  for (std::size_t i = 0; i < n; ++i) {
    t_left[i] = left[i * 16] & 1;
    left[i * 16] &= 0xfe;
    t_right[i] = right[i * 16] & 1;
    right[i * 16] &= 0xfe;
  }
}

void DpfPrg::Expand(const std::uint8_t seed[kPrgSeedSize],
                    std::uint8_t left[kPrgSeedSize],
                    std::uint8_t right[kPrgSeedSize], std::uint8_t* t_left,
                    std::uint8_t* t_right) const {
  ExpandBatch(seed, 1, left, right, t_left, t_right);
}

void DpfPrg::ConvertBatch(const std::uint8_t* seeds, std::size_t n,
                          std::uint8_t* out) const {
  aes_convert_.MmoBlocks(seeds, out, n);
}

void DpfPrg::ExpandLevel(const std::uint8_t* seeds, const std::uint8_t* ts,
                         std::size_t n,
                         const std::uint8_t cw_seed[kPrgSeedSize],
                         std::uint8_t cw_t_left, std::uint8_t cw_t_right,
                         std::uint8_t* next, std::uint8_t* next_t) const {
#if LW_PRG_AESNI
  if (Aes128::HasHardwareSupport()) {
    __m128i rl[11], rr[11];
    LoadSchedule(aes_left_.round_keys(), rl);
    LoadSchedule(aes_right_.round_keys(), rr);
    const __m128i cw =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cw_seed));
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      ExpandParents<4>(rl, rr, seeds, ts, j, n, cw, cw_t_left, cw_t_right,
                       next, next_t);
    }
    for (; j < n; ++j) {
      ExpandParents<1>(rl, rr, seeds, ts, j, n, cw, cw_t_left, cw_t_right,
                       next, next_t);
    }
    return;
  }
#endif
  portable::DpfExpandLevel(*this, seeds, ts, n, cw_seed, cw_t_left,
                           cw_t_right, next, next_t);
}

void DpfPrg::ConvertLeaves(const std::uint8_t* seeds, const std::uint8_t* ts,
                           std::size_t n,
                           const std::uint8_t output_cw[kPrgSeedSize],
                           std::uint64_t* out) const {
#if LW_PRG_AESNI
  if (Aes128::HasHardwareSupport()) {
    __m128i rk[11];
    LoadSchedule(aes_convert_.round_keys(), rk);
    const __m128i cw =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(output_cw));
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) ConvertBlocks<8>(rk, seeds, ts, i, cw, out);
    for (; i < n; ++i) ConvertBlocks<1>(rk, seeds, ts, i, cw, out);
    return;
  }
#endif
  portable::DpfConvertLeaves(*this, seeds, ts, n, output_cw, out);
}

namespace portable {

void DpfExpandLevel(const DpfPrg& prg, const std::uint8_t* seeds,
                    const std::uint8_t* ts, std::size_t n,
                    const std::uint8_t cw_seed[kPrgSeedSize],
                    std::uint8_t cw_t_left, std::uint8_t cw_t_right,
                    std::uint8_t* next, std::uint8_t* next_t) {
  AesMmoBlocks(prg.left_cipher(), seeds, next, n);
  AesMmoBlocks(prg.right_cipher(), seeds, next + n * kPrgSeedSize, n);
  const std::uint64_t cw_lo = LoadLE64(cw_seed);
  const std::uint64_t cw_hi = LoadLE64(cw_seed + 8);
  const std::uint8_t cw_t[2] = {cw_t_left, cw_t_right};
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t mask = BitMask(ts[j]);
    for (std::size_t side = 0; side < 2; ++side) {
      std::uint8_t* const child = next + (side * n + j) * kPrgSeedSize;
      const auto t = static_cast<std::uint8_t>(child[0] & 1);
      child[0] &= 0xfe;
      StoreLE64(child, LoadLE64(child) ^ (cw_lo & mask));
      StoreLE64(child + 8, LoadLE64(child + 8) ^ (cw_hi & mask));
      next_t[side * n + j] =
          static_cast<std::uint8_t>(t ^ (ts[j] & cw_t[side]));
    }
  }
}

void DpfConvertLeaves(const DpfPrg& prg, const std::uint8_t* seeds,
                      const std::uint8_t* ts, std::size_t n,
                      const std::uint8_t output_cw[kPrgSeedSize],
                      std::uint64_t* out) {
  const std::uint64_t cw_lo = LoadLE64(output_cw);
  const std::uint64_t cw_hi = LoadLE64(output_cw + 8);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t leaf[kPrgSeedSize];
    AesMmoBlocks(prg.convert_cipher(), seeds + i * kPrgSeedSize, leaf, 1);
    const std::uint64_t mask = BitMask(ts[i]);
    out[2 * i] = LoadLE64(leaf) ^ (cw_lo & mask);
    out[2 * i + 1] = LoadLE64(leaf + 8) ^ (cw_hi & mask);
  }
}

}  // namespace portable

const DpfPrg& SharedDpfPrg() {
  // Deliberately leaked singleton (same rationale as lw::SecureRandomBytes's
  // pool); suppressed in tools/lint/lsan.supp.
  static const DpfPrg* prg = new DpfPrg();  // lwlint: allow(naked-new)
  return *prg;
}

}  // namespace lw::crypto
