#include "pir/xor_kernel.h"

#include <atomic>
#include <cstring>

#include "util/bytes.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define LW_XOR_X86 1
#endif

namespace lw::pir {
namespace {

// ---------------------------------------------------------------------------
// Scalar tier: portable 64-bit words, byte tail. Also the tail handler the
// vector tiers fall through to for the last < lane-size bytes.

void XorBytesScalar(std::uint8_t* dst, const std::uint8_t* src,
                    std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    lw::StoreLE64(dst + i, lw::LoadLE64(dst + i) ^ lw::LoadLE64(src + i));
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

void XorRowMultiScalar(const std::uint8_t* row, std::uint8_t* const* dsts,
                       std::size_t count, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const std::uint64_t r = lw::LoadLE64(row + i);
    for (std::size_t k = 0; k < count; ++k) {
      lw::StoreLE64(dsts[k] + i, lw::LoadLE64(dsts[k] + i) ^ r);
    }
  }
  for (; i < n; ++i) {
    const std::uint8_t r = row[i];
    for (std::size_t k = 0; k < count; ++k) dsts[k][i] ^= r;
  }
}

#if defined(LW_XOR_X86)

// Row lanes XorRowMulti's vector tiers load per block before touching any
// destination: the block's row loads issue back to back, and each
// destination pointer is read once per block, not once per lane. On a
// 4-vCPU Xeon this took bench_batching's 16-query scan (two threads,
// 256 MiB shard) from ~32 to ~27 ms on the AVX-512 tier; pinned to AVX2,
// a cache-cold 16-query scan ran ~6 % faster.
constexpr std::size_t kRowBlockLanes = 4;

// ---------------------------------------------------------------------------
// AVX2 tier: 32-byte lanes. Each function carries its own target attribute
// so the file needs no -mavx2 flag (the repo adds one globally today, but
// the kernels must not depend on it — the AVX-512 tier can't get a global
// flag, and both tiers follow the same discipline).

__attribute__((target("avx2"))) void XorBytesAvx2(std::uint8_t* dst,
                                                  const std::uint8_t* src,
                                                  std::size_t n) {
  std::size_t i = 0;
  if (((reinterpret_cast<std::uintptr_t>(dst) |
        reinterpret_cast<std::uintptr_t>(src)) &
       31) == 0) {
    // Aligned path: BlobDatabase rows and scan accumulators are 64-byte
    // aligned, so the hot scan always lands here.
    for (; i + 32 <= n; i += 32) {
      const __m256i a =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(dst + i));
      const __m256i b =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(src + i));
      _mm256_store_si256(reinterpret_cast<__m256i*>(dst + i),
                         _mm256_xor_si256(a, b));
    }
  } else {
    for (; i + 32 <= n; i += 32) {
      const __m256i a =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
      const __m256i b =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                          _mm256_xor_si256(a, b));
    }
  }
  XorBytesScalar(dst + i, src + i, n - i);
}

__attribute__((target("avx2"))) void XorRowMultiAvx2(
    const std::uint8_t* row, std::uint8_t* const* dsts, std::size_t count,
    std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 * kRowBlockLanes <= n; i += 32 * kRowBlockLanes) {
    // One load of each row lane feeds every destination accumulator.
    __m256i r[kRowBlockLanes];
    for (std::size_t j = 0; j < kRowBlockLanes; ++j) {
      r[j] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(row + i + 32 * j));
    }
    for (std::size_t k = 0; k < count; ++k) {
      for (std::size_t j = 0; j < kRowBlockLanes; ++j) {
        __m256i* lane = reinterpret_cast<__m256i*>(dsts[k] + i + 32 * j);
        _mm256_storeu_si256(
            lane, _mm256_xor_si256(_mm256_loadu_si256(lane), r[j]));
      }
    }
  }
  for (; i + 32 <= n; i += 32) {
    const __m256i r =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
    for (std::size_t k = 0; k < count; ++k) {
      const __m256i a =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dsts[k] + i));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dsts[k] + i),
                          _mm256_xor_si256(a, r));
    }
  }
  if (i < n) {
    const std::uint8_t* row_tail = row + i;
    for (std::size_t k = 0; k < count; ++k) {
      XorBytesScalar(dsts[k] + i, row_tail, n - i);
    }
  }
}

// ---------------------------------------------------------------------------
// AVX-512 tier: 64-byte lanes — one full cache line (and one full
// BlobDatabase row-stride quantum) per op.

__attribute__((target("avx512f"))) void XorBytesAvx512(std::uint8_t* dst,
                                                       const std::uint8_t* src,
                                                       std::size_t n) {
  std::size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i a = _mm512_loadu_si512(dst + i);
    const __m512i b = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, _mm512_xor_si512(a, b));
  }
  XorBytesScalar(dst + i, src + i, n - i);
}

__attribute__((target("avx512f"))) void XorRowMultiAvx512(
    const std::uint8_t* row, std::uint8_t* const* dsts, std::size_t count,
    std::size_t n) {
  std::size_t i = 0;
  for (; i + 64 * kRowBlockLanes <= n; i += 64 * kRowBlockLanes) {
    __m512i r[kRowBlockLanes];
    for (std::size_t j = 0; j < kRowBlockLanes; ++j) {
      r[j] = _mm512_loadu_si512(row + i + 64 * j);
    }
    for (std::size_t k = 0; k < count; ++k) {
      for (std::size_t j = 0; j < kRowBlockLanes; ++j) {
        std::uint8_t* lane = dsts[k] + i + 64 * j;
        _mm512_storeu_si512(
            lane, _mm512_xor_si512(_mm512_loadu_si512(lane), r[j]));
      }
    }
  }
  for (; i + 64 <= n; i += 64) {
    const __m512i r = _mm512_loadu_si512(row + i);
    for (std::size_t k = 0; k < count; ++k) {
      const __m512i a = _mm512_loadu_si512(dsts[k] + i);
      _mm512_storeu_si512(dsts[k] + i, _mm512_xor_si512(a, r));
    }
  }
  if (i < n) {
    const std::uint8_t* row_tail = row + i;
    for (std::size_t k = 0; k < count; ++k) {
      XorBytesScalar(dsts[k] + i, row_tail, n - i);
    }
  }
}

#endif  // LW_XOR_X86

// ---------------------------------------------------------------------------
// Dispatch. The active tier is a relaxed atomic: tier changes are a test /
// startup-flag affordance, not a synchronization point, and every tier
// computes identical bytes, so a racing reader seeing the old tier is
// harmless.

bool TierSupported(XorTier tier) {
  switch (tier) {
    case XorTier::kScalar:
      return true;
    case XorTier::kAvx2:
#if defined(LW_XOR_X86)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case XorTier::kAvx512:
#if defined(LW_XOR_X86)
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
  }
  return false;
}

XorTier DetectBestTier() {
  if (TierSupported(XorTier::kAvx512)) return XorTier::kAvx512;
  if (TierSupported(XorTier::kAvx2)) return XorTier::kAvx2;
  return XorTier::kScalar;
}

std::atomic<XorTier>& ActiveTierStorage() {
  static std::atomic<XorTier> tier{DetectBestTier()};
  return tier;
}

}  // namespace

const char* XorTierName(XorTier tier) {
  switch (tier) {
    case XorTier::kScalar:
      return "scalar";
    case XorTier::kAvx2:
      return "avx2";
    case XorTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

XorTier BestSupportedXorTier() {
  static const XorTier best = DetectBestTier();
  return best;
}

XorTier ActiveXorTier() {
  return ActiveTierStorage().load(std::memory_order_relaxed);
}

bool SetXorTier(XorTier tier) {
  if (!TierSupported(tier)) return false;
  ActiveTierStorage().store(tier, std::memory_order_relaxed);
  return true;
}

bool SetXorTierByName(const char* name) {
  if (name == nullptr) return false;
  if (std::strcmp(name, "auto") == 0) {
    return SetXorTier(BestSupportedXorTier());
  }
  if (std::strcmp(name, "scalar") == 0) return SetXorTier(XorTier::kScalar);
  if (std::strcmp(name, "avx2") == 0) return SetXorTier(XorTier::kAvx2);
  if (std::strcmp(name, "avx512") == 0) return SetXorTier(XorTier::kAvx512);
  return false;
}

void XorBytes(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  switch (ActiveXorTier()) {
#if defined(LW_XOR_X86)
    case XorTier::kAvx512:
      XorBytesAvx512(dst, src, n);
      return;
    case XorTier::kAvx2:
      XorBytesAvx2(dst, src, n);
      return;
#endif
    default:
      XorBytesScalar(dst, src, n);
      return;
  }
}

void XorRowMulti(const std::uint8_t* row, std::uint8_t* const* dsts,
                 std::size_t count, std::size_t n) {
  if (count == 0) return;
  switch (ActiveXorTier()) {
#if defined(LW_XOR_X86)
    case XorTier::kAvx512:
      XorRowMultiAvx512(row, dsts, count, n);
      return;
    case XorTier::kAvx2:
      XorRowMultiAvx2(row, dsts, count, n);
      return;
#endif
    default:
      XorRowMultiScalar(row, dsts, count, n);
      return;
  }
}

}  // namespace lw::pir
