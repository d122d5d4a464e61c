#include "pir/xor_kernel.h"

#include <algorithm>
#include <atomic>

#include "util/alloc.h"
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

// Issues one row's share of XorSliceMulti's prefetches. They go to L2
// (locality 2), not L1: the sweep works in an L1-resident slice of its
// table entries, and the lines of the next block would evict it.
inline void PrefetchRowStep(L2Prefetch& prefetch) {
  const std::size_t lines = std::min(prefetch.per_row, prefetch.lines);
  for (std::size_t i = 0; i < lines; ++i) {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(prefetch.next + i * kCacheLineSize, /*rw=*/0,
                       /*locality=*/2);
#endif
  }
  prefetch.next += lines * kCacheLineSize;
  prefetch.lines -= lines;
}

void XorSliceMultiScalar(const XorRows& rows, std::size_t begin,
                         std::size_t len, L2Prefetch& prefetch) {
  std::uint8_t* const dst = rows.dst + begin;
  for (std::size_t r = 0; r < rows.count; ++r) {
    PrefetchRowStep(prefetch);
    const std::uint8_t* row = rows.src + r * rows.row_stride + begin;
    for (std::size_t j = rows.dst_begin[r]; j < rows.dst_begin[r + 1]; ++j) {
      XorBytesScalar(dst + rows.offsets[j], row, len);
    }
  }
}

#if defined(LW_XOR_X86)

// Row lanes XorSliceMulti's vector tiers load per block before touching
// any destination: the block's row loads issue back to back, and each
// destination offset is read once per block, not once per lane. On a
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

__attribute__((target("avx2"))) void XorSliceMultiAvx2(
    const XorRows& rows, std::size_t begin, std::size_t len,
    L2Prefetch& prefetch) {
  std::uint8_t* const dst = rows.dst + begin;
  for (std::size_t r = 0; r < rows.count; ++r) {
    PrefetchRowStep(prefetch);
    const std::uint8_t* row = rows.src + r * rows.row_stride + begin;
    const std::size_t* const first = rows.offsets + rows.dst_begin[r];
    const std::size_t* const last = rows.offsets + rows.dst_begin[r + 1];
    std::size_t i = 0;
    for (; i + 32 * kRowBlockLanes <= len; i += 32 * kRowBlockLanes) {
      // One load of each row lane feeds every destination.
      __m256i v[kRowBlockLanes];
      for (std::size_t j = 0; j < kRowBlockLanes; ++j) {
        v[j] = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(row + i + 32 * j));
      }
      for (const std::size_t* o = first; o != last; ++o) {
        std::uint8_t* d = dst + *o + i;
        for (std::size_t j = 0; j < kRowBlockLanes; ++j) {
          __m256i* lane = reinterpret_cast<__m256i*>(d + 32 * j);
          _mm256_storeu_si256(
              lane, _mm256_xor_si256(_mm256_loadu_si256(lane), v[j]));
        }
      }
    }
    for (; i + 32 <= len; i += 32) {
      const __m256i v =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + i));
      for (const std::size_t* o = first; o != last; ++o) {
        __m256i* lane = reinterpret_cast<__m256i*>(dst + *o + i);
        _mm256_storeu_si256(lane,
                            _mm256_xor_si256(_mm256_loadu_si256(lane), v));
      }
    }
    if (i < len) {
      for (const std::size_t* o = first; o != last; ++o) {
        XorBytesScalar(dst + *o + i, row + i, len - i);
      }
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

__attribute__((target("avx512f"))) void XorSliceMultiAvx512(
    const XorRows& rows, std::size_t begin, std::size_t len,
    L2Prefetch& prefetch) {
  std::uint8_t* const dst = rows.dst + begin;
  for (std::size_t r = 0; r < rows.count; ++r) {
    PrefetchRowStep(prefetch);
    const std::uint8_t* row = rows.src + r * rows.row_stride + begin;
    const std::size_t* const first = rows.offsets + rows.dst_begin[r];
    const std::size_t* const last = rows.offsets + rows.dst_begin[r + 1];
    std::size_t i = 0;
    for (; i + 64 * kRowBlockLanes <= len; i += 64 * kRowBlockLanes) {
      __m512i v[kRowBlockLanes];
      for (std::size_t j = 0; j < kRowBlockLanes; ++j) {
        v[j] = _mm512_loadu_si512(row + i + 64 * j);
      }
      for (const std::size_t* o = first; o != last; ++o) {
        std::uint8_t* d = dst + *o + i;
        for (std::size_t j = 0; j < kRowBlockLanes; ++j) {
          std::uint8_t* lane = d + 64 * j;
          _mm512_storeu_si512(
              lane, _mm512_xor_si512(_mm512_loadu_si512(lane), v[j]));
        }
      }
    }
    for (; i + 64 <= len; i += 64) {
      const __m512i v = _mm512_loadu_si512(row + i);
      for (const std::size_t* o = first; o != last; ++o) {
        std::uint8_t* lane = dst + *o + i;
        _mm512_storeu_si512(lane,
                            _mm512_xor_si512(_mm512_loadu_si512(lane), v));
      }
    }
    if (i < len) {
      for (const std::size_t* o = first; o != last; ++o) {
        XorBytesScalar(dst + *o + i, row + i, len - i);
      }
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

void XorSliceMulti(const XorRows& rows, std::size_t begin, std::size_t len,
                   L2Prefetch& prefetch) {
  switch (ActiveXorTier()) {
#if defined(LW_XOR_X86)
    case XorTier::kAvx512:
      XorSliceMultiAvx512(rows, begin, len, prefetch);
      return;
    case XorTier::kAvx2:
      XorSliceMultiAvx2(rows, begin, len, prefetch);
      return;
#endif
    default:
      XorSliceMultiScalar(rows, begin, len, prefetch);
      return;
  }
}

}  // namespace lw::pir
