// Runtime-dispatched XOR kernels for the PIR record scan.
//
// The scan's inner operation is "XOR this row into that accumulator". This
// module compiles that operation at three SIMD tiers and picks the widest
// one the running CPU supports, so one binary serves every fleet host:
//
//   kScalar   portable 64-bit word loop (always available)
//   kAvx2     32-byte lanes (compiled with target("avx2"))
//   kAvx512   64-byte lanes (compiled with target("avx512f")) — one whole
//             cache line per op, half the loop iterations of AVX2
//
// Detection uses __builtin_cpu_supports at first use; no global -mavx512*
// flags are needed because each tier's functions carry their own target
// attribute (only the dispatched pointer ever reaches AVX-512 code, so the
// binary still runs on plain SSE hosts). Tests and benches can pin a tier
// with SetXorTier to prove all supported tiers produce identical bytes.
//
// Two kernels are dispatched:
//   XorBytes(dst, src, n)            dst ^= src, the single-query scan op
//   XorSliceMulti(rows, begin, len)  bytes [begin, begin + len) of each
//                                    row of a block XORed into each of
//                                    that row's destinations — the batch
//                                    scan's table update (one call per
//                                    block and column slice) and its fold
//                                    of the tables into the answers.
#pragma once

#include <cstddef>
#include <cstdint>

namespace lw::pir {

enum class XorTier : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

const char* XorTierName(XorTier tier);

// Widest tier this CPU can execute (detected once, cached).
XorTier BestSupportedXorTier();

// Tier the dispatched kernels currently use. Defaults to
// BestSupportedXorTier() on first use.
XorTier ActiveXorTier();

// Pins the dispatch to `tier`: the hook the tier-equivalence tests use.
// Returns false — leaving the active tier unchanged — if the CPU cannot
// execute it.
bool SetXorTier(XorTier tier);

// dst ^= src over n bytes, through the active tier. Both pointers may be
// arbitrarily aligned; aligned inputs take the fast path within a tier.
void XorBytes(std::uint8_t* dst, const std::uint8_t* src, std::size_t n);

// A block of source rows for XorSliceMulti. Row i starts at
// src + i * row_stride and is XORed into dst + offsets[j] for every j in
// [dst_begin[i], dst_begin[i + 1]); dst_begin has count + 1 entries.
struct XorRows {
  const std::uint8_t* src;
  std::size_t row_stride;
  std::size_t count;
  const std::size_t* dst_begin;
  const std::size_t* offsets;
  std::uint8_t* dst;
};

// Cache lines XorSliceMulti pulls into L2 as it goes: before each row it
// prefetches the next min(per_row, lines) lines from `next` and advances
// past them, so consecutive calls continue one stream.
struct L2Prefetch {
  const std::uint8_t* next = nullptr;
  std::size_t lines = 0;
  std::size_t per_row = 0;
};

// For every row i of `rows` and each of its destinations d:
// d[begin, begin + len) ^= row i[begin, begin + len). The vector tiers
// load a row's bytes once for all its destinations, so a batched scan pays
// the row's memory traffic once no matter how many table entries it lands
// in. No destination may overlap a row.
void XorSliceMulti(const XorRows& rows, std::size_t begin, std::size_t len,
                   L2Prefetch& prefetch);

}  // namespace lw::pir
