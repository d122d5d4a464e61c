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
//   XorRowMulti(row, dsts, k, n)     dsts[i] ^= row for k destinations —
//                                    the batch scan feeds one row load to
//                                    its table entry in every group of
//                                    queries that selects it.
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

// Pins the dispatch to `tier` (equivalence tests, --scan-kernel flag).
// Returns false — leaving the active tier unchanged — if the CPU cannot
// execute it.
bool SetXorTier(XorTier tier);

// Parses "scalar" / "avx2" / "avx512" / "auto" and applies it; returns
// false on an unknown name or unsupported tier.
bool SetXorTierByName(const char* name);

// dst ^= src over n bytes, through the active tier. Both pointers may be
// arbitrarily aligned; aligned inputs take the fast path within a tier.
void XorBytes(std::uint8_t* dst, const std::uint8_t* src, std::size_t n);

// dsts[i] ^= row (i < count) over n bytes each: one pass over `row` feeds
// every destination, so a batched scan pays the row's memory traffic once
// no matter how many table entries it lands in.
void XorRowMulti(const std::uint8_t* row, std::uint8_t* const* dsts,
                 std::size_t count, std::size_t n);

}  // namespace lw::pir
