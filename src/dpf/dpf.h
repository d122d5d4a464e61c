// Two-party distributed point functions (DPFs), tree construction of
// Boyle–Gilboa–Ishai (CCS'16) with early termination.
//
// A DPF splits the point function f_alpha (f_alpha(alpha)=1, 0 elsewhere,
// over domain {0,...,2^d - 1}) into two keys. Each key alone reveals nothing
// about alpha, yet the two parties' evaluations XOR to f_alpha at every
// point. This is exactly what ZLTP's two-server PIR mode needs (paper §2.2):
// the client sends one key to each non-colluding server; each server XORs
// together the records whose evaluation bit is 1; the XOR of the two answers
// is the record at alpha.
//
// Early termination (BGI16 §3.2.2): the tree stops kLeafBits = 7 levels
// short of single-bit leaves. Each of its 2^(d-7) leaf seeds becomes 128
// output bits through fixed-key AES-MMO, XORed with one output correction
// word wherever the leaf's control bit is set. A key is therefore
// (λ+2)·(d−7) + 2λ bits (λ = 128; 289 bytes at d = 22), and full-domain
// evaluation costs ~3·2^(d-7) AES calls over buffers that fit in L2 — the
// "DPF evaluation" half of the paper's §5.1 per-request server compute.
// The module also implements the §5.2 front-end/data-server split, where
// the top of the tree is evaluated once and sub-tree roots are shipped to
// shards.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/secret.h"
#include "util/bytes.h"
#include "util/status.h"

namespace lw::dpf {

inline constexpr std::size_t kSeedSize = 16;
inline constexpr int kMaxDomainBits = 40;
inline constexpr int kLambdaBits = 128;  // PRG seed length (security param)
// Output bits below each tree leaf: a leaf seed converts to 2^kLeafBits =
// kLambdaBits output bits.
inline constexpr int kLeafBits = 7;

// Levels of the tree over a 2^domain_bits domain (zero when the whole
// domain fits in one leaf's output).
inline constexpr int TreeDepth(int domain_bits) {
  return domain_bits > kLeafBits ? domain_bits - kLeafBits : 0;
}

// Per-level correction word: a seed plus one control-bit correction per side.
// One correction word alone is secret-correlated with alpha (it is the XOR
// of the two parties' off-path seeds); treat it like key material.
struct CorrectionWord {
  LW_SECRET std::uint8_t seed[kSeedSize];
  std::uint8_t t_left;   // 0 or 1
  std::uint8_t t_right;  // 0 or 1
};

// One party's share of the DPF. Level i of the tree consumes bit i of the
// evaluation point (least-significant first): with levels laid out as
// [left children || right children], the PRG's batch output lands directly
// in place and leaf p still ends up at array position p. Leaf p's output
// bit b is the share at x = p + b·2^TreeDepth(d).
struct DpfKey {
  std::uint8_t party = 0;        // 0 or 1
  std::uint8_t domain_bits = 0;  // d; domain size is 2^d
  LW_SECRET std::uint8_t root_seed[kSeedSize] = {};
  std::vector<CorrectionWord> correction_words;  // TreeDepth(d) entries
  // Leaf output correction: conv(s0) ^ conv(s1) ^ e_b at alpha's leaf.
  LW_SECRET std::uint8_t output_cw[kSeedSize] = {};

  std::size_t SerializedSize() const;
  Bytes Serialize() const;
  static Result<DpfKey> Deserialize(ByteSpan data);

  bool operator==(const DpfKey& other) const;
};

struct KeyPair {
  DpfKey key0;
  DpfKey key1;
};

// Generates the two shares of f_alpha over a 2^domain_bits domain.
// alpha must be < 2^domain_bits; 1 <= domain_bits <= kMaxDomainBits.
// alpha is the queried index — THE secret the whole protocol protects.
KeyPair Generate(LW_SECRET std::uint64_t alpha, int domain_bits);

// Evaluates this party's share bit at a single point x.
std::uint8_t EvalPoint(const DpfKey& key, std::uint64_t x);

// Packed bit vector: bit i of the evaluation lives at
// word[i >> 6] >> (i & 63) & 1.
using BitVector = std::vector<std::uint64_t>;

inline std::uint8_t GetBit(const BitVector& bits, std::uint64_t i) {
  return static_cast<std::uint8_t>((bits[i >> 6] >> (i & 63)) & 1);
}

// Full-domain evaluation: all 2^d share bits in point order, breadth-first
// through the fused level kernel, then a 64×64 bit transpose per 64 leaves.
// The reference evaluator for tests, fuzz targets and benches; servers
// evaluate leaves inside their scan instead (EvalLeaves below).
BitVector EvalFull(const DpfKey& key);

// ------------------------------------------------------------------------
// Distributed evaluation (paper §5.2, "Distributing DPF evaluation").
//
// The front-end expands the top `top_bits` levels of the tree once and sends
// each of the 2^top_bits data servers its sub-tree root; each data server
// then pays only the cost of a DPF evaluation over the smaller
// 2^(d - top_bits) domain.
// ------------------------------------------------------------------------

struct SubtreeKey {
  std::uint8_t party = 0;
  std::uint8_t domain_bits = 0;  // remaining output bits below this root
  LW_SECRET std::uint8_t seed[kSeedSize] = {};
  std::uint8_t t = 0;  // control bit at the sub-tree root
  std::vector<CorrectionWord> correction_words;  // TreeDepth(domain_bits)
  LW_SECRET std::uint8_t output_cw[kSeedSize] = {};  // the key's output word

  std::size_t SerializedSize() const;
  Bytes Serialize() const;
  static Result<SubtreeKey> Deserialize(ByteSpan data);
};

// Splits a key into 2^top_bits sub-tree keys. Because the tree consumes
// evaluation-point bits LSB-first, shard s covers the residue class
// { x : x mod 2^top_bits == s }, and leaf j of shard s is the point
// x = s + (j << top_bits). Requires 0 <= top_bits <= TreeDepth(domain_bits):
// the split happens inside the tree, above the converted leaves.
std::vector<SubtreeKey> SplitForShards(const DpfKey& key, int top_bits);

// Evaluates all 2^domain_bits leaves under a sub-tree root, in point order
// (the reference layout, as EvalFull).
BitVector EvalSubtree(const SubtreeKey& key);

// ------------------------------------------------------------------------
// Leaf evaluation for the server's scan (pir::BlobDatabase::AnswerBatch).
//
// The scan groups its rows by the low `split` bits of their domain index
// and expands one group's sub-tree at a time, so its output stays in L2
// while the group's rows are swept. A PIR server's DpfKey enters as its
// root sub-tree key, SplitForShards(key, 0).front().
// ------------------------------------------------------------------------

// The 2^split sub-tree roots `split` levels below a sub-tree key's root, in
// residue order: root s covers the points x ≡ s (mod 2^split), with seed
// seeds[16s, 16s + 16) and control bit ts[s]. The roots share the key's
// correction words below level `split` (SplitForShards copies them into
// every sub-key instead). Requires 0 <= split <= TreeDepth(domain_bits).
struct SplitRoots {
  LW_SECRET Bytes seeds;
  Bytes ts;
};
SplitRoots ExpandRoots(const SubtreeKey& key, int split);

// Evaluates the sub-tree below one of key's split roots (seed, t) and
// writes its leaves without the transpose: with levels =
// TreeDepth(key.domain_bits) - split, leaf p's 128 corrected output bits
// are out[2p] (bits 0-63) and out[2p + 1] (bits 64-127), 2 << levels words
// in all. The sub-tree's point j (the key's point s + (j << split)) is bit
// b = j >> levels of leaf p = j mod 2^levels, bit LeafBitIndex(levels, j)
// of `out` read as one bit string; LeafBit reads it.
void EvalLeaves(const SubtreeKey& key, int split, const std::uint8_t* seed,
                std::uint8_t t, std::uint64_t* out);

inline std::uint64_t LeafBitIndex(int levels, std::uint64_t j) {
  const std::uint64_t p = j & ((std::uint64_t{1} << levels) - 1);
  return (p << kLeafBits) | (j >> levels);
}

inline std::uint8_t LeafBit(const std::uint64_t* leaves, int levels,
                            std::uint64_t j) {
  const std::uint64_t i = LeafBitIndex(levels, j);
  return static_cast<std::uint8_t>((leaves[i >> 6] >> (i & 63)) & 1);
}

}  // namespace lw::dpf
