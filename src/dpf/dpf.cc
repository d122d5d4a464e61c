#include "dpf/dpf.h"

#include <algorithm>
#include <cstring>
#include <memory>

#include "crypto/ct.h"
#include "crypto/prg.h"
#include "util/check.h"
#include "util/io.h"
#include "util/rand.h"

namespace lw::dpf {
namespace {

using crypto::SharedDpfPrg;

// Conditionally XORs a 16-byte correction seed, branchlessly.
void MaskedXorSeed(std::uint8_t* dst, const std::uint8_t* src,
                   std::uint8_t flag) {
  const std::uint64_t mask = 0 - static_cast<std::uint64_t>(flag);
  lw::StoreLE64(dst, lw::LoadLE64(dst) ^ (lw::LoadLE64(src) & mask));
  lw::StoreLE64(dst + 8, lw::LoadLE64(dst + 8) ^ (lw::LoadLE64(src + 8) & mask));
}

Status CheckDomainBits(int domain_bits) {
  if (domain_bits < 1 || domain_bits > kMaxDomainBits) {
    return InvalidArgumentError("domain_bits out of range");
  }
  return Status::Ok();
}

// Serialization helpers shared by DpfKey and SubtreeKey: the correction
// words, then the output word.
void WriteCorrectionWords(Writer& w, const std::vector<CorrectionWord>& cws,
                          const std::uint8_t* output_cw) {
  for (const CorrectionWord& cw : cws) {
    w.Raw(ByteSpan(cw.seed, kSeedSize));
    w.U8(static_cast<std::uint8_t>(cw.t_left | (cw.t_right << 1)));
  }
  w.Raw(ByteSpan(output_cw, kSeedSize));
}

Status ReadCorrectionWords(Reader& r, int domain_bits,
                           std::vector<CorrectionWord>& out,
                           std::uint8_t* output_cw) {
  out.resize(static_cast<std::size_t>(TreeDepth(domain_bits)));
  for (CorrectionWord& cw : out) {
    LW_ASSIGN_OR_RETURN(Bytes seed, r.Raw(kSeedSize));
    std::memcpy(cw.seed, seed.data(), kSeedSize);
    LW_ASSIGN_OR_RETURN(const std::uint8_t bits, r.U8());
    if (bits > 3) return ProtocolError("invalid correction-word bits");
    cw.t_left = bits & 1;
    cw.t_right = (bits >> 1) & 1;
  }
  LW_ASSIGN_OR_RETURN(Bytes word, r.Raw(kSeedSize));
  std::memcpy(output_cw, word.data(), kSeedSize);
  return Status::Ok();
}

// In-place transpose of a 64x64 bit matrix (bit c of row r <-> bit r of
// row c): swaps ever smaller off-diagonal blocks, 6 rounds of 32 word ops.
void Transpose64(std::uint64_t a[64]) {
  std::uint64_t m = 0x00000000ffffffffULL;
  for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (int k = 0; k < 64; k = (k + j + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k + j]) & m;
      a[k] ^= t << j;
      a[k + j] ^= t;
    }
  }
}

// ---------------------------------------------------------------------------
// Tree expansion.
//
// Bit order: level i consumes bit i of the evaluation point (LSB first).
// A level is laid out as [all left children || all right children], so the
// PRG's batch output lands in its final position with no interleaving copy,
// and after n = TreeDepth(d) levels leaf p sits at array position p (p's
// bit i chose the branch at level i, contributing 2^i to the position —
// exactly p). Leaf p's converted output bit b is then the point
// x = p + b·2^n.
// ---------------------------------------------------------------------------

// Expands one level: n parent seeds and control bits become 2n children,
// laid out [left || right] and corrected where the parent's bit is set.
void ExpandLevel(LW_SECRET const std::uint8_t* seeds, const std::uint8_t* ts,
                 std::size_t n, LW_SECRET const CorrectionWord& cw,
                 LW_SECRET std::uint8_t* next, std::uint8_t* next_t) {
  SharedDpfPrg().ExpandLevel(seeds, ts, n, cw.seed, cw.t_left, cw.t_right,
                             next, next_t);
}

// Expands one root `levels` levels down and converts its leaves into
// out[0, 2 << levels): leaf p's corrected output bits are out[2p] and
// out[2p + 1]. Ping-pongs two uninitialized buffers: this is the
// per-request hot loop of a ZLTP server (§5.1's "DPF evaluation").
void ExpandLeaves(LW_SECRET const std::uint8_t* root_seed, std::uint8_t root_t,
                  LW_SECRET const CorrectionWord* cws, int levels,
                  LW_SECRET const std::uint8_t* output_cw,
                  std::uint64_t* out) {
  const std::size_t leaves = std::size_t{1} << levels;
  // Uninitialized, thread-local scratch reused across queries (std::vector
  // would zero-fill it on every request). Both ping-pong buffers need full
  // capacity: the leaves land in either one depending on the parity of
  // `levels`.
  struct Scratch {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size = 0;
    std::uint8_t* Get(std::size_t want) {
      if (size < want) {
        data = std::make_unique_for_overwrite<std::uint8_t[]>(want);
        size = want;
      }
      return data.get();
    }
  };
  thread_local Scratch seeds_a, seeds_b, ts_a, ts_b;

  std::uint8_t* cur = seeds_a.Get(leaves * kSeedSize);
  std::uint8_t* next = seeds_b.Get(leaves * kSeedSize);
  std::uint8_t* cur_t = ts_a.Get(leaves);
  std::uint8_t* next_t = ts_b.Get(leaves);
  std::memcpy(cur, root_seed, kSeedSize);
  cur_t[0] = root_t;

  for (int level = 0; level < levels; ++level) {
    ExpandLevel(cur, cur_t, std::size_t{1} << level, cws[level], next, next_t);
    std::swap(cur, next);
    std::swap(cur_t, next_t);
  }
  SharedDpfPrg().ConvertLeaves(cur, cur_t, leaves, output_cw, out);
}

// The reference layout: all 2^domain_bits output bits of one root, packed
// in point order. Transposes 64 leaves × 128 output bits at a time: row i
// of the transposed matrix is output bit i of 64 consecutive leaves, i.e.
// 64 consecutive points — a whole output word once the tree has >= 64
// leaves, a 2^levels-bit slice of one otherwise.
BitVector ExpandToLeafBits(LW_SECRET const std::uint8_t* root_seed,
                           std::uint8_t root_t,
                           LW_SECRET const CorrectionWord* cws,
                           LW_SECRET const std::uint8_t* output_cw,
                           int domain_bits) {
  const int levels = TreeDepth(domain_bits);
  const std::size_t leaves = std::size_t{1} << levels;
  std::vector<std::uint64_t> words(2 * leaves);
  ExpandLeaves(root_seed, root_t, cws, levels, output_cw, words.data());
  const int bits_per_leaf = 1 << (domain_bits - levels);
  BitVector out(((std::size_t{1} << domain_bits) + 63) / 64, 0);
  for (std::size_t p0 = 0; p0 < leaves; p0 += 64) {
    std::uint64_t lo[64] = {}, hi[64] = {};
    for (std::size_t i = 0; i < std::min<std::size_t>(64, leaves - p0); ++i) {
      lo[i] = words[2 * (p0 + i)];
      hi[i] = words[2 * (p0 + i) + 1];
    }
    Transpose64(lo);
    Transpose64(hi);
    for (int b = 0; b < bits_per_leaf; ++b) {
      const std::uint64_t x = p0 + (static_cast<std::uint64_t>(b) << levels);
      out[x >> 6] |= (b < 64 ? lo[b] : hi[b - 64]) << (x & 63);
    }
  }
  return out;
}

// Small-scale expansion keeping seeds AND control bits: the 2^levels roots
// `levels` below (seed, t), in residue order (the front-end's top-of-tree
// split and the scan's bucket roots, where n stays small).
SplitRoots ExpandKeepingSeeds(LW_SECRET const std::uint8_t* seed,
                              std::uint8_t t,
                              LW_SECRET const CorrectionWord* cws,
                              int levels) {
  SplitRoots roots{Bytes(seed, seed + kSeedSize), Bytes(1, t)};
  for (int level = 0; level < levels; ++level) {
    Bytes next_seeds(2 * roots.seeds.size());
    Bytes next_ts(2 * roots.ts.size());
    ExpandLevel(roots.seeds.data(), roots.ts.data(), roots.ts.size(),
                cws[level], next_seeds.data(), next_ts.data());
    roots.seeds = std::move(next_seeds);
    roots.ts = std::move(next_ts);
  }
  return roots;
}

}  // namespace

// ----------------------------------------------------------- serialization

std::size_t DpfKey::SerializedSize() const {
  return 2 + kSeedSize + correction_words.size() * (kSeedSize + 1) +
         kSeedSize;
}

Bytes DpfKey::Serialize() const {
  Writer w;
  w.U8(party);
  w.U8(domain_bits);
  w.Raw(ByteSpan(root_seed, kSeedSize));
  WriteCorrectionWords(w, correction_words, output_cw);
  return std::move(w).Take();
}

Result<DpfKey> DpfKey::Deserialize(ByteSpan data) {
  Reader r(data);
  DpfKey key;
  LW_ASSIGN_OR_RETURN(key.party, r.U8());
  if (key.party > 1) return ProtocolError("DPF party must be 0 or 1");
  LW_ASSIGN_OR_RETURN(key.domain_bits, r.U8());
  LW_RETURN_IF_ERROR(CheckDomainBits(key.domain_bits));
  LW_ASSIGN_OR_RETURN(Bytes seed, r.Raw(kSeedSize));
  std::memcpy(key.root_seed, seed.data(), kSeedSize);
  LW_RETURN_IF_ERROR(ReadCorrectionWords(r, key.domain_bits,
                                         key.correction_words, key.output_cw));
  LW_RETURN_IF_ERROR(r.ExpectEnd());
  return key;
}

bool DpfKey::operator==(const DpfKey& other) const {
  if (party != other.party || domain_bits != other.domain_bits) return false;
  if (!crypto::ct::Eq(ByteSpan(root_seed, kSeedSize),
                      ByteSpan(other.root_seed, kSeedSize)) ||
      !crypto::ct::Eq(ByteSpan(output_cw, kSeedSize),
                      ByteSpan(other.output_cw, kSeedSize))) {
    return false;
  }
  if (correction_words.size() != other.correction_words.size()) return false;
  for (std::size_t i = 0; i < correction_words.size(); ++i) {
    const CorrectionWord& a = correction_words[i];
    const CorrectionWord& b = other.correction_words[i];
    if (!crypto::ct::Eq(ByteSpan(a.seed, kSeedSize),
                        ByteSpan(b.seed, kSeedSize)) ||
        a.t_left != b.t_left || a.t_right != b.t_right) {
      return false;
    }
  }
  return true;
}

std::size_t SubtreeKey::SerializedSize() const {
  return 3 + kSeedSize + correction_words.size() * (kSeedSize + 1) +
         kSeedSize;
}

Bytes SubtreeKey::Serialize() const {
  Writer w;
  w.U8(party);
  w.U8(domain_bits);
  w.U8(t);
  w.Raw(ByteSpan(seed, kSeedSize));
  WriteCorrectionWords(w, correction_words, output_cw);
  return std::move(w).Take();
}

Result<SubtreeKey> SubtreeKey::Deserialize(ByteSpan data) {
  Reader r(data);
  SubtreeKey key;
  LW_ASSIGN_OR_RETURN(key.party, r.U8());
  if (key.party > 1) return ProtocolError("DPF party must be 0 or 1");
  LW_ASSIGN_OR_RETURN(key.domain_bits, r.U8());
  if (key.domain_bits > kMaxDomainBits) {
    return ProtocolError("subtree domain_bits out of range");
  }
  LW_ASSIGN_OR_RETURN(key.t, r.U8());
  if (key.t > 1) return ProtocolError("control bit must be 0 or 1");
  LW_ASSIGN_OR_RETURN(Bytes seed, r.Raw(kSeedSize));
  std::memcpy(key.seed, seed.data(), kSeedSize);
  LW_RETURN_IF_ERROR(ReadCorrectionWords(r, key.domain_bits,
                                         key.correction_words, key.output_cw));
  LW_RETURN_IF_ERROR(r.ExpectEnd());
  return key;
}

// ------------------------------------------------------------- generation

KeyPair Generate(LW_SECRET std::uint64_t alpha, int domain_bits) {
  LW_CHECK_MSG(CheckDomainBits(domain_bits).ok(), "invalid domain_bits");
  LW_CHECK_MSG(alpha < (std::uint64_t{1} << domain_bits),
               "alpha outside domain");
  const int levels = TreeDepth(domain_bits);

  KeyPair pair;
  pair.key0.party = 0;
  pair.key1.party = 1;
  pair.key0.domain_bits = static_cast<std::uint8_t>(domain_bits);
  pair.key1.domain_bits = static_cast<std::uint8_t>(domain_bits);
  SecureRandomBytes(MutableByteSpan(pair.key0.root_seed, kSeedSize));
  SecureRandomBytes(MutableByteSpan(pair.key1.root_seed, kSeedSize));
  pair.key0.correction_words.resize(static_cast<std::size_t>(levels));
  pair.key1.correction_words.resize(static_cast<std::size_t>(levels));

  std::uint8_t s0[kSeedSize], s1[kSeedSize];
  std::memcpy(s0, pair.key0.root_seed, kSeedSize);
  std::memcpy(s1, pair.key1.root_seed, kSeedSize);
  std::uint8_t t0 = 0, t1 = 1;

  for (int level = 0; level < levels; ++level) {
    std::uint8_t l0[kSeedSize], r0[kSeedSize], l1[kSeedSize], r1[kSeedSize];
    std::uint8_t tl0, tr0, tl1, tr1;
    SharedDpfPrg().Expand(s0, l0, r0, &tl0, &tr0);
    SharedDpfPrg().Expand(s1, l1, r1, &tl1, &tr1);

    // Level i consumes bit i of alpha (LSB first; see ExpandToLeafBits).
    const std::uint8_t alpha_bit =
        static_cast<std::uint8_t>((alpha >> level) & 1);

    // The "lose" side (the branch alpha does NOT take) gets a correction
    // that makes the two parties' seeds collapse to equality off-path.
    const std::uint8_t* lose0 = alpha_bit ? l0 : r0;
    const std::uint8_t* lose1 = alpha_bit ? l1 : r1;

    CorrectionWord cw;
    for (std::size_t i = 0; i < kSeedSize; ++i) {
      cw.seed[i] = static_cast<std::uint8_t>(lose0[i] ^ lose1[i]);
    }
    cw.t_left = static_cast<std::uint8_t>(tl0 ^ tl1 ^ alpha_bit ^ 1);
    cw.t_right = static_cast<std::uint8_t>(tr0 ^ tr1 ^ alpha_bit);
    pair.key0.correction_words[static_cast<std::size_t>(level)] = cw;
    pair.key1.correction_words[static_cast<std::size_t>(level)] = cw;

    // Each party advances along the alpha path, applying the correction iff
    // its current control bit is set.
    const std::uint8_t* keep0 = alpha_bit ? r0 : l0;
    const std::uint8_t* keep1 = alpha_bit ? r1 : l1;
    const std::uint8_t keep_t0 = alpha_bit ? tr0 : tl0;
    const std::uint8_t keep_t1 = alpha_bit ? tr1 : tl1;
    const std::uint8_t cw_t_keep = alpha_bit ? cw.t_right : cw.t_left;

    std::uint8_t new_s0[kSeedSize], new_s1[kSeedSize];
    std::memcpy(new_s0, keep0, kSeedSize);
    std::memcpy(new_s1, keep1, kSeedSize);
    MaskedXorSeed(new_s0, cw.seed, t0);
    MaskedXorSeed(new_s1, cw.seed, t1);
    const std::uint8_t new_t0 =
        static_cast<std::uint8_t>(keep_t0 ^ (t0 & cw_t_keep));
    const std::uint8_t new_t1 =
        static_cast<std::uint8_t>(keep_t1 ^ (t1 & cw_t_keep));

    std::memcpy(s0, new_s0, kSeedSize);
    std::memcpy(s1, new_s1, kSeedSize);
    t0 = new_t0;
    t1 = new_t1;
  }

  // At alpha's leaf the parties' control bits differ, so exactly one of
  // them applies the output word there: conv(s0) ^ conv(s1) ^ e_b, where
  // e_b is the unit vector at alpha's output bit b. Off-path leaves have
  // equal seeds and control bits, so their outputs cancel. e_b is built by
  // a sweep over all 128 positions: b is secret, so it may not address.
  const std::uint64_t b = alpha >> levels;
  std::uint64_t e[2] = {0, 0};
  for (std::uint64_t i = 0; i < 2 * 64; ++i) {
    e[i >> 6] |= crypto::ct::EqMask(i, b) & (std::uint64_t{1} << (i & 63));
  }
  std::uint8_t c0[kSeedSize], c1[kSeedSize];
  SharedDpfPrg().ConvertBatch(s0, 1, c0);
  SharedDpfPrg().ConvertBatch(s1, 1, c1);
  for (int half = 0; half < 2; ++half) {
    const std::uint64_t word = lw::LoadLE64(c0 + 8 * half) ^
                               lw::LoadLE64(c1 + 8 * half) ^ e[half];
    lw::StoreLE64(pair.key0.output_cw + 8 * half, word);
    lw::StoreLE64(pair.key1.output_cw + 8 * half, word);
  }
  return pair;
}

// ------------------------------------------------------------- evaluation

std::uint8_t EvalPoint(const DpfKey& key, std::uint64_t x) {
  const int d = key.domain_bits;
  LW_CHECK_MSG(x < (std::uint64_t{1} << d), "x outside domain");
  const int levels = TreeDepth(d);

  std::uint8_t s[kSeedSize];
  std::memcpy(s, key.root_seed, kSeedSize);
  std::uint8_t t = key.party;

  for (int level = 0; level < levels; ++level) {
    std::uint8_t l[kSeedSize], r[kSeedSize];
    std::uint8_t tl, tr;
    SharedDpfPrg().Expand(s, l, r, &tl, &tr);
    const CorrectionWord& cw =
        key.correction_words[static_cast<std::size_t>(level)];
    const std::uint8_t bit = static_cast<std::uint8_t>((x >> level) & 1);
    const std::uint8_t* next = bit ? r : l;
    const std::uint8_t next_t_raw = bit ? tr : tl;
    const std::uint8_t cw_t = bit ? cw.t_right : cw.t_left;
    std::uint8_t new_s[kSeedSize];
    std::memcpy(new_s, next, kSeedSize);
    MaskedXorSeed(new_s, cw.seed, t);
    const std::uint8_t new_t =
        static_cast<std::uint8_t>(next_t_raw ^ (t & cw_t));
    std::memcpy(s, new_s, kSeedSize);
    t = new_t;
  }

  std::uint8_t out[kSeedSize];
  SharedDpfPrg().ConvertBatch(s, 1, out);
  MaskedXorSeed(out, key.output_cw, t);
  const std::uint64_t b = x >> levels;
  return static_cast<std::uint8_t>(
      (lw::LoadLE64(out + 8 * (b >> 6)) >> (b & 63)) & 1);
}

BitVector EvalFull(const DpfKey& key) {
  return ExpandToLeafBits(key.root_seed, key.party,
                          key.correction_words.data(), key.output_cw,
                          key.domain_bits);
}

std::vector<SubtreeKey> SplitForShards(const DpfKey& key, int top_bits) {
  LW_CHECK_MSG(top_bits >= 0 && top_bits <= TreeDepth(key.domain_bits),
               "top_bits out of range");
  const SplitRoots roots = ExpandKeepingSeeds(
      key.root_seed, key.party, key.correction_words.data(), top_bits);
  const std::size_t shards = std::size_t{1} << top_bits;
  const int remaining = key.domain_bits - top_bits;
  const std::vector<CorrectionWord> tail(
      key.correction_words.begin() + top_bits, key.correction_words.end());

  std::vector<SubtreeKey> out(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    out[s].party = key.party;
    out[s].domain_bits = static_cast<std::uint8_t>(remaining);
    std::memcpy(out[s].seed, roots.seeds.data() + s * kSeedSize, kSeedSize);
    out[s].t = roots.ts[s];
    out[s].correction_words = tail;
    std::memcpy(out[s].output_cw, key.output_cw, kSeedSize);
  }
  return out;
}

BitVector EvalSubtree(const SubtreeKey& key) {
  return ExpandToLeafBits(key.seed, key.t, key.correction_words.data(),
                          key.output_cw, key.domain_bits);
}

SplitRoots ExpandRoots(const SubtreeKey& key, int split) {
  LW_CHECK_MSG(split >= 0 && split <= TreeDepth(key.domain_bits),
               "split out of range");
  return ExpandKeepingSeeds(key.seed, key.t, key.correction_words.data(),
                            split);
}

void EvalLeaves(const SubtreeKey& key, int split,
                LW_SECRET const std::uint8_t* seed, std::uint8_t t,
                std::uint64_t* out) {
  LW_CHECK_MSG(split >= 0 && split <= TreeDepth(key.domain_bits),
               "split out of range");
  ExpandLeaves(seed, t, key.correction_words.data() + split,
               TreeDepth(key.domain_bits) - split, key.output_cw, out);
}

}  // namespace lw::dpf
