// DPF tests: correctness over full domains, point/full-eval agreement,
// sharded (distributed) evaluation, serialization, and key-privacy
// structure. Parameterized sweeps cover domain sizes 1..15 bits, on both
// sides of d = kLeafBits, below which the early-terminated tree is just its
// root.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "crypto/portable.h"
#include "crypto/prg.h"
#include "dpf/dpf.h"
#include "util/rand.h"

namespace lw::dpf {
namespace {

// XOR of both parties' bits at x must be the point-function value.
void ExpectPointFunction(const KeyPair& pair, std::uint64_t alpha,
                         std::uint64_t domain) {
  for (std::uint64_t x = 0; x < domain; ++x) {
    const std::uint8_t v =
        EvalPoint(pair.key0, x) ^ EvalPoint(pair.key1, x);
    EXPECT_EQ(v, x == alpha ? 1 : 0) << "x=" << x << " alpha=" << alpha;
  }
}

TEST(Dpf, TinyDomainExhaustive) {
  // Every alpha in a 3-bit domain, every point checked.
  for (std::uint64_t alpha = 0; alpha < 8; ++alpha) {
    ExpectPointFunction(Generate(alpha, 3), alpha, 8);
  }
}

TEST(Dpf, SingleBitDomain) {
  for (std::uint64_t alpha = 0; alpha < 2; ++alpha) {
    ExpectPointFunction(Generate(alpha, 1), alpha, 2);
  }
}

class DpfDomainTest : public ::testing::TestWithParam<int> {};

TEST_P(DpfDomainTest, FullEvalXorIsPointFunction) {
  const int d = GetParam();
  const std::uint64_t domain = std::uint64_t{1} << d;
  Rng rng(static_cast<std::uint64_t>(d) * 7919);
  const std::uint64_t alpha = rng.UniformInt(domain);

  const KeyPair pair = Generate(alpha, d);
  const BitVector b0 = EvalFull(pair.key0);
  const BitVector b1 = EvalFull(pair.key1);
  ASSERT_EQ(b0.size(), (domain + 63) / 64);

  std::uint64_t ones = 0;
  for (std::uint64_t x = 0; x < domain; ++x) {
    const std::uint8_t v = GetBit(b0, x) ^ GetBit(b1, x);
    if (v) {
      EXPECT_EQ(x, alpha);
      ++ones;
    }
  }
  EXPECT_EQ(ones, 1u);
}

TEST_P(DpfDomainTest, EvalPointMatchesEvalFull) {
  const int d = GetParam();
  const std::uint64_t domain = std::uint64_t{1} << d;
  Rng rng(static_cast<std::uint64_t>(d) * 104729);
  const std::uint64_t alpha = rng.UniformInt(domain);
  const KeyPair pair = Generate(alpha, d);
  const BitVector full = EvalFull(pair.key0);
  // Sample points (all points for small domains).
  const std::uint64_t step = domain <= 256 ? 1 : domain / 128;
  for (std::uint64_t x = 0; x < domain; x += step) {
    EXPECT_EQ(EvalPoint(pair.key0, x), GetBit(full, x)) << "x=" << x;
  }
  EXPECT_EQ(EvalPoint(pair.key0, alpha), GetBit(full, alpha));
}

TEST_P(DpfDomainTest, SingleKeyLooksBalanced) {
  // One party's share alone should be a pseudorandom bit vector: roughly
  // half ones, regardless of alpha. (A structural privacy smoke test.)
  const int d = GetParam();
  if (d < 8) return;  // too small for a meaningful balance check
  const std::uint64_t domain = std::uint64_t{1} << d;
  const KeyPair pair = Generate(/*alpha=*/0, d);
  const BitVector b0 = EvalFull(pair.key0);
  std::uint64_t ones = 0;
  for (std::uint64_t x = 0; x < domain; ++x) ones += GetBit(b0, x);
  EXPECT_GT(ones, domain * 40 / 100);
  EXPECT_LT(ones, domain * 60 / 100);
}

INSTANTIATE_TEST_SUITE_P(Domains, DpfDomainTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 10, 12, 14));

TEST(Dpf, AlphaAtDomainEdges) {
  const int d = 10;
  const std::uint64_t domain = std::uint64_t{1} << d;
  for (std::uint64_t alpha : {std::uint64_t{0}, domain - 1, domain / 2}) {
    const KeyPair pair = Generate(alpha, d);
    const BitVector b0 = EvalFull(pair.key0);
    const BitVector b1 = EvalFull(pair.key1);
    for (std::uint64_t x = 0; x < domain; ++x) {
      EXPECT_EQ(GetBit(b0, x) ^ GetBit(b1, x), x == alpha ? 1 : 0);
    }
  }
}

TEST(Dpf, FreshKeysDiffer) {
  const KeyPair a = Generate(5, 8);
  const KeyPair b = Generate(5, 8);
  // Same alpha, fresh randomness: serialized keys must differ.
  EXPECT_NE(a.key0.Serialize(), b.key0.Serialize());
}

TEST(Dpf, KeySizeIndependentOfAlpha) {
  // (λ+2)·(d−7) + 2λ-bit keys: size must leak nothing about alpha (paper
  // §5.1).
  const auto size_for = [](std::uint64_t alpha) {
    return Generate(alpha, 22).key0.Serialize().size();
  };
  const std::size_t s = size_for(0);
  EXPECT_EQ(s, size_for(123456));
  EXPECT_EQ(s, size_for((1u << 22) - 1));
  // 2 bytes header + 16-byte seed + (d−7) * 17 bytes + 16-byte output word.
  EXPECT_EQ(s, 2 + 16 + 15 * 17 + 16);
}

TEST(Dpf, SerializeDeserializeRoundTrip) {
  const KeyPair pair = Generate(99, 12);
  for (const DpfKey* key : {&pair.key0, &pair.key1}) {
    const Bytes wire = key->Serialize();
    EXPECT_EQ(wire.size(), key->SerializedSize());
    auto parsed = DpfKey::Deserialize(wire);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_TRUE(*parsed == *key);
  }
}

TEST(Dpf, DeserializedKeyEvaluatesIdentically) {
  const KeyPair pair = Generate(777, 11);
  const Bytes wire = pair.key1.Serialize();
  const DpfKey parsed = DpfKey::Deserialize(wire).value();
  const BitVector original = EvalFull(pair.key1);
  const BitVector reparsed = EvalFull(parsed);
  EXPECT_EQ(original, reparsed);
}

TEST(Dpf, DeserializeRejectsGarbage) {
  EXPECT_FALSE(DpfKey::Deserialize(Bytes{}).ok());
  EXPECT_FALSE(DpfKey::Deserialize(Bytes(5, 0xab)).ok());
  // Valid prefix but truncated correction words.
  Bytes wire = Generate(3, 8).key0.Serialize();
  wire.resize(wire.size() - 4);
  EXPECT_FALSE(DpfKey::Deserialize(wire).ok());
  // Trailing garbage.
  Bytes wire2 = Generate(3, 8).key0.Serialize();
  wire2.push_back(0);
  EXPECT_FALSE(DpfKey::Deserialize(wire2).ok());
  // Bad party byte.
  Bytes wire3 = Generate(3, 8).key0.Serialize();
  wire3[0] = 9;
  EXPECT_FALSE(DpfKey::Deserialize(wire3).ok());
}

TEST(Dpf, DeserializeRejectsOutOfRangeDomainBits) {
  // Pre-fix, domain_bits outside [1, kMaxDomainBits] deserialized fine and
  // blew up later: 0 made EvalFull return an empty vector others indexed
  // into, 41+ asked for a 2^41-bit allocation from attacker-chosen input.
  // party 0, domain_bits 0, root seed, no CWs, output word.
  const Bytes zero_bits(2 + 2 * kSeedSize, 0);
  EXPECT_FALSE(DpfKey::Deserialize(zero_bits).ok()) << "domain_bits 0";

  Bytes too_big;
  too_big.push_back(0);   // party
  too_big.push_back(41);  // domain_bits > kMaxDomainBits
  too_big.resize(too_big.size() + kSeedSize);             // root seed
  too_big.resize(too_big.size() + 34 * (kSeedSize + 1));  // 41 - 7 CWs
  too_big.resize(too_big.size() + kSeedSize);             // output word
  EXPECT_FALSE(DpfKey::Deserialize(too_big).ok()) << "domain_bits 41";
}

TEST(Dpf, DeserializeRejectsBadCorrectionWordBits) {
  // The per-level t-bit pair packs into 2 bits; anything above 3 means the
  // bytes were not produced by Serialize().
  Bytes wire = Generate(3, 9).key0.Serialize();
  ASSERT_TRUE(DpfKey::Deserialize(wire).ok());
  // The last CW's packed bits sit just before the 16-byte output word.
  wire[wire.size() - kSeedSize - 1] = 4;
  EXPECT_FALSE(DpfKey::Deserialize(wire).ok());
}

TEST(Dpf, GenerateRejectsBadArguments) {
  EXPECT_THROW(Generate(0, 0), InvariantViolation);
  EXPECT_THROW(Generate(0, 99), InvariantViolation);
  EXPECT_THROW(Generate(1u << 8, 8), InvariantViolation);  // alpha too big
}

// ----------------------------------------------------- distributed eval

class DpfShardTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DpfShardTest, ShardedEvalMatchesFullEval) {
  const auto [d, top_bits] = GetParam();
  const std::uint64_t domain = std::uint64_t{1} << d;
  Rng rng(static_cast<std::uint64_t>(d * 31 + top_bits));
  const std::uint64_t alpha = rng.UniformInt(domain);
  const KeyPair pair = Generate(alpha, d);

  for (const DpfKey* key : {&pair.key0, &pair.key1}) {
    const BitVector full = EvalFull(*key);
    const std::vector<SubtreeKey> shards = SplitForShards(*key, top_bits);
    ASSERT_EQ(shards.size(), std::uint64_t{1} << top_bits);

    // Shard s covers the residue class x ≡ s (mod #shards); its leaf j is
    // the point x = s + (j << top_bits).
    const std::uint64_t per_shard = domain >> top_bits;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      const BitVector sub = EvalSubtree(shards[s]);
      for (std::uint64_t j = 0; j < per_shard; ++j) {
        EXPECT_EQ(GetBit(sub, j), GetBit(full, s + (j << top_bits)))
            << "shard " << s << " leaf " << j;
      }
    }
  }
}

// Every split sits inside the tree: top_bits <= TreeDepth(d) = d - 7.
INSTANTIATE_TEST_SUITE_P(
    Splits, DpfShardTest,
    ::testing::Values(std::tuple{8, 0}, std::tuple{8, 1}, std::tuple{10, 3},
                      std::tuple{15, 8}, std::tuple{12, 4},
                      std::tuple{14, 6}));

TEST(DpfShard, SplitBelowTheTreeThrows) {
  // The tree ends kLeafBits above the domain; splitting any deeper would
  // cut through a converted leaf.
  const KeyPair pair = Generate(5, 10);
  EXPECT_THROW(SplitForShards(pair.key0, 4), InvariantViolation);
  EXPECT_THROW(SplitForShards(pair.key0, 10), InvariantViolation);
  EXPECT_THROW(SplitForShards(pair.key0, -1), InvariantViolation);
  EXPECT_THROW(SplitForShards(Generate(5, 6).key0, 1), InvariantViolation);
  EXPECT_EQ(SplitForShards(pair.key0, 3).size(), 8u);
  EXPECT_EQ(SplitForShards(Generate(5, 6).key0, 0).size(), 1u);
}

TEST(DpfShard, TwoPartyShardedStillPointFunction) {
  // Shard both parties' keys, evaluate shard-wise, and confirm the XOR is
  // still the point function (this is the §5.2 deployment path).
  const int d = 10, top = 3;
  const std::uint64_t alpha = 421;
  const KeyPair pair = Generate(alpha, d);
  const auto shards0 = SplitForShards(pair.key0, top);
  const auto shards1 = SplitForShards(pair.key1, top);
  const std::uint64_t per_shard = std::uint64_t{1} << (d - top);

  std::uint64_t ones = 0;
  for (std::size_t s = 0; s < shards0.size(); ++s) {
    const BitVector b0 = EvalSubtree(shards0[s]);
    const BitVector b1 = EvalSubtree(shards1[s]);
    for (std::uint64_t j = 0; j < per_shard; ++j) {
      const std::uint8_t v = GetBit(b0, j) ^ GetBit(b1, j);
      if (v) {
        EXPECT_EQ(s + (j << top), alpha);
        ++ones;
      }
    }
  }
  EXPECT_EQ(ones, 1u);
}

TEST(DpfShard, SubtreeKeySerializationRoundTrip) {
  const KeyPair pair = Generate(100, 11);
  const auto shards = SplitForShards(pair.key0, 4);
  for (const SubtreeKey& sk : shards) {
    const Bytes wire = sk.Serialize();
    EXPECT_EQ(wire.size(), sk.SerializedSize());
    auto parsed = SubtreeKey::Deserialize(wire);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(EvalSubtree(*parsed), EvalSubtree(sk));
  }
}

TEST(DpfShard, SubtreeKeySmallerThanFullKey) {
  // The per-shard key the front-end ships is smaller than the client's key:
  // that is the point of the §5.2 tree split.
  const KeyPair pair = Generate(7, 22);
  const auto shards = SplitForShards(pair.key0, 8);
  EXPECT_LT(shards[0].SerializedSize(), pair.key0.SerializedSize());
}

// ------------------------------------------------- exhaustive small domains
//
// Every alpha, every point, every evaluator: EvalPoint, EvalFull and each
// legal split's EvalSubtree must agree bit for bit, and the two parties'
// shares must XOR to the point function. d runs across kLeafBits, so this
// covers trees of depth 0 (one converted root), 1 and 2, where leaves fill
// less than one output word.

TEST(DpfExhaustive, EveryAlphaEveryPointEveryEvaluator) {
  for (int d = 1; d <= 9; ++d) {
    const std::uint64_t domain = std::uint64_t{1} << d;
    for (std::uint64_t alpha = 0; alpha < domain; ++alpha) {
      const KeyPair pair = Generate(alpha, d);
      const BitVector full0 = EvalFull(pair.key0);
      const BitVector full1 = EvalFull(pair.key1);
      for (std::uint64_t x = 0; x < domain; ++x) {
        const std::uint8_t b0 = GetBit(full0, x);
        const std::uint8_t b1 = GetBit(full1, x);
        ASSERT_EQ(EvalPoint(pair.key0, x), b0) << "d=" << d << " x=" << x;
        ASSERT_EQ(EvalPoint(pair.key1, x), b1) << "d=" << d << " x=" << x;
        ASSERT_EQ(b0 ^ b1, x == alpha ? 1 : 0)
            << "d=" << d << " alpha=" << alpha << " x=" << x;
      }
      for (int top = 0; top <= TreeDepth(d); ++top) {
        for (const auto& [key, full] :
             {std::pair{&pair.key0, &full0}, std::pair{&pair.key1, &full1}}) {
          const std::vector<SubtreeKey> shards = SplitForShards(*key, top);
          for (std::size_t s = 0; s < shards.size(); ++s) {
            const BitVector sub = EvalSubtree(shards[s]);
            for (std::uint64_t j = 0; j < (domain >> top); ++j) {
              ASSERT_EQ(GetBit(sub, j), GetBit(*full, s + (j << top)))
                  << "d=" << d << " top=" << top << " shard " << s;
            }
          }
        }
      }
    }
  }
}

// ------------------------------------------------------- leaf evaluator
//
// The scan's evaluator (EvalLeaves) writes each leaf's 128 output bits as
// two words, untransposed, below one of a key's split roots. For every d in
// 1..12, every split t <= TreeDepth(d) and both parties, its bit for every
// point must equal EvalPoint's, and the two parties' leaves must XOR to the
// unit vector at alpha.

// Leaves of every split root of `key`, bucket s at out[s].
std::vector<std::vector<std::uint64_t>> AllLeaves(const SubtreeKey& key,
                                                  int split) {
  const SplitRoots roots = ExpandRoots(key, split);
  EXPECT_EQ(roots.ts.size(), std::size_t{1} << split);
  EXPECT_EQ(roots.seeds.size(), kSeedSize << split);
  std::vector<std::vector<std::uint64_t>> out;
  for (std::size_t s = 0; s < roots.ts.size(); ++s) {
    out.emplace_back(std::size_t{2} << (TreeDepth(key.domain_bits) - split));
    EvalLeaves(key, split, roots.seeds.data() + s * kSeedSize, roots.ts[s],
               out.back().data());
  }
  return out;
}

TEST(DpfLeaves, EveryPointEverySplitMatchesEvalPoint) {
  Rng rng(17);
  for (int d = 1; d <= 12; ++d) {
    const std::uint64_t domain = std::uint64_t{1} << d;
    const std::uint64_t alpha = rng.UniformInt(domain);
    const KeyPair pair = Generate(alpha, d);
    const SubtreeKey roots[2] = {SplitForShards(pair.key0, 0).front(),
                                 SplitForShards(pair.key1, 0).front()};
    for (int split = 0; split <= TreeDepth(d); ++split) {
      const int levels = TreeDepth(d) - split;
      const auto leaves0 = AllLeaves(roots[0], split);
      const auto leaves1 = AllLeaves(roots[1], split);
      for (std::uint64_t x = 0; x < domain; ++x) {
        const std::uint64_t s = x & ((std::uint64_t{1} << split) - 1);
        const std::uint64_t j = x >> split;
        const std::uint8_t b0 = LeafBit(leaves0[s].data(), levels, j);
        const std::uint8_t b1 = LeafBit(leaves1[s].data(), levels, j);
        ASSERT_EQ(b0, EvalPoint(pair.key0, x))
            << "d=" << d << " split=" << split << " x=" << x;
        ASSERT_EQ(b1, EvalPoint(pair.key1, x))
            << "d=" << d << " split=" << split << " x=" << x;
        ASSERT_EQ(b0 ^ b1, x == alpha ? 1 : 0)
            << "d=" << d << " split=" << split << " x=" << x;
      }
    }
  }
}

// The shard path: a sub-tree key from SplitForShards, split again into its
// buckets, must give the same bits as EvalPoint on the client's key.
TEST(DpfLeaves, SubtreeKeysMatchEvalPointBelowTheShardSplit) {
  Rng rng(23);
  for (int d = 1; d <= 12; ++d) {
    const std::uint64_t domain = std::uint64_t{1} << d;
    const std::uint64_t alpha = rng.UniformInt(domain);
    const KeyPair pair = Generate(alpha, d);
    for (int top = 0; top <= TreeDepth(d); ++top) {
      const std::vector<SubtreeKey> shards[2] = {SplitForShards(pair.key0, top),
                                                 SplitForShards(pair.key1, top)};
      const int sub_d = d - top;
      for (int split = 0; split <= TreeDepth(sub_d); ++split) {
        const int levels = TreeDepth(sub_d) - split;
        for (std::size_t r = 0; r < shards[0].size(); ++r) {
          const auto leaves0 = AllLeaves(shards[0][r], split);
          const auto leaves1 = AllLeaves(shards[1][r], split);
          for (std::uint64_t y = 0; y < (domain >> top); ++y) {
            const std::uint64_t x = r + (y << top);
            const std::uint64_t s = y & ((std::uint64_t{1} << split) - 1);
            const std::uint8_t b0 =
                LeafBit(leaves0[s].data(), levels, y >> split);
            const std::uint8_t b1 =
                LeafBit(leaves1[s].data(), levels, y >> split);
            ASSERT_EQ(b0, EvalPoint(pair.key0, x))
                << "d=" << d << " top=" << top << " split=" << split
                << " x=" << x;
            ASSERT_EQ(b1, EvalPoint(pair.key1, x))
                << "d=" << d << " top=" << top << " split=" << split
                << " x=" << x;
            ASSERT_EQ(b0 ^ b1, x == alpha ? 1 : 0)
                << "d=" << d << " top=" << top << " split=" << split
                << " x=" << x;
          }
        }
      }
    }
  }
}

TEST(DpfLeaves, SplitOutsideTheTreeThrows) {
  const KeyPair pair = Generate(3, 10);
  const SubtreeKey root = SplitForShards(pair.key0, 0).front();
  EXPECT_THROW(ExpandRoots(root, TreeDepth(10) + 1), InvariantViolation);
  EXPECT_THROW(ExpandRoots(root, -1), InvariantViolation);
  std::vector<std::uint64_t> out(2);
  EXPECT_THROW(EvalLeaves(root, TreeDepth(10) + 1, root.seed, root.t,
                          out.data()),
               InvariantViolation);
}

// The PRG's level and leaf kernels against their portable bodies, on random
// seeds, control bits and corrections: on an AES-NI host the dispatched
// kernels run the hardware rounds, and the portable ones (what a CPU without
// AES-NI runs) must give the same bytes.
TEST(DpfPrgPortable, ExpandLevelMatchesDispatchedKernel) {
  const crypto::DpfPrg& prg = crypto::SharedDpfPrg();
  Rng rng(4242);
  for (std::size_t n = 1; n <= 41; ++n) {
    Bytes seeds(n * crypto::kPrgSeedSize), ts(n), cw(crypto::kPrgSeedSize);
    rng.Fill(seeds);
    rng.Fill(cw);
    for (auto& t : ts) t = static_cast<std::uint8_t>(rng.Next() & 1);
    const auto cw_t_left = static_cast<std::uint8_t>(rng.Next() & 1);
    const auto cw_t_right = static_cast<std::uint8_t>(rng.Next() & 1);
    Bytes want(2 * seeds.size()), want_t(2 * n);
    Bytes got(2 * seeds.size()), got_t(2 * n);
    prg.ExpandLevel(seeds.data(), ts.data(), n, cw.data(), cw_t_left,
                    cw_t_right, want.data(), want_t.data());
    crypto::portable::DpfExpandLevel(prg, seeds.data(), ts.data(), n,
                                     cw.data(), cw_t_left, cw_t_right,
                                     got.data(), got_t.data());
    EXPECT_EQ(got, want) << "n=" << n;
    EXPECT_EQ(got_t, want_t) << "n=" << n;
  }
}

TEST(DpfPrgPortable, ConvertLeavesMatchesDispatchedKernel) {
  const crypto::DpfPrg& prg = crypto::SharedDpfPrg();
  Rng rng(4243);
  for (std::size_t n = 1; n <= 41; ++n) {
    Bytes seeds(n * crypto::kPrgSeedSize), ts(n), cw(crypto::kPrgSeedSize);
    rng.Fill(seeds);
    rng.Fill(cw);
    for (auto& t : ts) t = static_cast<std::uint8_t>(rng.Next() & 1);
    std::vector<std::uint64_t> want(2 * n), got(2 * n);
    prg.ConvertLeaves(seeds.data(), ts.data(), n, cw.data(), want.data());
    crypto::portable::DpfConvertLeaves(prg, seeds.data(), ts.data(), n,
                                       cw.data(), got.data());
    EXPECT_EQ(got, want) << "n=" << n;
  }
}

}  // namespace
}  // namespace lw::dpf
