// PIR layer tests: blob database scans (single + batched), end-to-end
// two-server retrieval, record packing and keyword mapping/collisions.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "obs/metrics.h"
#include "pir/blob_db.h"
#include "pir/keyword.h"
#include "pir/packing.h"
#include "pir/two_server.h"
#include "util/alloc.h"
#include "util/rand.h"
#include "util/thread_pool.h"

namespace lw::pir {
namespace {

Bytes RecordOf(std::uint8_t fill, std::size_t size) {
  return Bytes(size, fill);
}

// A DPF key as its root sub-tree key, the form the pass takes.
dpf::SubtreeKey Root(const dpf::DpfKey& key) {
  return dpf::SplitForShards(key, 0).front();
}

std::vector<dpf::SubtreeKey> Roots(const std::vector<dpf::DpfKey>& keys) {
  std::vector<dpf::SubtreeKey> roots;
  for (const dpf::DpfKey& key : keys) roots.push_back(Root(key));
  return roots;
}

// One query's pass over db.
Bytes AnswerOne(const BlobDatabase& db, const dpf::DpfKey& key,
                ThreadPool* pool = nullptr) {
  std::vector<Bytes> answers;
  db.AnswerBatch({Root(key)}, answers, pool);
  return answers.front();
}

// The two-party answer for `index`: both keys' passes, combined.
Bytes Retrieve(const BlobDatabase& db, std::uint64_t index) {
  const QueryKeys q = MakeIndexQuery(index, db.domain_bits());
  return CombineAnswers(AnswerOne(db, q.key0), AnswerOne(db, q.key1)).value();
}

// A fresh party-0 key whose EvalPoint bits at `points` are `bits`: keys
// are random, so a few draws find one.
dpf::DpfKey KeyWithBits(int d, const std::vector<std::uint64_t>& points,
                        const std::vector<std::uint8_t>& bits) {
  for (int attempt = 0; attempt < 10000; ++attempt) {
    dpf::DpfKey key = dpf::Generate(0, d).key0;
    bool match = true;
    for (std::size_t i = 0; i < points.size(); ++i) {
      match = match && dpf::EvalPoint(key, points[i]) == bits[i];
    }
    if (match) return key;
  }
  ADD_FAILURE() << "no key with the wanted bits";
  return dpf::Generate(0, d).key0;
}

// Reference answer, independent of the pass: the XOR of Get over every
// stored index whose EvalPoint bit under `key` is 1. It XORs 64-bit words,
// so large records stay cheap in sanitizer builds.
Bytes ReferenceAnswer(const BlobDatabase& db,
                      const std::set<std::uint64_t>& stored,
                      const dpf::DpfKey& key) {
  Bytes out(db.record_size(), 0);
  for (const std::uint64_t index : stored) {
    if (dpf::EvalPoint(key, index) == 0) continue;
    const Bytes rec = db.Get(index).value();
    std::size_t i = 0;
    for (; i + 8 <= out.size(); i += 8) {
      StoreLE64(out.data() + i,
                LoadLE64(out.data() + i) ^ LoadLE64(rec.data() + i));
    }
    for (; i < out.size(); ++i) out[i] ^= rec[i];
  }
  return out;
}

// --------------------------------------------------------------- BlobDb

TEST(BlobDb, InsertGetRemove) {
  BlobDatabase db(8, 32);
  ASSERT_TRUE(db.Insert(3, RecordOf(0xaa, 32)).ok());
  ASSERT_TRUE(db.Insert(200, RecordOf(0xbb, 32)).ok());
  EXPECT_EQ(db.record_count(), 2u);
  EXPECT_TRUE(db.Contains(3));
  EXPECT_EQ(db.Get(3).value(), RecordOf(0xaa, 32));
  EXPECT_EQ(db.Get(200).value(), RecordOf(0xbb, 32));
  EXPECT_FALSE(db.Get(4).ok());
  ASSERT_TRUE(db.Remove(3).ok());
  EXPECT_FALSE(db.Contains(3));
  EXPECT_EQ(db.Get(200).value(), RecordOf(0xbb, 32));  // survivor intact
  EXPECT_FALSE(db.Remove(3).ok());
}

TEST(BlobDb, InsertRejectsDuplicateIndex) {
  BlobDatabase db(8, 16);
  ASSERT_TRUE(db.Insert(7, RecordOf(1, 16)).ok());
  const Status s = db.Insert(7, RecordOf(2, 16));
  EXPECT_EQ(s.code(), StatusCode::kCollision);
}

TEST(BlobDb, InsertRejectsBadSizes) {
  BlobDatabase db(8, 16);
  EXPECT_EQ(db.Insert(1, RecordOf(0, 15)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.Insert(256, RecordOf(0, 16)).code(),
            StatusCode::kInvalidArgument);  // outside 2^8 domain
}

TEST(BlobDb, UpdateAndUpsert) {
  BlobDatabase db(8, 16);
  EXPECT_FALSE(db.Update(5, RecordOf(1, 16)).ok());
  ASSERT_TRUE(db.Upsert(5, RecordOf(1, 16)).ok());
  ASSERT_TRUE(db.Upsert(5, RecordOf(2, 16)).ok());
  EXPECT_EQ(db.Get(5).value(), RecordOf(2, 16));
  EXPECT_EQ(db.record_count(), 1u);
}

TEST(BlobDb, AnswerSelectsExactlyMarkedRows) {
  BlobDatabase db(6, 24);
  Rng rng(42);
  for (std::uint64_t i = 0; i < 64; i += 2) {
    Bytes rec(24);
    rng.Fill(rec);
    ASSERT_TRUE(db.Insert(i, rec).ok());
  }
  // The two parties' passes select every row alike but index 10's.
  EXPECT_EQ(Retrieve(db, 10), db.Get(10).value());
  EXPECT_EQ(Retrieve(db, 11), RecordOf(0, 24));  // unoccupied
}

TEST(BlobDb, AnswerXorsMultipleRows) {
  BlobDatabase db(6, 8);
  ASSERT_TRUE(db.Insert(1, RecordOf(0x0f, 8)).ok());
  ASSERT_TRUE(db.Insert(2, RecordOf(0xf0, 8)).ok());
  const dpf::DpfKey both = KeyWithBits(6, {1, 2}, {1, 1});
  EXPECT_EQ(AnswerOne(db, both), RecordOf(0xff, 8));
  const dpf::DpfKey second = KeyWithBits(6, {1, 2}, {0, 1});
  EXPECT_EQ(AnswerOne(db, second), RecordOf(0xf0, 8));
}

TEST(BlobDb, EmptyBitsGiveZeroAnswer) {
  BlobDatabase db(6, 8);
  ASSERT_TRUE(db.Insert(1, RecordOf(0xaa, 8)).ok());
  const dpf::DpfKey none = KeyWithBits(6, {1}, {0});
  // The callee overwrites whatever the answers held.
  std::vector<Bytes> answers(3, RecordOf(0xcc, 8));
  db.AnswerBatch({Root(none)}, answers);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0], RecordOf(0, 8));
  // So does a pass over an empty database.
  BlobDatabase empty(6, 8);
  answers.assign(2, RecordOf(0xcc, 8));
  empty.AnswerBatch({Root(none), Root(none)}, answers);
  EXPECT_EQ(answers, std::vector<Bytes>(2, RecordOf(0, 8)));
}

// lw_scan_row_xors_total counts one XOR per row and non-zero group
// pattern: rows selected by four queries of one group cost one XOR, not
// four, and a group whose queries skip the row costs none.
TEST(BlobDb, ScanCountsOneRowXorPerSelectingGroup) {
  BlobDatabase db(6, 8);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(db.Insert(i, RecordOf(static_cast<std::uint8_t>(i), 8)).ok());
  }
  const dpf::DpfKey key = dpf::Generate(3, 6).key0;
  const auto selected = [&](const dpf::DpfKey& k) {
    std::uint64_t n = 0;
    for (std::uint64_t i = 0; i < 10; ++i) n += dpf::EvalPoint(k, i);
    return n;
  };
  std::vector<Bytes> answers;
  obs::Counter& row_xors = obs::M().scan_row_xors;

  // Four copies of one key, then a key that selects none of the rows: the
  // first group XORs each row its key selects once, the second none.
  const dpf::DpfKey none = KeyWithBits(
      6, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, std::vector<std::uint8_t>(10, 0));
  std::uint64_t before = row_xors.Value();
  db.AnswerBatch(Roots({key, key, key, key, none}), answers);
  EXPECT_EQ(row_xors.Value() - before, selected(key));
  EXPECT_EQ(answers[0], answers[3]);
  EXPECT_EQ(answers[4], RecordOf(0, 8));

  // Five copies: two groups, each XORs the selected rows once.
  before = row_xors.Value();
  db.AnswerBatch(Roots({key, key, key, key, key}), answers);
  EXPECT_EQ(row_xors.Value() - before, 2 * selected(key));

  // Random keys: per row, one XOR per group with a non-zero pattern.
  std::vector<dpf::DpfKey> keys;
  for (int q = 0; q < 6; ++q) keys.push_back(dpf::Generate(q, 6).key1);
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < 10; ++i) {
    for (std::size_t g = 0; g < keys.size(); g += 4) {
      std::uint8_t any = 0;
      for (std::size_t q = g; q < std::min(keys.size(), g + 4); ++q) {
        any |= dpf::EvalPoint(keys[q], i);
      }
      expected += any;
    }
  }
  before = row_xors.Value();
  db.AnswerBatch(Roots(keys), answers);
  EXPECT_EQ(row_xors.Value() - before, expected);

  before = row_xors.Value();
  db.AnswerBatch({Root(none)}, answers);
  EXPECT_EQ(row_xors.Value() - before, 0u);
}

// Every pass reads its selection bits from row-order planes of ⌈rows/64⌉
// words. Buckets whose last plane word is partial (63 rows), exactly full
// (64), or one row past full (65, 129) must still answer every query
// exactly, batched or alone, including the two-party query for the last
// row. At d = 10 the database is one bucket.
TEST(BlobDb, BatchSelectsRowsAcrossPlaneWordEdges) {
  constexpr int kDomainBits = 10;
  constexpr std::size_t kRecordSize = 40;
  for (const std::uint64_t rows : {63u, 64u, 65u, 129u}) {
    BlobDatabase db(kDomainBits, kRecordSize);
    ASSERT_EQ(db.bucket_bits(), 0);
    Rng rng(rows);
    // An odd multiplier permutes the domain, so row order is not index
    // order.
    const auto index_of_row = [](std::uint64_t row) {
      return (row * 389) % (std::uint64_t{1} << kDomainBits);
    };
    std::set<std::uint64_t> stored;
    for (std::uint64_t row = 0; row < rows; ++row) {
      Bytes rec(kRecordSize);
      rng.Fill(rec);
      ASSERT_TRUE(db.Insert(index_of_row(row), rec).ok());
      stored.insert(index_of_row(row));
    }
    const std::uint64_t last = index_of_row(rows - 1);
    const QueryKeys target = MakeIndexQuery(last, kDomainBits);
    std::vector<dpf::DpfKey> party[2] = {{target.key0}, {target.key1}};
    for (std::uint64_t q = 1; q < 5; ++q) {
      const QueryKeys other = MakeIndexQuery(rng.UniformInt(1024), kDomainBits);
      party[0].push_back(other.key0);
      party[1].push_back(other.key1);
    }
    std::vector<Bytes> answers[2];
    for (int side = 0; side < 2; ++side) {
      db.AnswerBatch(Roots(party[side]), answers[side]);
      ASSERT_EQ(answers[side].size(), party[side].size());
      for (std::size_t q = 0; q < party[side].size(); ++q) {
        const Bytes expected = ReferenceAnswer(db, stored, party[side][q]);
        EXPECT_EQ(answers[side][q], expected)
            << "query " << q << " rows=" << rows;
        EXPECT_EQ(AnswerOne(db, party[side][q]), expected)
            << "alone, query " << q << " rows=" << rows;
      }
    }
    EXPECT_EQ(CombineAnswers(answers[0][0], answers[1][0]).value(),
              db.Get(last).value())
        << "rows=" << rows;
  }
}

// lw_scan_project_ns_total adds each pass's gather of selection bits from
// the DPF leaves once: every pass, single-query or batched, gathers its
// queries' bits before it sweeps, and on a serial pass that time is part of
// the pass's lw_scan_busy_ns_total.
TEST(BlobDb, ScanProjectionTimeIsPartOfEveryPass) {
  BlobDatabase db(10, 64);
  for (std::uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(db.Insert(i * 2, RecordOf(static_cast<std::uint8_t>(i), 64))
                    .ok());
  }
  const dpf::DpfKey key = dpf::Generate(5, 10).key0;
  obs::Counter& project_ns = obs::M().scan_project_ns;
  obs::Counter& busy_ns = obs::M().scan_busy_ns;

  std::uint64_t project_before = project_ns.Value();
  std::uint64_t busy_before = busy_ns.Value();
  (void)AnswerOne(db, key);
  EXPECT_GT(project_ns.Value() - project_before, 0u);
  EXPECT_LE(project_ns.Value() - project_before,
            busy_ns.Value() - busy_before);

  project_before = project_ns.Value();
  busy_before = busy_ns.Value();
  std::vector<Bytes> answers;
  db.AnswerBatch(Roots({key, key}), answers);
  EXPECT_GT(project_ns.Value() - project_before, 0u);
  EXPECT_LE(project_ns.Value() - project_before,
            busy_ns.Value() - busy_before);
}

TEST(BlobDb, XorBytesAllLengths) {
  Rng rng(7);
  for (std::size_t n : {0u, 1u, 7u, 8u, 31u, 32u, 33u, 100u, 4096u}) {
    Bytes a(n), b(n);
    rng.Fill(a);
    rng.Fill(b);
    Bytes expected(n);
    for (std::size_t i = 0; i < n; ++i) expected[i] = a[i] ^ b[i];
    XorBytes(a.data(), b.data(), n);
    EXPECT_EQ(a, expected) << "n=" << n;
  }
}

TEST(BlobDb, XorBytesMisalignedOffsets) {
  // The kernel picks an aligned fast path when both pointers are 32-byte
  // aligned; every misaligned combination must produce the same bytes.
  Rng rng(11);
  AlignedBytes dst_buf(4096 + 64), src_buf(4096 + 64);
  for (const std::size_t dst_off : {0u, 1u, 8u, 31u, 32u, 33u}) {
    for (const std::size_t src_off : {0u, 1u, 8u, 31u, 32u, 33u}) {
      const std::size_t n = 1000;
      rng.Fill(MutableByteSpan(dst_buf.data(), dst_buf.size()));
      rng.Fill(MutableByteSpan(src_buf.data(), src_buf.size()));
      Bytes expected(n);
      for (std::size_t i = 0; i < n; ++i) {
        expected[i] = dst_buf[dst_off + i] ^ src_buf[src_off + i];
      }
      XorBytes(dst_buf.data() + dst_off, src_buf.data() + src_off, n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(dst_buf[dst_off + i], expected[i])
            << "dst_off=" << dst_off << " src_off=" << src_off << " i=" << i;
      }
    }
  }
}

// ----------------------------------------------------------- xor kernels

// Pins the active XOR tier for one test and restores it on exit, so tier
// equivalence tests cannot leak a pinned tier into later tests.
class ScopedXorTier {
 public:
  ScopedXorTier() : saved_(ActiveXorTier()) {}
  ~ScopedXorTier() { SetXorTier(saved_); }

 private:
  XorTier saved_;
};

TEST(XorKernel, ScalarTierIsAlwaysAvailable) {
  ScopedXorTier restore;
  EXPECT_TRUE(SetXorTier(XorTier::kScalar));
  EXPECT_EQ(ActiveXorTier(), XorTier::kScalar);
}

TEST(XorKernel, AllSupportedTiersProduceIdenticalBytes) {
  // The runtime dispatch means different hosts execute different code for
  // the same scan; every tier this host can run must agree with the scalar
  // reference on every length/alignment combination, or answers would
  // depend on the fleet's CPU mix. Unsupported tiers are skipped (that IS
  // the graceful-fallback contract on AVX2-only or non-x86 hosts).
  ScopedXorTier restore;
  Rng rng(99);
  for (const XorTier tier :
       {XorTier::kScalar, XorTier::kAvx2, XorTier::kAvx512}) {
    if (!SetXorTier(tier)) {
      EXPECT_LT(static_cast<int>(BestSupportedXorTier()),
                static_cast<int>(tier))
          << "SetXorTier refused a tier detection claims is supported";
      continue;
    }
    ASSERT_EQ(ActiveXorTier(), tier);
    for (const std::size_t n : {0u, 1u, 31u, 32u, 63u, 64u, 65u, 127u,
                                128u, 1000u, 4096u}) {
      Bytes a(n), b(n);
      rng.Fill(a);
      rng.Fill(b);
      Bytes expected(n);
      for (std::size_t i = 0; i < n; ++i) expected[i] = a[i] ^ b[i];
      XorBytes(a.data(), b.data(), n);
      EXPECT_EQ(a, expected) << XorTierName(tier) << " n=" << n;
    }
  }
}

TEST(XorKernel, XorSliceMultiMatchesRepeatedXorBytes) {
  // One kernel call XORs a slice of a block of rows into each row's own
  // destinations. Lengths hit the four-lane blocks, single lanes and the
  // byte tail of every tier; row r has r distinct destinations (0 to 4, the
  // most a 16-query batch gives a row); rows lie further apart than a
  // slice; and the prefetch stream either outlasts the block or ends
  // inside it.
  ScopedXorTier restore;
  Rng rng(7);
  constexpr std::size_t kRows = 5;
  constexpr std::size_t kDsts = 6;
  constexpr std::size_t kPerRow = 2;
  AlignedBytes prefetched(64 * kCacheLineSize);
  for (const XorTier tier :
       {XorTier::kScalar, XorTier::kAvx2, XorTier::kAvx512}) {
    if (!SetXorTier(tier)) continue;
    for (const std::size_t len : {1u, 63u, 64u, 255u, 256u, 300u, 4096u}) {
      for (const std::size_t begin : {0u, 64u, 100u}) {
        for (const std::size_t lines : {kPerRow * kRows + 3, kPerRow * 2 + 1}) {
          const std::size_t row_stride = begin + len + 64;
          const std::size_t dst_stride = begin + len + 8;
          Bytes rows(kRows * row_stride);
          Bytes dst(kDsts * dst_stride);
          rng.Fill(rows);
          rng.Fill(dst);
          std::vector<std::size_t> dst_begin{0};
          std::vector<std::size_t> offsets;
          Bytes expected = dst;
          for (std::size_t r = 0; r < kRows; ++r) {
            std::vector<std::size_t> picks(kDsts);
            std::iota(picks.begin(), picks.end(), std::size_t{0});
            for (std::size_t j = 0; j < r; ++j) {
              std::swap(picks[j], picks[j + rng.UniformInt(kDsts - j)]);
              offsets.push_back(picks[j] * dst_stride);
              for (std::size_t i = 0; i < len; ++i) {
                expected[offsets.back() + begin + i] ^=
                    rows[r * row_stride + begin + i];
              }
            }
            dst_begin.push_back(offsets.size());
          }
          L2Prefetch prefetch{prefetched.data(), lines, kPerRow};
          XorSliceMulti({rows.data(), row_stride, kRows, dst_begin.data(),
                         offsets.data(), dst.data()},
                        begin, len, prefetch);
          EXPECT_EQ(dst, expected) << XorTierName(tier) << " len=" << len
                                   << " begin=" << begin << " lines=" << lines;
          // One row step prefetches at most kPerRow lines, and the stream
          // never runs past its end.
          const std::size_t issued = std::min(lines, kPerRow * kRows);
          EXPECT_EQ(prefetch.lines, lines - issued);
          EXPECT_EQ(prefetch.next,
                    prefetched.data() + issued * kCacheLineSize);
        }
      }
    }
  }
}

// ------------------------------------------------------------ hugepages

TEST(Hugepages, SmallAllocationsSkipTheHugepagePath) {
  const std::uint64_t before = HugepageAdvisedBytes();
  HugeBytes small(4096, 0x5a);
  EXPECT_EQ(small[0], 0x5a);
  // Sub-hugepage vectors keep plain cache-line alignment and are never
  // madvised — 2 MiB-aligning a 4 KiB buffer would waste the reservation.
  EXPECT_EQ(HugepageAdvisedBytes(), before);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(small.data()) %
                kCacheLineSize,
            0u);
}

TEST(Hugepages, LargeAllocationsAreHugepageAlignedWhenEnabled) {
  const std::uint64_t before = HugepageAdvisedBytes();
  HugeBytes arena(2 * kHugePageSize);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arena.data()) % kHugePageSize,
            0u);
  // The madvise itself is best-effort (THP may be off on this host), so the
  // counter may or may not move — but it must never move backwards, and on
  // hosts where it moved it must cover this arena.
  const std::uint64_t advised = HugepageAdvisedBytes() - before;
  EXPECT_TRUE(advised == 0 || advised >= arena.size())
      << "advised " << advised << " of " << arena.size();
  std::fill(arena.begin(), arena.end(), 0xab);  // every page is writable
  EXPECT_EQ(arena[arena.size() - 1], 0xab);
}

TEST(Hugepages, OversizedRequestThrowsBadAlloc) {
  // Rounding SIZE_MAX bytes up to 2 MiB wraps to 0; the allocator must
  // refuse the request instead of returning an empty block.
  HugepageAllocator<std::uint8_t> alloc;
  EXPECT_THROW(alloc.allocate(SIZE_MAX), std::bad_alloc);
  EXPECT_THROW(alloc.allocate(PTRDIFF_MAX), std::bad_alloc);
}

TEST(Hugepages, BlobDatabaseScansCorrectlyOverHugepageArena) {
  // Every bucket keeps its rows in 2 MiB slabs, each on the hugepage path.
  // The scan must not notice.
  BlobDatabase db(12, 512);
  Rng rng(5);
  Bytes r1(512), r2(512);
  rng.Fill(r1);
  rng.Fill(r2);
  ASSERT_TRUE(db.Insert(100, r1).ok());
  ASSERT_TRUE(db.Insert(3000, r2).ok());
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(db.row_data(100)) %
                kHugePageSize,
            0u);
  EXPECT_EQ(Retrieve(db, 100), r1);
  EXPECT_EQ(Retrieve(db, 3000), r2);
  const dpf::DpfKey both = KeyWithBits(12, {100, 3000}, {1, 1});
  Bytes expected(512);
  for (std::size_t i = 0; i < 512; ++i) expected[i] = r1[i] ^ r2[i];
  EXPECT_EQ(AnswerOne(db, both), expected);
}

TEST(BlobDb, RowsAreCacheLineAligned) {
  // Record storage is padded per row to 64 bytes so each scanned record
  // starts on its own cache line (and takes XorBytes' aligned path).
  BlobDatabase db(8, 100);  // 100 -> stride 128
  EXPECT_EQ(db.row_stride(), 128u);
  EXPECT_EQ(db.row_stride() % kCacheLineSize, 0u);
  Rng rng(5);
  for (std::uint64_t i = 0; i < 9; ++i) {
    Bytes rec(100);
    rng.Fill(rec);
    ASSERT_TRUE(db.Insert(i * 3, rec).ok());
  }
  for (std::uint64_t i = 0; i < 9; ++i) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(db.row_data(i * 3)) %
                  kCacheLineSize,
              0u)
        << "index " << i * 3;
  }
  EXPECT_EQ(db.row_data(1), nullptr);
  // An exact multiple of the line size gets no padding.
  BlobDatabase exact(8, 128);
  EXPECT_EQ(exact.row_stride(), 128u);
}

// --------------------------------------------- parallel / fused scans
//
// The sharded pass (private per-worker leaves and accumulators + tree
// reduction) must match the serial pass and a reference independent of the
// scan bit-for-bit, across pool sizes and domain sizes.

class BlobDbParallelTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

// The reference evaluator's selection bits: EvalFull is checked against
// EvalPoint at every point in dpf_test, and is cheaper for many rows.
Bytes ReferenceFromBits(const BlobDatabase& db,
                        const std::set<std::uint64_t>& stored,
                        const dpf::BitVector& bits) {
  Bytes out(db.record_size(), 0);
  for (const std::uint64_t index : stored) {
    if (dpf::GetBit(bits, index) == 0) continue;
    const Bytes rec = db.Get(index).value();
    std::size_t i = 0;
    for (; i + 8 <= out.size(); i += 8) {
      StoreLE64(out.data() + i,
                LoadLE64(out.data() + i) ^ LoadLE64(rec.data() + i));
    }
    for (; i < out.size(); ++i) out[i] ^= rec[i];
  }
  return out;
}

TEST_P(BlobDbParallelTest, ParallelAnswerMatchesSerial) {
  const auto [threads, d] = GetParam();
  ThreadPool pool(threads);
  const std::uint64_t domain = std::uint64_t{1} << d;
  const std::size_t record_size = 96;  // not a multiple of 64: real padding
  BlobDatabase db(d, record_size);
  Rng rng(static_cast<std::uint64_t>(threads * 7 + d));
  const std::uint64_t records = std::min<std::uint64_t>(domain, 300);
  std::set<std::uint64_t> stored;
  for (std::uint64_t i = 0; i < records; ++i) {
    Bytes rec(record_size);
    rng.Fill(rec);
    const std::uint64_t index = rng.UniformInt(domain);
    ASSERT_TRUE(db.Upsert(index, rec).ok());
    stored.insert(index);
  }

  // A key's share selects a pseudorandom half of the rows.
  for (int round = 0; round < 4; ++round) {
    const dpf::DpfKey key = dpf::Generate(rng.UniformInt(domain), d).key0;
    const Bytes serial = AnswerOne(db, key);
    EXPECT_EQ(AnswerOne(db, key, &pool), serial)
        << "threads=" << threads << " d=" << d;
    EXPECT_EQ(serial, ReferenceFromBits(db, stored, dpf::EvalFull(key)))
        << "threads=" << threads << " d=" << d;
  }
}

TEST_P(BlobDbParallelTest, FusedBatchMatchesSerialAnswers) {
  const auto [threads, d] = GetParam();
  ThreadPool pool(threads);
  const std::uint64_t domain = std::uint64_t{1} << d;
  Rng rng(static_cast<std::uint64_t>(threads * 131 + d));
  // 300-byte records are not a multiple of 64 and long enough that every
  // XOR tier runs its row blocks, single lanes and byte tail, in 256-byte
  // slices. 4096-byte records run every slice width the grouped sweep
  // derives: the whole record (B ≤ 3), 2 KiB (B = 4), 1 KiB (B = 5 and
  // 8), 512 B (B = 16) and 256 B (B ≥ 17). At d ≥ 12 the inputs hold
  // 960–1200 and 530–600 rows, so a pool splits the scan into several row
  // shards (at least 256 rows each) and the shard reduction runs; at
  // d = 18 the rows sit in four buckets, each a chunk of its own.
  const std::pair<std::size_t, std::uint64_t> inputs[] = {{300, 1200},
                                                           {4096, 600}};
  for (const auto& [record_size, max_records] : inputs) {
    BlobDatabase db(d, record_size);
    const std::uint64_t records = std::min<std::uint64_t>(domain, max_records);
    std::set<std::uint64_t> stored;
    for (std::uint64_t i = 0; i < records; ++i) {
      Bytes rec(record_size);
      rng.Fill(rec);
      const std::uint64_t index = rng.UniformInt(domain);
      ASSERT_TRUE(db.Upsert(index, rec).ok());
      stored.insert(index);
    }

    // Batch sizes around the scan's groups of four (one partial group, one
    // full group, full groups followed by a partial one) and its slice
    // widths; both parties' shares.
    ScopedXorTier restore;
    const auto sweep = [&](const char* layout) {
      for (const std::size_t batch : {1u, 2u, 3u, 4u, 5u, 8u, 16u, 17u, 33u}) {
        std::vector<dpf::DpfKey> keys;
        for (std::size_t q = 0; q < batch; ++q) {
          dpf::KeyPair pair = dpf::Generate(rng.UniformInt(domain), d);
          keys.push_back(q % 2 == 0 ? pair.key0 : pair.key1);
        }
        std::vector<Bytes> expected;
        for (const dpf::DpfKey& key : keys) {
          expected.push_back(ReferenceFromBits(db, stored, dpf::EvalFull(key)));
        }
        const std::vector<dpf::SubtreeKey> roots = Roots(keys);
        for (const XorTier tier :
             {XorTier::kScalar, XorTier::kAvx2, XorTier::kAvx512}) {
          if (!SetXorTier(tier)) continue;
          std::vector<Bytes> serial_batch, parallel_batch;
          db.AnswerBatch(roots, serial_batch);
          db.AnswerBatch(roots, parallel_batch, &pool);
          ASSERT_EQ(serial_batch.size(), batch);
          ASSERT_EQ(parallel_batch.size(), batch);
          for (std::size_t q = 0; q < batch; ++q) {
            EXPECT_EQ(serial_batch[q], expected[q])
                << "query " << q << " batch=" << batch << " record="
                << record_size << " " << XorTierName(tier) << " " << layout;
            EXPECT_EQ(parallel_batch[q], expected[q])
                << "query " << q << " batch=" << batch << " record="
                << record_size << " " << XorTierName(tier)
                << " threads=" << threads << " d=" << d << " " << layout;
          }
          EXPECT_EQ(AnswerOne(db, keys.back(), &pool), expected.back())
              << "alone, " << XorTierName(tier) << " " << layout;
        }
      }
    };
    sweep("as inserted");

    // Remove about a third of the stored indices and insert fresh ones:
    // swap-removes move rows inside their buckets and rewrite the
    // row-to-index map, and the pass's selection planes must follow the
    // new row layout.
    std::vector<std::uint64_t> removed;
    for (const std::uint64_t index : stored) {
      if (rng.UniformInt(3) == 0) removed.push_back(index);
    }
    for (const std::uint64_t index : removed) {
      ASSERT_TRUE(db.Remove(index).ok());
      stored.erase(index);
    }
    for (std::size_t i = 0; i < removed.size(); ++i) {
      Bytes rec(record_size);
      rng.Fill(rec);
      const std::uint64_t index = rng.UniformInt(domain);
      ASSERT_TRUE(db.Upsert(index, rec).ok());
      stored.insert(index);
    }
    sweep("after swap-removes");
  }
}

INSTANTIATE_TEST_SUITE_P(PoolsAndDomains, BlobDbParallelTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 8),
                                            ::testing::Values(1, 5, 12, 18)));

// The keyed pass against a reference built from EvalPoint alone, over the
// bucket and slab shapes the pass must handle: an empty database, a single
// row, a bucket of exactly one slab, a bucket of one slab plus one row
// (with every other bucket empty), the same after Insert/Remove/Update
// churn that empties and refills its second slab, and ~1100 small rows
// over every bucket, enough for four row shards. 65,000-byte records make
// a slab 32 rows. Swept over batch sizes, pool sizes and XOR tiers; the
// answers must be byte-identical everywhere. d = 6, 12, 17, 19 and 22 give
// t = 0, 0, 1, 3 and 6 bucket bits.
class BlobDbKeyedPassTest : public ::testing::TestWithParam<int> {};

TEST_P(BlobDbKeyedPassTest, MatchesEvalPointReference) {
  const int d = GetParam();
  const std::uint64_t domain = std::uint64_t{1} << d;
  ASSERT_EQ(BucketBits(d), std::max(0, d - 16));
  Rng rng(static_cast<std::uint64_t>(d));
  ScopedXorTier restore;
  ThreadPool pool2(2), pool4(4);

  const auto check = [&](const BlobDatabase& db,
                         const std::set<std::uint64_t>& stored,
                         const char* layout) {
    ASSERT_EQ(db.record_count(), stored.size()) << layout;
    for (const std::size_t batch : {1u, 2u, 5u, 16u, 17u}) {
      std::vector<dpf::DpfKey> keys;
      std::vector<Bytes> expected;
      for (std::size_t q = 0; q < batch; ++q) {
        // Aim some queries at stored rows, so their pair combines to one.
        const std::uint64_t alpha =
            stored.empty() || q % 2 == 1
                ? rng.UniformInt(domain)
                : *std::next(stored.begin(),
                             static_cast<long>(rng.UniformInt(stored.size())));
        dpf::KeyPair pair = dpf::Generate(alpha, d);
        keys.push_back(q % 3 == 0 ? pair.key1 : pair.key0);
        expected.push_back(ReferenceAnswer(db, stored, keys.back()));
      }
      const std::vector<dpf::SubtreeKey> roots = Roots(keys);
      for (const XorTier tier :
           {XorTier::kScalar, XorTier::kAvx2, XorTier::kAvx512}) {
        if (!SetXorTier(tier)) continue;
        // A pool splits a pass only from 512 rows (256 per row shard);
        // below that every pool runs the serial pass, so the big-record
        // layouts run it once.
        std::vector<ThreadPool*> pools{nullptr};
        if (db.record_count() >= 512) pools = {nullptr, &pool2, &pool4};
        for (ThreadPool* pool : pools) {
          std::vector<Bytes> answers;
          db.AnswerBatch(roots, answers, pool);
          ASSERT_EQ(answers.size(), batch);
          for (std::size_t q = 0; q < batch; ++q) {
            EXPECT_EQ(answers[q], expected[q])
                << layout << " batch=" << batch << " query " << q << " "
                << XorTierName(tier) << " threads="
                << (pool == nullptr ? 1 : pool->thread_count());
          }
        }
      }
    }
  };

  constexpr std::size_t kBigRecord = 65000;
  const auto record = [&](std::size_t size) {
    Bytes rec(size);
    rng.Fill(rec);
    return rec;
  };
  // Points of bucket `bucket`, in order: bucket + (j << t).
  const int t = BucketBits(d);
  const auto point = [&](std::uint64_t bucket, std::uint64_t j) {
    return (bucket + (j << t)) % domain;
  };

  {
    BlobDatabase db(d, kBigRecord);
    std::set<std::uint64_t> stored;
    check(db, stored, "empty");
    const std::uint64_t only = rng.UniformInt(domain);
    ASSERT_TRUE(db.Insert(only, record(kBigRecord)).ok());
    stored.insert(only);
    check(db, stored, "one row");
  }
  const std::uint64_t last_bucket = (std::uint64_t{1} << t) - 1;
  const std::uint64_t points = std::min<std::uint64_t>(domain >> t, 64);
  BlobDatabase db(d, kBigRecord);
  ASSERT_EQ(db.rows_per_slab(), 32u);
  std::set<std::uint64_t> stored;
  for (std::uint64_t j = 0; j < std::min<std::uint64_t>(points, 32); ++j) {
    ASSERT_TRUE(db.Insert(point(last_bucket, j), record(kBigRecord)).ok());
    stored.insert(point(last_bucket, j));
  }
  check(db, stored, "one slab");
  if (points > 32) {
    ASSERT_TRUE(db.Insert(point(last_bucket, 32), record(kBigRecord)).ok());
    stored.insert(point(last_bucket, 32));
    check(db, stored, "one slab plus one row");
    // Churn: remove two rows (the second slab empties and is freed),
    // update one, insert two (the second slab comes back).
    for (const std::uint64_t j : {std::uint64_t{5}, std::uint64_t{32}}) {
      ASSERT_TRUE(db.Remove(point(last_bucket, j)).ok());
      stored.erase(point(last_bucket, j));
    }
    ASSERT_TRUE(db.Update(point(last_bucket, 7), record(kBigRecord)).ok());
    for (const std::uint64_t j : {std::uint64_t{40}, std::uint64_t{41}}) {
      ASSERT_TRUE(db.Insert(point(last_bucket, j), record(kBigRecord)).ok());
      stored.insert(point(last_bucket, j));
    }
    check(db, stored, "after churn");
  }

  BlobDatabase small(d, 24);
  std::set<std::uint64_t> small_stored;
  for (std::uint64_t i = 0; i < std::min<std::uint64_t>(domain, 1100); ++i) {
    const std::uint64_t index = rng.UniformInt(domain);
    ASSERT_TRUE(small.Upsert(index, record(24)).ok());
    small_stored.insert(index);
  }
  check(small, small_stored, "small rows");
}

INSTANTIATE_TEST_SUITE_P(Domains, BlobDbKeyedPassTest,
                         ::testing::Values(6, 12, 17, 19, 22));

// -------------------------------------------- end-to-end two-server PIR

class TwoServerPirTest : public ::testing::TestWithParam<int> {};

TEST_P(TwoServerPirTest, RetrievesEveryRecordPrivately) {
  const int d = GetParam();
  const std::size_t record_size = 64;
  // Two replicas, as in the two-server model.
  BlobDatabase server0(d, record_size);
  BlobDatabase server1(d, record_size);
  Rng rng(static_cast<std::uint64_t>(d));
  const std::uint64_t domain = std::uint64_t{1} << d;

  std::vector<std::uint64_t> indices;
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t idx = rng.UniformInt(domain);
    if (server0.Contains(idx)) continue;
    Bytes rec(record_size);
    rng.Fill(rec);
    ASSERT_TRUE(server0.Insert(idx, rec).ok());
    ASSERT_TRUE(server1.Insert(idx, rec).ok());
    indices.push_back(idx);
  }

  for (const std::uint64_t target : indices) {
    const QueryKeys q = MakeIndexQuery(target, d);
    auto rec = CombineAnswers(AnswerOne(server0, q.key0),
                              AnswerOne(server1, q.key1));
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(*rec, server0.Get(target).value());
  }
}

INSTANTIATE_TEST_SUITE_P(Domains, TwoServerPirTest,
                         ::testing::Values(6, 8, 10, 12));

TEST(TwoServerPir, AbsentIndexYieldsZeros) {
  const int d = 8;
  BlobDatabase s0(d, 32), s1(d, 32);
  ASSERT_TRUE(s0.Insert(1, RecordOf(0xaa, 32)).ok());
  ASSERT_TRUE(s1.Insert(1, RecordOf(0xaa, 32)).ok());
  const QueryKeys q = MakeIndexQuery(99, d);  // unoccupied index
  EXPECT_EQ(CombineAnswers(AnswerOne(s0, q.key0), AnswerOne(s1, q.key1))
                .value(),
            RecordOf(0, 32));
}

TEST(TwoServerPir, BatchAnswerMatchesIndividualAnswers) {
  const int d = 9;
  const std::size_t record_size = 48;
  BlobDatabase db(d, record_size);
  Rng rng(99);
  for (std::uint64_t i = 0; i < 100; ++i) {
    Bytes rec(record_size);
    rng.Fill(rec);
    ASSERT_TRUE(db.Insert(i * 5, rec).ok());
  }

  std::vector<dpf::DpfKey> queries;
  std::vector<Bytes> individual;
  for (std::uint64_t t : {std::uint64_t{0}, std::uint64_t{25},
                          std::uint64_t{495}, std::uint64_t{511}}) {
    const QueryKeys q = MakeIndexQuery(t, d);
    queries.push_back(q.key0);
    individual.push_back(AnswerOne(db, queries.back()));
  }

  std::vector<Bytes> batched;
  db.AnswerBatch(Roots(queries), batched);
  ASSERT_EQ(batched.size(), individual.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i], individual[i]) << "query " << i;
  }
}

TEST(TwoServerPir, CombineRejectsSizeMismatch) {
  EXPECT_FALSE(CombineAnswers(Bytes(8), Bytes(9)).ok());
}

TEST(TwoServerPir, CommunicationAccounting) {
  // Upload is the serialized DPF key; verify the helper agrees with reality.
  const QueryKeys q = MakeIndexQuery(5, 22);
  EXPECT_EQ(q.key0.Serialize().size(), QueryUploadBytes(22));
  // Early-terminated key: header, root seed, d-7 correction words, output
  // word.
  EXPECT_EQ(QueryUploadBytes(22), 2u + 16 + 15 * 17 + 16);
  EXPECT_EQ(MakeIndexQuery(5, 6).key0.Serialize().size(),
            QueryUploadBytes(6));
  // Paper §5.1: with d=22 and 4 KiB buckets, total communication per request
  // is on the order of 10 KiB (they report 13.6 KiB with their key format).
  const std::size_t total = TotalCommunicationBytes(22, 4096);
  EXPECT_GT(total, 8u * 1024);
  EXPECT_LT(total, 16u * 1024);
}

// ----------------------------------------------------------- packing

TEST(Packing, RoundTrip) {
  const Bytes payload = ToBytes("{\"title\":\"hello\"}");
  auto rec = PackRecord(0x1234567890abcdefULL, payload, 64);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->size(), 64u);
  auto un = UnpackRecord(*rec);
  ASSERT_TRUE(un.ok());
  EXPECT_EQ(un->fingerprint, 0x1234567890abcdefULL);
  EXPECT_EQ(un->payload, payload);
}

TEST(Packing, EmptyPayload) {
  auto rec = PackRecord(7, {}, 16);
  ASSERT_TRUE(rec.ok());
  auto un = UnpackRecord(*rec);
  ASSERT_TRUE(un.ok());
  EXPECT_EQ(un->fingerprint, 7u);
  EXPECT_TRUE(un->payload.empty());
}

TEST(Packing, MaxPayloadExactFit) {
  const std::size_t record_size = 64;
  const Bytes payload(MaxPayloadSize(record_size), 0x5a);
  auto rec = PackRecord(1, payload, record_size);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(UnpackRecord(*rec)->payload, payload);
}

TEST(Packing, RejectsOversizedPayload) {
  const Bytes payload(53, 1);  // 53 + 12 > 64
  EXPECT_FALSE(PackRecord(1, payload, 64).ok());
}

TEST(Packing, RejectsTinyRecordSize) {
  EXPECT_FALSE(PackRecord(1, {}, 4).ok());
}

TEST(Packing, AllZeroRecordUnpacksToNothing) {
  // An absent key reconstructs to all zeros; unpack must treat that as
  // fingerprint 0 / empty payload rather than failing.
  auto un = UnpackRecord(Bytes(64, 0));
  ASSERT_TRUE(un.ok());
  EXPECT_EQ(un->fingerprint, 0u);
  EXPECT_TRUE(un->payload.empty());
}

TEST(Packing, RejectsCorruptLength) {
  Bytes rec = PackRecord(1, ToBytes("x"), 32).value();
  rec[8] = 0xff;  // length now larger than the record
  rec[9] = 0xff;
  EXPECT_FALSE(UnpackRecord(rec).ok());
}

TEST(Packing, InterpretRecordReadsEveryOutcome) {
  // The client's one reading of a reconstructed keyword record.
  const std::uint64_t mine = 0x1111222233334444ULL;
  const std::uint64_t theirs = 0x5555666677778888ULL;
  const Bytes payload = ToBytes("payload");
  const Result<Bytes> empty = InterpretRecord(Bytes(64, 0), mine);
  EXPECT_EQ(empty.status().code(), StatusCode::kNotFound);
  const Result<Bytes> other =
      InterpretRecord(PackRecord(theirs, payload, 64).value(), mine);
  EXPECT_EQ(other.status().code(), StatusCode::kCollision);
  const Result<Bytes> own =
      InterpretRecord(PackRecord(mine, payload, 64).value(), mine);
  ASSERT_TRUE(own.ok()) << own.status().ToString();
  EXPECT_EQ(*own, payload);
  Bytes oversized = PackRecord(mine, payload, 64).value();
  oversized[8] = 53;  // 53 payload bytes after a 12-byte header: one too many
  EXPECT_EQ(InterpretRecord(oversized, mine).status().code(),
            StatusCode::kProtocolError);
}

// ----------------------------------------------------------- keyword

TEST(Keyword, DeterministicMapping) {
  const Bytes seed = SecureRandom(16);
  KeywordMapper m1(seed, 20), m2(seed, 20);
  EXPECT_EQ(m1.IndexOf("nytimes.com/world"), m2.IndexOf("nytimes.com/world"));
  EXPECT_EQ(m1.Fingerprint("nytimes.com/world"),
            m2.Fingerprint("nytimes.com/world"));
}

TEST(Keyword, IndexWithinDomain) {
  const Bytes seed = SecureRandom(16);
  KeywordMapper m(seed, 10);
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(m.IndexOf("key-" + std::to_string(i)), 1u << 10);
  }
}

TEST(Keyword, FingerprintIndependentOfIndexHash) {
  // Two keys that collide on index should still have distinct fingerprints
  // (with overwhelming probability), enabling client-side detection. By
  // pigeonhole, 17 keys in a 16-slot domain hold a colliding pair whatever
  // the seed; every key that lands on an occupied slot must differ in
  // fingerprint from the slot's first key.
  const Bytes seed = SecureRandom(16);
  KeywordMapper m(seed, 4);  // tiny domain forces collisions
  std::map<std::uint64_t, std::string> first_at;
  int collisions = 0;
  for (int i = 0; i < 17; ++i) {
    const std::string k = "key-" + std::to_string(i);
    const auto [it, fresh] = first_at.emplace(m.IndexOf(k), k);
    if (!fresh) {
      EXPECT_NE(m.Fingerprint(k), m.Fingerprint(it->second))
          << k << " vs " << it->second;
      ++collisions;
    }
  }
  EXPECT_GT(collisions, 0);
}

TEST(KeywordRegistry, DetectsCollisions) {
  const Bytes seed = SecureRandom(16);
  KeywordRegistry reg(seed, 4);
  int collisions = 0;
  for (int i = 0; i < 64; ++i) {
    auto r = reg.Register("page-" + std::to_string(i));
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kCollision);
      ++collisions;
    }
  }
  EXPECT_GT(collisions, 0);
  EXPECT_LE(reg.size(), 16u);
}

TEST(KeywordRegistry, RegisterIsIdempotent) {
  const Bytes seed = SecureRandom(16);
  KeywordRegistry reg(seed, 16);
  const std::uint64_t idx = reg.Register("example.com/a").value();
  EXPECT_EQ(reg.Register("example.com/a").value(), idx);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(KeywordRegistry, UnregisterFreesIndex) {
  const Bytes seed = SecureRandom(16);
  KeywordRegistry reg(seed, 16);
  ASSERT_TRUE(reg.Register("a").ok());
  EXPECT_TRUE(reg.IsRegistered("a"));
  ASSERT_TRUE(reg.Unregister("a").ok());
  EXPECT_FALSE(reg.IsRegistered("a"));
  EXPECT_FALSE(reg.Unregister("a").ok());
  EXPECT_TRUE(reg.Register("a").ok());
}

TEST(KeywordRegistry, KeyAt) {
  const Bytes seed = SecureRandom(16);
  KeywordRegistry reg(seed, 16);
  const std::uint64_t idx = reg.Register("hello").value();
  EXPECT_EQ(reg.KeyAt(idx).value(), "hello");
  EXPECT_FALSE(reg.KeyAt(idx + 1 < (1u << 16) ? idx + 1 : idx - 1).ok());
}

}  // namespace
}  // namespace lw::pir
