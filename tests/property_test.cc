// Property-style parameterized sweeps across the system's tunables:
// Path ORAM geometries, DPF key-privacy statistics, record-size sweeps,
// and a browser random-walk invariant check.
#include <gtest/gtest.h>

#include <map>

#include "dpf/dpf.h"
#include "lightweb/browser.h"
#include "lightweb/channel.h"
#include "lightweb/publisher.h"
#include "lightweb/universe.h"
#include "oram/path_oram.h"
#include "oram/storage.h"
#include "pir/blob_db.h"
#include "pir/packing.h"
#include "pir/two_server.h"
#include "stats/private_stats.h"
#include "util/rand.h"

namespace lw {
namespace {

// ----------------------------------------------- ORAM geometry sweep

class OramGeometryTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OramGeometryTest, CorrectUnderMixedTraffic) {
  const auto [capacity_log2, bucket_capacity] = GetParam();
  const std::uint64_t capacity = std::uint64_t{1} << capacity_log2;
  oram::PathOramConfig config;
  config.capacity = capacity;
  config.block_size = 24;
  config.bucket_capacity = bucket_capacity;
  oram::MemoryStorage storage(oram::RequiredBucketCount(config));
  oram::PathOram oram(config, storage, SecureRandom(32));

  Rng rng(capacity * 31 + static_cast<std::uint64_t>(bucket_capacity));
  std::map<std::uint64_t, Bytes> reference;
  for (int step = 0; step < 600; ++step) {
    const std::uint64_t id = rng.UniformInt(capacity);
    switch (rng.UniformInt(3)) {
      case 0: {
        Bytes data(24);
        rng.Fill(data);
        ASSERT_TRUE(oram.Write(id, data).ok());
        reference[id] = data;
        break;
      }
      case 1: {
        auto got = oram.Read(id);
        if (reference.contains(id)) {
          ASSERT_TRUE(got.ok());
          EXPECT_EQ(*got, reference[id]);
        } else {
          EXPECT_FALSE(got.ok());
        }
        break;
      }
      default:
        oram.DummyAccess();
    }
  }
  // Stash does not blow up for any geometry (Z>=2).
  EXPECT_LT(oram.stash_size(), 200u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, OramGeometryTest,
    ::testing::Values(std::tuple{4, 4}, std::tuple{6, 4}, std::tuple{8, 4},
                      std::tuple{6, 2}, std::tuple{6, 6},
                      std::tuple{10, 4}));

// ---------------------------------------------- DPF key-privacy stats

TEST(DpfPrivacy, KeyBytesStatisticallyIndependentOfAlpha) {
  // A single party's key must look like random bytes whatever alpha is:
  // compare the average byte value of serialized keys across two very
  // different alphas — they must agree within noise, and both sit near
  // 127.5. (A structural leak, e.g. alpha bits copied into the key, would
  // shift these distributions.)
  const int d = 16;
  constexpr int kSamples = 200;
  const auto mean_byte = [&](std::uint64_t alpha) {
    double total = 0;
    std::size_t count = 0;
    for (int i = 0; i < kSamples; ++i) {
      const Bytes wire = dpf::Generate(alpha, d).key0.Serialize();
      // Consider only the pseudorandom material: skip the 2-byte header
      // (party/domain are public) and each level's packed control-bit byte
      // (a 2-bit value; layout: header, root seed, then 17 bytes per level
      // whose last byte holds the control bits, then the 16-byte output
      // word, none of whose offsets hit the skip rule).
      for (std::size_t j = 2; j < wire.size(); ++j) {
        if (j >= 18 && (j - 18) % 17 == 16) continue;
        total += wire[j];
        ++count;
      }
    }
    return total / static_cast<double>(count);
  };
  const double mean_zero = mean_byte(0);
  const double mean_max = mean_byte((1u << 16) - 1);
  EXPECT_NEAR(mean_zero, 127.5, 4.0);
  EXPECT_NEAR(mean_max, 127.5, 4.0);
  EXPECT_NEAR(mean_zero, mean_max, 6.0);
}

TEST(DpfPrivacy, SharesOfDifferentAlphasHaveSameSize) {
  for (int d : {8, 12, 16, 22}) {
    const std::size_t size0 = dpf::Generate(0, d).key0.SerializedSize();
    const std::size_t size1 =
        dpf::Generate((std::uint64_t{1} << d) - 1, d).key1.SerializedSize();
    EXPECT_EQ(size0, size1) << d;
  }
}

// ---------------------------------------------- record-size sweep

class RecordSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RecordSizeTest, PirRoundTripsAtOddSizes) {
  const std::size_t record_size = GetParam();
  const int d = 8;
  pir::BlobDatabase db(d, record_size);
  Rng rng(record_size);
  Bytes rec(record_size);
  rng.Fill(rec);
  ASSERT_TRUE(db.Insert(77, rec).ok());

  const pir::QueryKeys q = pir::MakeIndexQuery(77, d);
  std::vector<Bytes> a0, a1;
  db.AnswerBatch({dpf::SplitForShards(q.key0, 0).front()}, a0);
  db.AnswerBatch({dpf::SplitForShards(q.key1, 0).front()}, a1);
  EXPECT_EQ(pir::CombineAnswers(a0.front(), a1.front()).value(), rec);
}

TEST_P(RecordSizeTest, PackingFillsExactly) {
  const std::size_t record_size = GetParam();
  if (record_size < pir::kRecordHeaderSize) {
    EXPECT_FALSE(pir::PackRecord(1, {}, record_size).ok());
    return;
  }
  const Bytes payload(pir::MaxPayloadSize(record_size), 0xab);
  auto rec = pir::PackRecord(9, payload, record_size);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->size(), record_size);
  EXPECT_EQ(pir::UnpackRecord(*rec)->payload, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RecordSizeTest,
                         ::testing::Values(1, 12, 13, 31, 100, 999, 4096));

// ---------------------------------------------- browser random walk

TEST(BrowserWalk, LinkWalkNeverBreaksTrafficInvariant) {
  using namespace lightweb;
  UniverseConfig config;
  config.name = "walk";
  config.code_domain_bits = 10;
  config.code_blob_size = 4096;
  config.data_domain_bits = 14;
  config.data_blob_size = 512;
  config.fetches_per_page = 2;
  config.master_seed = Bytes(16, 0x61);
  Universe universe(config);

  // A ring of pages, each linking to the next and to a random other page.
  Publisher pub("walker");
  SiteBuilder site("ring.example");
  site.AddRoute("/node/:n", {"ring.example/data/{n}.json"},
                "node {{n}} [next]({{data0.next}}) [jump]({{data0.jump}})");
  ASSERT_TRUE(pub.PublishSite(universe, site).ok());
  Rng rng(5);
  constexpr int kNodes = 30;
  for (int n = 0; n < kNodes; ++n) {
    json::Object blob;
    blob["next"] =
        "ring.example/node/" + std::to_string((n + 1) % kNodes);
    blob["jump"] = "ring.example/node/" +
                   std::to_string(rng.UniformInt(kNodes));
    ASSERT_TRUE(pub.PublishData(universe,
                                "ring.example/data/" + std::to_string(n) +
                                    ".json",
                                json::Value(blob))
                    .ok());
  }

  BrowserConfig bconfig;
  bconfig.fetches_per_page = universe.fetches_per_page();
  Browser browser(
      std::make_unique<InProcessPirChannel>(universe.code_store()),
      std::make_unique<InProcessPirChannel>(universe.data_store()),
      bconfig);

  std::string path = "ring.example/node/0";
  for (int hop = 0; hop < 50; ++hop) {
    auto page = browser.Visit(path);
    ASSERT_TRUE(page.ok()) << path;
    ASSERT_FALSE(page->links.empty()) << path;
    // Follow a random link.
    path = page->links[rng.UniformInt(page->links.size())].target;
  }
  EXPECT_EQ(browser.data_channel().observed_queries(),
            50u * static_cast<std::uint64_t>(universe.fetches_per_page()));
  EXPECT_EQ(browser.code_channel().observed_queries(), 1u);  // one domain
}

// ---------------------------------------------- stats wraparound

TEST(StatsProperty, LargeCountsDoNotOverflowVisibly) {
  // Counts live in Z_2^64; verify many reports accumulate exactly.
  stats::AggregationServer s0(2), s1(2);
  for (int i = 0; i < 10000; ++i) {
    const auto r = stats::SplitIndicator(2, i % 2);
    ASSERT_TRUE(s0.Accept(r.for_server0).ok());
    ASSERT_TRUE(s1.Accept(r.for_server1).ok());
  }
  const auto combined =
      stats::CombineTotals(s0.totals(), s1.totals()).value();
  EXPECT_EQ(combined[0], 5000u);
  EXPECT_EQ(combined[1], 5000u);
}

}  // namespace
}  // namespace lw
