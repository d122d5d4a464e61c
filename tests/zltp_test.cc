// ZLTP protocol tests: message codecs, the PirStore (single-node and
// sharded), batching, and full client/server sessions over in-memory and
// TCP transports in both modes of operation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <tuple>
#include <vector>

#include "net/reactor.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "oram/enclave.h"
#include "oram/storage.h"
#include "pir/packing.h"
#include "pir/two_server.h"
#include "util/clock.h"
#include "util/rand.h"
#include "util/thread_pool.h"
#include "zltp/batch.h"
#include "zltp/client.h"
#include "zltp/frontend.h"
#include "zltp/messages.h"
#include "zltp/server.h"
#include "zltp/store.h"

namespace lw::zltp {
namespace {

PirStoreConfig SmallStoreConfig(int domain_bits = 12,
                                std::size_t record_size = 128) {
  PirStoreConfig c;
  c.domain_bits = domain_bits;
  c.record_size = record_size;
  c.keyword_seed = Bytes(16, 0x5a);
  return c;
}

// Publishes `count` keys and returns the packed record at each occupied
// domain index: what a reference XOR of the store's rows reads.
std::map<std::uint64_t, Bytes> PublishKeys(PirStore& store, int count) {
  std::map<std::uint64_t, Bytes> packed;
  for (int i = 0; i < count; ++i) {
    const std::string key = "site.com/page-" + std::to_string(i);
    const Bytes payload = ToBytes("content-" + std::to_string(i));
    if (!store.Publish(key, payload).ok()) continue;  // a collision
    packed[store.mapper().IndexOf(key)] =
        pir::PackRecord(store.mapper().Fingerprint(key), payload,
                        store.record_size())
            .value();
  }
  return packed;
}

// The XOR of the records whose bit is set in a point-order bit vector from
// the reference evaluators (dpf::EvalFull, dpf::EvalSubtree); `shift` and
// `residue` map a vector over a shard's sub-domain back to global indices.
Bytes ReferenceAnswer(const std::map<std::uint64_t, Bytes>& packed,
                      std::size_t record_size, const dpf::BitVector& bits,
                      int shift = 0, std::uint64_t residue = 0) {
  Bytes out(record_size, 0);
  for (const auto& [index, record] : packed) {
    if ((index & ((std::uint64_t{1} << shift) - 1)) != residue) continue;
    if (dpf::GetBit(bits, index >> shift) == 0) continue;
    XorInto(out, record);
  }
  return out;
}

// ------------------------------------------------------------- messages

TEST(Messages, ClientHelloRoundTrip) {
  ClientHello m;
  m.supported_modes = {Mode::kTwoServerPir, Mode::kEnclave};
  auto decoded = DecodeClientHello(Encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->version, kProtocolVersion);
  EXPECT_EQ(decoded->supported_modes, m.supported_modes);
}

TEST(Messages, ServerHelloRoundTrip) {
  ServerHello m;
  m.mode = Mode::kTwoServerPir;
  m.server_role = 1;
  m.domain_bits = 22;
  m.record_size = 4096;
  m.keyword_seed = Bytes(16, 7);
  auto decoded = DecodeServerHello(Encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->server_role, 1);
  EXPECT_EQ(decoded->domain_bits, 22);
  EXPECT_EQ(decoded->record_size, 4096u);
  EXPECT_EQ(decoded->keyword_seed, m.keyword_seed);
  EXPECT_TRUE(decoded->enclave_public_key.empty());
}

TEST(Messages, GetRequestResponseRoundTrip) {
  GetRequest req;
  req.request_id = 42;
  req.body = ToBytes("dpf-key-bytes");
  auto dreq = DecodeGetRequest(Encode(req));
  ASSERT_TRUE(dreq.ok());
  EXPECT_EQ(dreq->request_id, 42u);
  EXPECT_EQ(dreq->body, req.body);

  GetResponse resp;
  resp.request_id = 42;
  resp.body = ToBytes("record");
  auto dresp = DecodeGetResponse(Encode(resp));
  ASSERT_TRUE(dresp.ok());
  EXPECT_EQ(dresp->request_id, 42u);
}

TEST(Messages, ErrorRoundTrip) {
  ErrorMsg e;
  e.code = StatusCode::kNotFound;
  e.message = "nope";
  auto decoded = DecodeError(Encode(e));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->code, StatusCode::kNotFound);
  EXPECT_EQ(decoded->message, "nope");
  EXPECT_EQ(StatusFromError(*decoded).code(), StatusCode::kNotFound);
}

TEST(Messages, DecodeRejectsWrongType) {
  EXPECT_FALSE(DecodeServerHello(Encode(ClientHello{})).ok());
  EXPECT_FALSE(DecodeGetRequest(EncodeBye()).ok());
}

TEST(Messages, DecodeRejectsTruncated) {
  net::Frame f = Encode(GetRequest{1, ToBytes("body")});
  f.payload.resize(f.payload.size() - 2);
  EXPECT_FALSE(DecodeGetRequest(f).ok());
}

TEST(Messages, DecodeRejectsTrailingGarbageEveryType) {
  // Pre-fix, decoders stopped at the last expected field and accepted any
  // suffix, so one frame had many byte representations. Strict framing
  // (ExpectEnd) makes encoding a bijection — and every fuzz roundtrip
  // check depends on that.
  ClientHello ch;
  ch.supported_modes = {Mode::kTwoServerPir};
  net::Frame f1 = Encode(ch);
  f1.payload.push_back(0);
  EXPECT_FALSE(DecodeClientHello(f1).ok());

  ServerHello sh;
  sh.domain_bits = 20;
  sh.keyword_seed = Bytes(16, 7);
  net::Frame f2 = Encode(sh);
  f2.payload.push_back(0);
  EXPECT_FALSE(DecodeServerHello(f2).ok());

  net::Frame f3 = Encode(GetRequest{1, ToBytes("body")});
  f3.payload.push_back(0);
  EXPECT_FALSE(DecodeGetRequest(f3).ok());

  net::Frame f4 = Encode(GetResponse{1, ToBytes("share")});
  f4.payload.push_back(0);
  EXPECT_FALSE(DecodeGetResponse(f4).ok());

  net::Frame f5 = Encode(ErrorMsg{StatusCode::kNotFound, "nope"});
  f5.payload.push_back(0);
  EXPECT_FALSE(DecodeError(f5).ok());
}

TEST(Messages, ServerHelloRejectsOutOfRangeFields) {
  // Pre-fix these decoded fine and poisoned the client's universe/DPF
  // configuration (domain_bits drives allocation sizes downstream).
  ServerHello m;
  m.domain_bits = 20;
  m.keyword_seed = Bytes(16, 7);

  ServerHello bad_bits = m;
  bad_bits.domain_bits = 41;  // > dpf::kMaxDomainBits
  EXPECT_FALSE(DecodeServerHello(Encode(bad_bits)).ok());

  ServerHello bad_seed = m;
  bad_seed.keyword_seed = Bytes(17, 7);  // not empty and not kSeedSize
  EXPECT_FALSE(DecodeServerHello(Encode(bad_seed)).ok());

  ServerHello bad_key = m;
  bad_key.enclave_public_key = Bytes(33, 1);  // not empty and not 32
  EXPECT_FALSE(DecodeServerHello(Encode(bad_key)).ok());

  // Still-legal shapes: enclave mode with domain_bits 0 and empty seed.
  ServerHello enclave;
  enclave.mode = Mode::kEnclave;
  enclave.enclave_public_key = Bytes(32, 9);
  EXPECT_TRUE(DecodeServerHello(Encode(enclave)).ok());
}

// -------------------------------------------------------------- PirStore

TEST(PirStore, PublishAndDirectLookup) {
  PirStore store(SmallStoreConfig());
  ASSERT_TRUE(store.Publish("a.com/x", ToBytes("payload-x")).ok());
  EXPECT_TRUE(store.Contains("a.com/x"));
  EXPECT_EQ(ToString(store.DirectLookup("a.com/x").value()), "payload-x");
  EXPECT_EQ(store.record_count(), 1u);
}

TEST(PirStore, RepublishUpdatesContent) {
  PirStore store(SmallStoreConfig());
  ASSERT_TRUE(store.Publish("a.com/x", ToBytes("v1")).ok());
  ASSERT_TRUE(store.Publish("a.com/x", ToBytes("v2")).ok());
  EXPECT_EQ(ToString(store.DirectLookup("a.com/x").value()), "v2");
  EXPECT_EQ(store.record_count(), 1u);
}

TEST(PirStore, OversizedPayloadRejected) {
  PirStore store(SmallStoreConfig(12, 64));
  EXPECT_FALSE(store.Publish("k", Bytes(100, 1)).ok());
  EXPECT_FALSE(store.Contains("k"));  // registration rolled back
  // And publishing something valid under the same key afterwards works.
  EXPECT_TRUE(store.Publish("k", Bytes(10, 1)).ok());
}

TEST(PirStore, UnpublishRemoves) {
  PirStore store(SmallStoreConfig());
  ASSERT_TRUE(store.Publish("k", ToBytes("v")).ok());
  ASSERT_TRUE(store.Unpublish("k").ok());
  EXPECT_FALSE(store.Contains("k"));
  EXPECT_FALSE(store.DirectLookup("k").ok());
  EXPECT_FALSE(store.Unpublish("k").ok());
}

TEST(PirStore, CollisionReported) {
  // Tiny domain: many keys must collide.
  PirStore store(SmallStoreConfig(4, 64));
  int collisions = 0;
  for (int i = 0; i < 64; ++i) {
    const Status s =
        store.Publish("key-" + std::to_string(i), ToBytes("v"));
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kCollision);
      ++collisions;
    }
  }
  EXPECT_GT(collisions, 0);
}

TEST(PirStore, AnswerQueryRetrievesRecord) {
  PirStore store(SmallStoreConfig());
  ASSERT_TRUE(store.Publish("page", ToBytes("content")).ok());
  const std::uint64_t index = store.mapper().IndexOf("page");
  const pir::QueryKeys q = pir::MakeIndexQuery(index, store.domain_bits());
  const Bytes a0 = store.AnswerQuery(q.key0).value();
  const Bytes a1 = store.AnswerQuery(q.key1).value();
  const Bytes record = pir::CombineAnswers(a0, a1).value();
  auto un = pir::UnpackRecord(record);
  ASSERT_TRUE(un.ok());
  EXPECT_EQ(ToString(un->payload), "content");
  EXPECT_EQ(un->fingerprint, store.mapper().Fingerprint("page"));
}

TEST(PirStore, AnswerRejectsWrongDomain) {
  PirStore store(SmallStoreConfig(12, 128));
  const pir::QueryKeys q = pir::MakeIndexQuery(0, 10);  // wrong domain
  EXPECT_FALSE(store.AnswerQuery(q.key0).ok());
}

// The §5.2 split against one node. The node is a PirStore whose domain
// d = 16 + t gives its database 2^t buckets (the parameter); the sharded
// side is four ShardDataServers over the same records, each answering its
// sub-tree key, their answers XORed as the front-end combines them. The
// shards' buckets nest below the front-end's split bits.
class ShardedStoreTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardedStoreTest, ShardedAnswersMatchSingleNode) {
  const int bucket_bits = GetParam();
  const int d = 16 + bucket_bits;
  PirStore single(SmallStoreConfig(d, 96));
  const std::map<std::uint64_t, Bytes> packed = PublishKeys(single, 50);
  EXPECT_EQ(single.record_count(), packed.size());

  const ShardTopology topology{.domain_bits = d, .top_bits = 2,
                               .record_size = 96};
  std::vector<std::unique_ptr<ShardDataServer>> shards;
  for (std::size_t s = 0; s < topology.shard_count(); ++s) {
    shards.push_back(std::make_unique<ShardDataServer>(topology, s));
  }
  for (const auto& [index, record] : packed) {
    ASSERT_TRUE(shards[index & 3]->Load(index, record).ok());
  }

  Rng rng(3);
  for (int t = 0; t < 20; ++t) {
    // Half the queries aim at a stored record.
    const std::uint64_t index =
        t % 2 == 0 ? std::next(packed.begin(),
                               static_cast<long>(rng.UniformInt(packed.size())))
                         ->first
                   : rng.UniformInt(std::uint64_t{1} << d);
    const pir::QueryKeys q = pir::MakeIndexQuery(index, d);
    Bytes combined(96, 0);
    const auto subkeys = dpf::SplitForShards(q.key0, topology.top_bits);
    for (std::size_t s = 0; s < shards.size(); ++s) {
      XorInto(combined, shards[s]->Answer(subkeys[s]).value());
    }
    const Bytes answer = single.AnswerQuery(q.key0).value();
    EXPECT_EQ(answer, combined) << "index " << index;
    EXPECT_EQ(answer, ReferenceAnswer(packed, 96, dpf::EvalFull(q.key0)))
        << "index " << index;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedStoreTest,
                         ::testing::Values(1, 2, 4, 6));

TEST(PirStore, BatchMatchesIndividual) {
  // Swept over pool sizes too: the pass spreads its row chunks over the
  // pool, and every split must match the serial answers. d = 19 stores its
  // rows in 2^3 buckets.
  for (int d : {10, 19}) {
    PirStore store(SmallStoreConfig(d, 96));
    for (int i = 0; i < 30; ++i) {
      (void)store.Publish("p" + std::to_string(i), ToBytes("v"));
    }
    std::vector<dpf::DpfKey> keys;
    std::vector<Bytes> individual;
    Rng rng(11);
    for (int i = 0; i < 7; ++i) {
      const pir::QueryKeys q =
          pir::MakeIndexQuery(rng.UniformInt(std::uint64_t{1} << d), d);
      keys.push_back(q.key0);
      individual.push_back(store.AnswerQuery(q.key0).value());
    }
    auto batch = store.AnswerBatch(keys);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(*batch, individual) << "d=" << d;
    for (int threads : {1, 2, 3, 8}) {
      ThreadPool pool(threads);
      auto pooled = store.AnswerBatch(keys, &pool);
      ASSERT_TRUE(pooled.ok());
      EXPECT_EQ(*pooled, individual)
          << "d=" << d << " threads=" << threads;
    }
  }
}

// ------------------------------------------------------- parallel eval
//
// The pass expands every key inside the scan, on the pool's row shards.
// For every pool size and domain its answers must equal a reference XOR
// over serial EvalFull's bits, and over serial EvalSubtree's for sub-tree
// keys from SplitForShards (the shard path) — swept over thread counts x
// domain sizes, from a tree of depth 0 (d=1) to batches that put several
// keys on each worker.

class DpfParallelTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  // More keys than threads, both parties' shares.
  static std::vector<dpf::DpfKey> BatchOfKeys(int threads, int d) {
    Rng rng(static_cast<std::uint64_t>(threads * 1000 + d));
    std::vector<dpf::DpfKey> keys;
    for (int i = 0; i < threads + 2; ++i) {
      dpf::KeyPair pair =
          dpf::Generate(rng.UniformInt(std::uint64_t{1} << d), d);
      keys.push_back(std::move(pair.key0));
      keys.push_back(std::move(pair.key1));
    }
    return keys;
  }
};

TEST_P(DpfParallelTest, EvalFullParallelMatchesSerial) {
  const auto [threads, d] = GetParam();
  PirStore store(SmallStoreConfig(d, 96));
  const std::map<std::uint64_t, Bytes> packed = PublishKeys(store, 600);
  ThreadPool pool(threads);
  const std::vector<dpf::DpfKey> keys = BatchOfKeys(threads, d);
  auto serial = store.AnswerBatch(keys);
  auto pooled = store.AnswerBatch(keys, &pool);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  ASSERT_EQ(pooled->size(), keys.size());
  for (std::size_t q = 0; q < keys.size(); ++q) {
    const Bytes expected = ReferenceAnswer(packed, 96, dpf::EvalFull(keys[q]));
    EXPECT_EQ((*pooled)[q], expected)
        << "threads=" << threads << " d=" << d << " key " << q;
    EXPECT_EQ((*serial)[q], expected) << "d=" << d << " key " << q;
  }
}

TEST_P(DpfParallelTest, EvalSubtreeParallelMatchesSerial) {
  const auto [threads, d] = GetParam();
  const int top_bits = std::min(2, dpf::TreeDepth(d));
  PirStore store(SmallStoreConfig(d, 96));
  const std::map<std::uint64_t, Bytes> packed = PublishKeys(store, 600);
  // One database per residue class, as ShardDataServer holds it.
  std::vector<pir::BlobDatabase> shards;
  for (int s = 0; s < (1 << top_bits); ++s) shards.emplace_back(d - top_bits, 96);
  for (const auto& [index, record] : packed) {
    const std::uint64_t shard = index & ((std::uint64_t{1} << top_bits) - 1);
    ASSERT_TRUE(shards[shard].Insert(index >> top_bits, record).ok());
  }
  ThreadPool pool(threads);
  const std::vector<dpf::DpfKey> keys = BatchOfKeys(threads, d);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    std::vector<dpf::SubtreeKey> subkeys;
    for (const dpf::DpfKey& key : keys) {
      subkeys.push_back(dpf::SplitForShards(key, top_bits)[s]);
    }
    std::vector<Bytes> serial, pooled;
    shards[s].AnswerBatch(subkeys, serial);
    shards[s].AnswerBatch(subkeys, pooled, &pool);
    for (std::size_t q = 0; q < keys.size(); ++q) {
      const Bytes expected = ReferenceAnswer(
          packed, 96, dpf::EvalSubtree(subkeys[q]), top_bits, s);
      EXPECT_EQ(pooled[q], expected) << "threads=" << threads << " d=" << d
                                     << " key " << q << " shard " << s;
      EXPECT_EQ(serial[q], expected)
          << "d=" << d << " key " << q << " shard " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PoolsAndDomains, DpfParallelTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 8),
                                            ::testing::Values(1, 5, 12, 18)));

TEST(PirStore, KeysEnumeratesPublished) {
  PirStore store(SmallStoreConfig());
  ASSERT_TRUE(store.Publish("a", ToBytes("1")).ok());
  ASSERT_TRUE(store.Publish("b", ToBytes("2")).ok());
  auto keys = store.Keys();
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b"}));
}

// ---------------------------------------------------------------- batcher

TEST(BatchScheduler, SingleSubmitWorks) {
  PirStore store(SmallStoreConfig());
  ASSERT_TRUE(store.Publish("k", ToBytes("v")).ok());
  BatchScheduler batcher(store, BatchConfig{});
  const pir::QueryKeys q =
      pir::MakeIndexQuery(store.mapper().IndexOf("k"), store.domain_bits());
  auto a0 = batcher.Submit(q.key0);
  ASSERT_TRUE(a0.ok());
  EXPECT_EQ(*a0, store.AnswerQuery(q.key0).value());
}

TEST(BatchScheduler, ConcurrentSubmitsShareBatches) {
  PirStore store(SmallStoreConfig());
  for (int i = 0; i < 20; ++i) {
    (void)store.Publish("k" + std::to_string(i), ToBytes("v"));
  }
  BatchConfig config;
  config.max_batch = 8;
  config.max_wait = std::chrono::milliseconds(50);
  BatchScheduler batcher(store, config);

  constexpr int kClients = 24;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const pir::QueryKeys q = pir::MakeIndexQuery(
          static_cast<std::uint64_t>(c), store.domain_bits());
      auto answer = batcher.Submit(q.key0);
      if (!answer.ok() || *answer != store.AnswerQuery(q.key0).value()) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const auto stats = batcher.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kClients));
  // With a 50 ms window, the 24 clients must have shared batches.
  EXPECT_LT(stats.batches, static_cast<std::uint64_t>(kClients));
  EXPECT_GT(stats.average_batch_size(), 1.0);
}

TEST(BatchScheduler, RejectsWrongDomainWithoutPoisoningBatch) {
  PirStore store(SmallStoreConfig(12, 128));
  BatchScheduler batcher(store, BatchConfig{});
  const pir::QueryKeys bad = pir::MakeIndexQuery(0, 8);
  EXPECT_FALSE(batcher.Submit(bad.key0).ok());
  const pir::QueryKeys good = pir::MakeIndexQuery(0, 12);
  EXPECT_TRUE(batcher.Submit(good.key0).ok());
}

TEST(BatchScheduler, StopFailsPendingAndFutureSubmits) {
  PirStore store(SmallStoreConfig());
  BatchScheduler batcher(store, BatchConfig{});
  batcher.Stop();
  const pir::QueryKeys q = pir::MakeIndexQuery(0, store.domain_bits());
  EXPECT_EQ(batcher.Submit(q.key0).status().code(),
            StatusCode::kUnavailable);
}

// Spins (real time) until the scheduler has admitted `n` requests, so tests
// driving a FakeClock can sequence submissions against batch formation
// without ever sleeping for a fixed interval and hoping.
void WaitForAdmitted(const BatchScheduler& batcher, std::uint64_t n) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (batcher.stats().requests < n) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "scheduler never admitted " << n << " requests";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(BatchScheduler, QueueLimitShedsWithResourceExhausted) {
  PirStore store(SmallStoreConfig());
  ASSERT_TRUE(store.Publish("k", ToBytes("v")).ok());
  FakeClock clock;
  BatchConfig config;
  config.max_batch = 8;
  config.max_wait = std::chrono::milliseconds(1000);  // of fake time
  config.queue_limit = 2;
  config.clock = &clock;
  BatchScheduler batcher(store, config);

  // Two admitted riders park in the queue: the co-rider window is open and
  // fake time is frozen, so the batch cannot close underneath the test.
  const pir::QueryKeys q = pir::MakeIndexQuery(1, store.domain_bits());
  std::vector<std::thread> riders;
  std::atomic<int> ok_answers{0};
  for (int i = 0; i < 2; ++i) {
    riders.emplace_back([&] {
      if (batcher.Submit(q.key0).ok()) ++ok_answers;
    });
  }
  WaitForAdmitted(batcher, 2);

  // The third submission finds the queue at queue_limit and is refused
  // immediately — admission control answers without blocking.
  const auto shed = batcher.Submit(q.key0);
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(batcher.stats().shed, 1u);

  // Opening the window lets the parked riders complete normally: shedding
  // rejected the overflow request only, not the queue contents. Advance in
  // window-sized steps: the worker stamps the batch-open time when it first
  // sees a rider, so a single jump could land before that stamp.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ok_answers.load() < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up);
    clock.Advance(std::chrono::milliseconds(1100));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& t : riders) t.join();
  EXPECT_EQ(ok_answers.load(), 2);
  const auto stats = batcher.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.wait_closes, 1u);
}

TEST(BatchScheduler, ExpiredCoRiderFailsWhileFreshOnesRide) {
  PirStore store(SmallStoreConfig());
  ASSERT_TRUE(store.Publish("k", ToBytes("v")).ok());
  FakeClock clock;
  BatchConfig config;
  config.max_batch = 8;
  config.max_wait = std::chrono::milliseconds(100);
  config.deadline_budget = std::chrono::milliseconds(5);
  config.clock = &clock;
  BatchScheduler batcher(store, config);

  // Rider A enqueues at t=0 with deadline t=5ms.
  const pir::QueryKeys qa = pir::MakeIndexQuery(1, store.domain_bits());
  Result<Bytes> answer_a = InternalError("unset");
  std::thread rider_a([&] { answer_a = batcher.Submit(qa.key0); });
  WaitForAdmitted(batcher, 1);

  // Rider B enqueues at t=3ms with deadline t=8ms.
  clock.Advance(std::chrono::milliseconds(3));
  const pir::QueryKeys qb = pir::MakeIndexQuery(2, store.domain_bits());
  Result<Bytes> answer_b = InternalError("unset");
  std::thread rider_b([&] { answer_b = batcher.Submit(qb.key0); });
  WaitForAdmitted(batcher, 2);

  // Jump to t=7ms: past the earliest deadline, so the batch closes
  // (deadline-driven — 5ms beats the 100ms co-rider window), rider A is
  // already expired at formation, and rider B still makes it.
  clock.Advance(std::chrono::milliseconds(4));
  rider_a.join();
  rider_b.join();
  EXPECT_EQ(answer_a.status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(answer_b.ok()) << answer_b.status().ToString();
  EXPECT_EQ(*answer_b, store.AnswerQuery(qb.key0).value());

  const auto stats = batcher.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.deadline_closes, 1u);
  // average_batch_size counts only riders that actually rode.
  EXPECT_DOUBLE_EQ(stats.average_batch_size(), 1.0);
}

TEST(BatchScheduler, StopAnswersEveryInFlightRequest) {
  PirStore store(SmallStoreConfig());
  for (int i = 0; i < 10; ++i) {
    (void)store.Publish("k" + std::to_string(i), ToBytes("v"));
  }
  // A long window parks all riders in the queue until Stop() drains them.
  BatchConfig config;
  config.max_batch = 64;
  config.max_wait = std::chrono::milliseconds(10000);
  BatchScheduler batcher(store, config);

  constexpr int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> wrong{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const pir::QueryKeys q = pir::MakeIndexQuery(
          static_cast<std::uint64_t>(c), store.domain_bits());
      const auto answer = batcher.Submit(q.key0);
      // Stop() promises a real answer for everything already admitted.
      if (!answer.ok() || *answer != store.AnswerQuery(q.key0).value()) {
        ++wrong;
      }
    });
  }
  WaitForAdmitted(batcher, kClients);
  batcher.Stop();
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(batcher.stats().requests, static_cast<std::uint64_t>(kClients));
}

// Batches over a store whose rows sit in 2^3 buckets (d = 19): the pass
// expands each rider's key bucket by bucket.
TEST(BatchScheduler, ShardedBatchesMatchIndividualAnswers) {
  PirStore store(SmallStoreConfig(19, 128));
  for (int i = 0; i < 32; ++i) {
    (void)store.Publish("k" + std::to_string(i), ToBytes("v"));
  }
  constexpr int kQueries = 24;
  std::vector<pir::QueryKeys> queries;
  std::vector<Bytes> expected;
  Rng rng(3);
  for (int i = 0; i < kQueries; ++i) {
    queries.push_back(pir::MakeIndexQuery(rng.UniformInt(1 << 19),
                                          store.domain_bits()));
    expected.push_back(store.AnswerQuery(queries.back().key0).value());
  }

  BatchConfig config;
  config.max_batch = 4;
  config.max_wait = std::chrono::milliseconds(5);
  BatchScheduler batcher(store, config);
  std::vector<Bytes> answers(kQueries);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kQueries; ++i) {
    threads.emplace_back([&, i] {
      auto answer = batcher.Submit(queries[i].key0);
      if (answer.ok()) {
        answers[i] = std::move(*answer);
      } else {
        ++failures;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(answers, expected);
}

// A fake answerer: each key answers as its own one-byte record, and a
// batch holding a negative key fails as a whole, as a store would whose
// pass broke.
struct ByteAnswerer {
  Status CheckKey(const int&) const { return Status::Ok(); }
  Result<std::vector<Bytes>> AnswerBatch(const std::vector<int>& keys,
                                         ThreadPool*) const {
    std::vector<Bytes> answers;
    for (const int key : keys) {
      if (key < 0) return UnavailableError("pass failed");
      answers.push_back(Bytes{static_cast<std::uint8_t>(key)});
    }
    return answers;
  }
};

TEST(BatchScheduler, FailedPassFailsEveryRiderAndTheNextBatchRuns) {
  ByteAnswerer answerer;
  // The batch closes only when full, so both riders share it.
  BatchConfig config;
  config.max_batch = 2;
  config.max_wait = std::chrono::hours(1);
  BasicBatchScheduler<int, ByteAnswerer> batcher(answerer, config);

  Result<Bytes> broken = InternalError("unset");
  Result<Bytes> co_rider = InternalError("unset");
  std::thread a([&] { broken = batcher.Submit(-1); });
  std::thread b([&] { co_rider = batcher.Submit(5); });
  a.join();
  b.join();
  EXPECT_EQ(broken.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(co_rider.status().code(), StatusCode::kUnavailable);

  Result<Bytes> next = InternalError("unset");
  std::thread c([&] { next = batcher.Submit(7); });
  EXPECT_EQ(batcher.Submit(9).value(), Bytes{9});
  c.join();
  EXPECT_EQ(next.value(), Bytes{7});
  EXPECT_EQ(batcher.stats().batches, 2u);
}

// --------------------------------------------- end-to-end PIR sessions

class PirSessionTest : public ::testing::Test {
 protected:
  PirSessionTest()
      : store_(SmallStoreConfig()),
        server0_(store_, 0),
        server1_(store_, 1) {}

  // In the real system the two logical servers hold replicas in separate
  // trust domains; sharing one PirStore in-process is equivalent for
  // correctness tests.
  Result<PirSession> Connect() {
    net::TransportPair p0 = net::CreateInMemoryPair();
    net::TransportPair p1 = net::CreateInMemoryPair();
    server0_.ServeConnectionDetached(std::move(p0.b));
    server1_.ServeConnectionDetached(std::move(p1.b));
    return PirSession::Establish(
      EstablishOptions::FromTransports(
      std::move(p0.a), std::move(p1.a)));
  }

  PirStore store_;
  ZltpPirServer server0_;
  ZltpPirServer server1_;
};

TEST_F(PirSessionTest, EstablishNegotiatesParameters) {
  auto session = Connect();
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->domain_bits(), store_.domain_bits());
  EXPECT_EQ(session->record_size(), store_.record_size());
  EXPECT_EQ(session->keyword_seed(), store_.config().keyword_seed);
  session->Close();
}

TEST_F(PirSessionTest, PrivateGetRoundTrip) {
  ASSERT_TRUE(store_.Publish("nytimes.com/africa", ToBytes("uganda news")).ok());
  auto session = Connect();
  ASSERT_TRUE(session.ok());
  auto value = session->PrivateGet("nytimes.com/africa");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(ToString(*value), "uganda news");
  session->Close();
}

TEST_F(PirSessionTest, MissingKeyIsNotFound) {
  auto session = Connect();
  ASSERT_TRUE(session.ok());
  auto value = session->PrivateGet("never-published");
  EXPECT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kNotFound);
  session->Close();
}

TEST_F(PirSessionTest, ManyKeysRoundTrip) {
  std::vector<std::string> published;
  for (int i = 0; i < 40; ++i) {
    const std::string key = "site/page" + std::to_string(i);
    if (store_.Publish(key, ToBytes("content" + std::to_string(i))).ok()) {
      published.push_back(key);
    }
  }
  ASSERT_GT(published.size(), 30u);
  auto session = Connect();
  ASSERT_TRUE(session.ok());
  for (const auto& key : published) {
    auto value = session->PrivateGet(key);
    ASSERT_TRUE(value.ok()) << key << ": " << value.status().ToString();
    EXPECT_EQ(ToString(*value),
              "content" + key.substr(std::string("site/page").size()));
  }
  session->Close();
}

TEST_F(PirSessionTest, DummyGetIndistinguishableTrafficCost) {
  ASSERT_TRUE(store_.Publish("real-page", ToBytes("data")).ok());
  auto session = Connect();
  ASSERT_TRUE(session.ok());

  const auto before = session->traffic();
  ASSERT_TRUE(session->PrivateGet("real-page").ok());
  const auto after_real = session->traffic();
  ASSERT_TRUE(session->DummyGet().ok());
  const auto after_dummy = session->traffic();

  const std::uint64_t real_sent = after_real.bytes_sent - before.bytes_sent;
  const std::uint64_t dummy_sent =
      after_dummy.bytes_sent - after_real.bytes_sent;
  EXPECT_EQ(real_sent, dummy_sent);
  const std::uint64_t real_recv =
      after_real.bytes_received - before.bytes_received;
  const std::uint64_t dummy_recv =
      after_dummy.bytes_received - after_real.bytes_received;
  EXPECT_EQ(real_recv, dummy_recv);
}

TEST_F(PirSessionTest, PublishAfterConnectIsVisible) {
  auto session = Connect();
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(session->PrivateGet("late").ok());
  ASSERT_TRUE(store_.Publish("late", ToBytes("arrived")).ok());
  EXPECT_EQ(ToString(session->PrivateGet("late").value()), "arrived");
}

TEST(PirSessionErrors, BothConnectionsSameRoleRejected) {
  PirStore store(SmallStoreConfig());
  ZltpPirServer server0(store, 0);
  net::TransportPair p0 = net::CreateInMemoryPair();
  net::TransportPair p1 = net::CreateInMemoryPair();
  server0.ServeConnectionDetached(std::move(p0.b));
  server0.ServeConnectionDetached(std::move(p1.b));  // same role twice!
  auto session = PirSession::Establish(
      EstablishOptions::FromTransports(
      std::move(p0.a), std::move(p1.a)));
  EXPECT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PirSessionErrors, MismatchedUniversesRejected) {
  PirStore store_a(SmallStoreConfig(12, 128));
  PirStore store_b(SmallStoreConfig(14, 128));  // different domain
  ZltpPirServer server0(store_a, 0);
  ZltpPirServer server1(store_b, 1);
  net::TransportPair p0 = net::CreateInMemoryPair();
  net::TransportPair p1 = net::CreateInMemoryPair();
  server0.ServeConnectionDetached(std::move(p0.b));
  server1.ServeConnectionDetached(std::move(p1.b));
  auto session = PirSession::Establish(
      EstablishOptions::FromTransports(
      std::move(p0.a), std::move(p1.a)));
  EXPECT_FALSE(session.ok());
}

TEST(PirSessionErrors, UnpublishedKeyAtATakenIndexIsCollision) {
  // 32 slots and one published key: an unpublished key that hashes to its
  // slot reconstructs that key's record and must read COLLISION, and a key
  // whose slot is empty must read NOT_FOUND.
  PirStore store(SmallStoreConfig(5, 64));
  ASSERT_TRUE(store.Publish("a.com/page", ToBytes("a's page")).ok());
  const std::uint64_t taken = store.mapper().IndexOf("a.com/page");
  std::string colliding;
  std::string empty_slot;
  for (int i = 0; i < 10000 && (colliding.empty() || empty_slot.empty());
       ++i) {
    const std::string key = "b.com/page-" + std::to_string(i);
    std::string& slot =
        store.mapper().IndexOf(key) == taken ? colliding : empty_slot;
    if (slot.empty()) slot = key;
  }
  ASSERT_FALSE(colliding.empty());
  ASSERT_FALSE(empty_slot.empty());
  ZltpPirServer server0(store, 0);
  ZltpPirServer server1(store, 1);
  net::TransportPair p0 = net::CreateInMemoryPair();
  net::TransportPair p1 = net::CreateInMemoryPair();
  server0.ServeConnectionDetached(std::move(p0.b));
  server1.ServeConnectionDetached(std::move(p1.b));
  auto session = PirSession::Establish(
      EstablishOptions::FromTransports(std::move(p0.a), std::move(p1.a)));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->PrivateGet(colliding).status().code(),
            StatusCode::kCollision);
  EXPECT_EQ(session->PrivateGet(empty_slot).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ToString(session->PrivateGet("a.com/page").value()), "a's page");
  session->Close();
}

// A peer on protocol version 1 would send single-bit-leaf DPF keys; it must
// be turned away at the hello so an old-format key never reaches
// DpfKey::Deserialize.
ClientHello Version1Hello() {
  ClientHello hello;
  hello.version = 1;
  hello.supported_modes = {Mode::kTwoServerPir};
  return hello;
}

void ExpectVersion1HelloRefused(net::Transport& client) {
  ASSERT_TRUE(client.Send(Encode(Version1Hello())).ok());
  auto reply = client.Receive();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto error = DecodeError(*reply);
  ASSERT_TRUE(error.ok()) << error.status().ToString();
  EXPECT_EQ(error->code, StatusCode::kProtocolError);
}

TEST(PirSessionErrors, ThreadedServerRejectsVersion1Hello) {
  PirStore store(SmallStoreConfig());
  ZltpPirServer server(store, 0);
  net::TransportPair p = net::CreateInMemoryPair();
  server.ServeConnectionDetached(std::move(p.b));
  ExpectVersion1HelloRefused(*p.a);
}

TEST(PirSessionErrors, ReactorServerRejectsVersion1Hello) {
  PirStore store(SmallStoreConfig());
  net::Reactor reactor;
  ZltpPirServer server(store, 0);
  auto listener = net::TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  const std::uint16_t port = listener->bound_port();
  ASSERT_TRUE(server.ServeOnReactor(reactor, std::move(*listener)).ok());
  ASSERT_TRUE(reactor.Start().ok());
  auto client = net::TcpConnect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  ExpectVersion1HelloRefused(**client);
  EXPECT_FALSE((*client)->Receive().ok());  // error, then hang up
  reactor.Stop();
}

TEST(PirSessionErrors, ClientRefusesVersion1ServerHello) {
  PirStore store(SmallStoreConfig());
  ZltpPirServer server1(store, 1);
  net::TransportPair p0 = net::CreateInMemoryPair();
  net::TransportPair p1 = net::CreateInMemoryPair();
  server1.ServeConnectionDetached(std::move(p1.b));
  // Server 0 answers in protocol version 1, otherwise well-formed.
  std::thread old_server([t = std::move(p0.b), &store] {
    if (!t->Receive().ok()) return;
    ServerHello hello;
    hello.version = 1;
    hello.mode = Mode::kTwoServerPir;
    hello.server_role = 0;
    hello.domain_bits = static_cast<std::uint8_t>(store.domain_bits());
    hello.record_size = static_cast<std::uint32_t>(store.record_size());
    hello.keyword_seed = store.config().keyword_seed;
    (void)t->Send(Encode(hello));
    (void)t->Receive();  // until the client hangs up
  });
  auto session = PirSession::Establish(
      EstablishOptions::FromTransports(std::move(p0.a), std::move(p1.a)));
  old_server.join();
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kProtocolError);
}

TEST(PirSessionErrors, ServerRejectsUnsupportedMode) {
  PirStore store(SmallStoreConfig());
  ZltpPirServer server(store, 0);
  net::TransportPair p = net::CreateInMemoryPair();
  server.ServeConnectionDetached(std::move(p.b));
  // An enclave-only client hello.
  ClientHello hello;
  hello.supported_modes = {Mode::kEnclave};
  ASSERT_TRUE(p.a->Send(Encode(hello)).ok());
  auto reply = p.a->Receive();
  ASSERT_TRUE(reply.ok());
  auto error = DecodeError(*reply);
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->code, StatusCode::kFailedPrecondition);
}

// ------------------------------------------------- enclave-mode session

TEST(EnclaveSessionTest, EndToEnd) {
  oram::EnclaveConfig config;
  config.capacity = 64;
  config.value_size = 128;
  oram::MemoryStorage storage(oram::KvEnclave::RequiredStorageBuckets(config));
  oram::KvEnclave enclave(config, storage);
  ASSERT_TRUE(enclave.Put("wiki/Uganda", ToBytes("landlocked country")).ok());

  ZltpEnclaveServer server(enclave);
  net::TransportPair p = net::CreateInMemoryPair();
  server.ServeConnectionDetached(std::move(p.b));

  auto session = EnclaveSession::Establish(EstablishOptions::FromTransports(std::move(p.a)));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto value = session->PrivateGet("wiki/Uganda");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(ToString(*value), "landlocked country");

  auto missing = session->PrivateGet("wiki/Atlantis");
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  session->Close();
}

// ------------------------------------------------- pipelined batch GETs

TEST_F(PirSessionTest, BatchMatchesIndividualGets) {
  std::vector<std::string> keys;
  for (int i = 0; i < 12; ++i) {
    const std::string key = "batch/page" + std::to_string(i);
    if (store_.Publish(key, ToBytes("v" + std::to_string(i))).ok()) {
      keys.push_back(key);
    }
  }
  keys.push_back("batch/unpublished");  // NOT_FOUND inside the batch
  auto session = Connect();
  ASSERT_TRUE(session.ok());

  auto batch = session->PrivateGetBatch(keys, /*extra_dummies=*/2);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    auto individual = session->PrivateGet(keys[i]);
    EXPECT_EQ((*batch)[i].ok(), individual.ok()) << keys[i];
    if (individual.ok()) {
      EXPECT_EQ((*batch)[i].value(), *individual);
    } else {
      EXPECT_EQ((*batch)[i].status().code(), individual.status().code());
    }
  }
  session->Close();
}

TEST_F(PirSessionTest, BatchCountsDummiesInTraffic) {
  ASSERT_TRUE(store_.Publish("k", ToBytes("v")).ok());
  auto session = Connect();
  ASSERT_TRUE(session.ok());
  const auto before = session->traffic();
  auto batch = session->PrivateGetBatch({"k"}, /*extra_dummies=*/4);
  ASSERT_TRUE(batch.ok());
  const auto after = session->traffic();
  // 5 requests on the wire: the observer cannot tell real from dummy.
  EXPECT_EQ(after.requests - before.requests, 5u);
  session->Close();
}

TEST_F(PirSessionTest, EmptyBatchIsNoop) {
  auto session = Connect();
  ASSERT_TRUE(session.ok());
  auto batch = session->PrivateGetBatch({}, 0);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(batch->empty());
  EXPECT_FALSE(session->PrivateGetBatch({}, -1).ok());
}

TEST(PirBatchCoBatching, PipelinedRequestsShareServerScans) {
  PirStore store(SmallStoreConfig());
  for (int i = 0; i < 10; ++i) {
    (void)store.Publish("p" + std::to_string(i), ToBytes("v"));
  }
  BatchConfig batch_config;
  batch_config.max_batch = 16;
  batch_config.max_wait = std::chrono::milliseconds(50);
  ZltpPirServer server0(store, 0, ServerOptions{batch_config});
  ZltpPirServer server1(store, 1, ServerOptions{batch_config});
  net::TransportPair p0 = net::CreateInMemoryPair();
  net::TransportPair p1 = net::CreateInMemoryPair();
  server0.ServeConnectionDetached(std::move(p0.b));
  server1.ServeConnectionDetached(std::move(p1.b));
  auto session = PirSession::Establish(
      EstablishOptions::FromTransports(
      std::move(p0.a), std::move(p1.a)));
  ASSERT_TRUE(session.ok());

  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) keys.push_back("p" + std::to_string(i));
  auto batch = session->PrivateGetBatch(keys);
  ASSERT_TRUE(batch.ok());
  for (const auto& r : *batch) EXPECT_TRUE(r.ok());

  // The 8 pipelined requests must have shared server-side scans.
  const auto stats = server0.batch_stats();
  EXPECT_EQ(stats.requests, 8u);
  EXPECT_LT(stats.batches, 8u);
  EXPECT_GT(stats.average_batch_size(), 1.5);
  session->Close();
}

TEST(PirThreaded, RoundTripThroughWorkerPool) {
  // The server's DPF expansion + scan run on its thread pool; results must
  // be identical to the serial server for any pool size.
  PirStore store(SmallStoreConfig());
  std::vector<std::string> published;
  for (int i = 0; i < 12; ++i) {
    const std::string key = "pooled/p" + std::to_string(i);
    if (store.Publish(key, ToBytes("value" + std::to_string(i))).ok()) {
      published.push_back(key);
    }
  }
  ASSERT_GT(published.size(), 8u);

  for (const int threads : {2, 3}) {
    ServerOptions options;
    options.num_threads = threads;
    ZltpPirServer server0(store, 0, options);
    ZltpPirServer server1(store, 1, options);
    net::TransportPair p0 = net::CreateInMemoryPair();
    net::TransportPair p1 = net::CreateInMemoryPair();
    server0.ServeConnectionDetached(std::move(p0.b));
    server1.ServeConnectionDetached(std::move(p1.b));
    auto session = PirSession::Establish(
      EstablishOptions::FromTransports(
      std::move(p0.a), std::move(p1.a)));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    for (const auto& key : published) {
      auto value = session->PrivateGet(key);
      ASSERT_TRUE(value.ok())
          << key << " threads=" << threads << ": "
          << value.status().ToString();
      EXPECT_EQ(ToString(*value),
                "value" + key.substr(std::string("pooled/p").size()));
    }
    session->Close();
  }
}

// ----------------------------------------------------- sessions over TCP

TEST(TcpSessionTest, PirOverRealSockets) {
  PirStore store(SmallStoreConfig());
  ASSERT_TRUE(store.Publish("tcp-page", ToBytes("over the wire")).ok());
  ZltpPirServer server0(store, 0);
  ZltpPirServer server1(store, 1);

  auto l0 = net::TcpListener::Listen(0);
  auto l1 = net::TcpListener::Listen(0);
  ASSERT_TRUE(l0.ok() && l1.ok());

  std::thread acceptor([&] {
    auto c0 = l0->Accept();
    ASSERT_TRUE(c0.ok());
    server0.ServeConnectionDetached(std::move(*c0));
    auto c1 = l1->Accept();
    ASSERT_TRUE(c1.ok());
    server1.ServeConnectionDetached(std::move(*c1));
  });

  auto t0 = net::TcpConnect("127.0.0.1", l0->bound_port());
  auto t1 = net::TcpConnect("127.0.0.1", l1->bound_port());
  ASSERT_TRUE(t0.ok() && t1.ok());
  acceptor.join();

  auto session = PirSession::Establish(
      EstablishOptions::FromTransports(
      std::move(*t0), std::move(*t1)));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(ToString(session->PrivateGet("tcp-page").value()),
            "over the wire");
  session->Close();
}

}  // namespace
}  // namespace lw::zltp
