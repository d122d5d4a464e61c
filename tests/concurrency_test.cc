// Concurrency stress: a CDN serves private GETs while publishers push
// updates, many clients share one batching server, and per-connection
// pipelining runs alongside connection churn. These tests exist to fail
// under TSan/race conditions rather than to check new functionality.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "lightweb/channel.h"
#include "net/transport.h"
#include "pir/two_server.h"
#include "util/file.h"
#include "util/rand.h"
#include "util/thread_pool.h"
#include "zltp/batch.h"
#include "zltp/client.h"
#include "zltp/server.h"
#include "zltp/store.h"

namespace lw {
namespace {

zltp::PirStoreConfig StoreConfig() {
  zltp::PirStoreConfig c;
  c.domain_bits = 12;
  c.record_size = 128;
  c.keyword_seed = Bytes(16, 0x44);
  return c;
}

TEST(Concurrency, QueriesDuringPublishChurn) {
  zltp::PirStore store(StoreConfig());
  for (int i = 0; i < 50; ++i) {
    (void)store.Publish("stable/" + std::to_string(i), ToBytes("v"));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> publish_errors{0};
  std::thread publisher([&] {
    // Continuous updates + new pages + removals while readers query.
    int round = 0;
    while (!stop.load()) {
      const std::string key = "churn/" + std::to_string(round % 20);
      if (store.Contains(key)) {
        if (!store.Unpublish(key).ok()) ++publish_errors;
      } else {
        const Status s =
            store.Publish(key, ToBytes("r" + std::to_string(round)));
        if (!s.ok() && s.code() != StatusCode::kCollision) {
          ++publish_errors;
        }
      }
      ++round;
    }
  });

  std::atomic<int> query_errors{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(static_cast<std::uint64_t>(r));
      for (int i = 0; i < 200; ++i) {
        // Stable keys must ALWAYS reconstruct correctly despite concurrent
        // publishes elsewhere in the store.
        const std::string key =
            "stable/" + std::to_string(rng.UniformInt(50));
        const std::uint64_t index = store.mapper().IndexOf(key);
        const pir::QueryKeys q =
            pir::MakeIndexQuery(index, store.domain_bits());
        auto a0 = store.AnswerQuery(q.key0);
        auto a1 = store.AnswerQuery(q.key1);
        if (!a0.ok() || !a1.ok()) {
          ++query_errors;
          continue;
        }
        auto rec = pir::CombineAnswers(*a0, *a1);
        if (!rec.ok()) ++query_errors;
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  publisher.join();
  EXPECT_EQ(query_errors.load(), 0);
  EXPECT_EQ(publish_errors.load(), 0);
}

TEST(Concurrency, ManyClientsOneBatchingServer) {
  zltp::PirStore store(StoreConfig());
  std::vector<std::string> keys;
  for (int i = 0; i < 30; ++i) {
    const std::string key = "page/" + std::to_string(i);
    if (store.Publish(key, ToBytes("content-" + std::to_string(i))).ok()) {
      keys.push_back(key);
    }
  }
  zltp::BatchConfig batch_config;
  batch_config.max_batch = 8;
  batch_config.max_wait = std::chrono::milliseconds(5);
  zltp::ZltpPirServer server0(store, 0, zltp::ServerOptions{batch_config});
  zltp::ZltpPirServer server1(store, 1, zltp::ServerOptions{batch_config});

  constexpr int kClients = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    net::TransportPair p0 = net::CreateInMemoryPair();
    net::TransportPair p1 = net::CreateInMemoryPair();
    server0.ServeConnectionDetached(std::move(p0.b));
    server1.ServeConnectionDetached(std::move(p1.b));
    clients.emplace_back(
        [&, c, t0 = std::move(p0.a), t1 = std::move(p1.a)]() mutable {
          auto session =
              zltp::PirSession::Establish(
                  zltp::EstablishOptions::FromTransports(
      std::move(t0), std::move(t1)));
          if (!session.ok()) {
            ++failures;
            return;
          }
          Rng rng(static_cast<std::uint64_t>(c) + 77);
          for (int i = 0; i < 15; ++i) {
            const std::string& key = keys[rng.UniformInt(keys.size())];
            auto value = session->PrivateGet(key);
            if (!value.ok() ||
                ToString(*value) !=
                    "content-" + key.substr(std::string("page/").size())) {
              ++failures;
            }
          }
          session->Close();
        });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  // The concurrent clients must actually have shared scans.
  EXPECT_GT(server0.batch_stats().average_batch_size(), 1.0);
}

TEST(Concurrency, PipelinedBatchesFromParallelClients) {
  zltp::PirStore store(StoreConfig());
  std::vector<std::string> keys;
  for (int i = 0; i < 16; ++i) {
    const std::string key = "b/" + std::to_string(i);
    if (store.Publish(key, ToBytes("v" + std::to_string(i))).ok()) {
      keys.push_back(key);
    }
  }
  zltp::ZltpPirServer server0(store, 0);
  zltp::ZltpPirServer server1(store, 1);

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    net::TransportPair p0 = net::CreateInMemoryPair();
    net::TransportPair p1 = net::CreateInMemoryPair();
    server0.ServeConnectionDetached(std::move(p0.b));
    server1.ServeConnectionDetached(std::move(p1.b));
    clients.emplace_back(
        [&, t0 = std::move(p0.a), t1 = std::move(p1.a)]() mutable {
          auto session =
              zltp::PirSession::Establish(
                  zltp::EstablishOptions::FromTransports(
      std::move(t0), std::move(t1)));
          if (!session.ok()) {
            ++failures;
            return;
          }
          for (int round = 0; round < 5; ++round) {
            auto batch = session->PrivateGetBatch(keys, /*extra_dummies=*/2);
            if (!batch.ok()) {
              ++failures;
              continue;
            }
            for (std::size_t i = 0; i < keys.size(); ++i) {
              if (!(*batch)[i].ok()) ++failures;
            }
          }
          session->Close();
        });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Concurrency, BatchSchedulerUnderLoadIsRaceFree) {
  // Keeps the batch worker busy (tiny co-rider window, more clients than
  // max_batch) over a store whose pass fans out to a shared ThreadPool (600
  // rows: two row shards) and expands its keys over 2^2 buckets (d = 18),
  // while submitters queue the next batch and a stats() poller reads on
  // the side. Exists to fail under TSan if the pass's shards, the
  // scan-time EWMA update or the stats snapshot ever race.
  zltp::PirStoreConfig config = StoreConfig();
  config.domain_bits = 18;
  zltp::PirStore store(config);
  for (int i = 0; i < 600; ++i) {
    (void)store.Publish("p/" + std::to_string(i), ToBytes("v"));
  }
  ThreadPool pool(2);
  zltp::BatchConfig batch_config;
  batch_config.max_batch = 4;
  batch_config.max_wait = std::chrono::milliseconds(1);
  zltp::BatchScheduler batcher(store, batch_config, &pool);

  std::atomic<bool> stop_polling{false};
  std::thread poller([&] {
    // Concurrent stats reads must always see a consistent snapshot.
    while (!stop_polling.load()) {
      const auto s = batcher.stats();
      if (s.batches > 0 && s.requests < s.batches) {
        ADD_FAILURE() << "torn stats snapshot";
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  constexpr int kClients = 6;
  constexpr int kPerClient = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(static_cast<std::uint64_t>(c) + 123);
      for (int i = 0; i < kPerClient; ++i) {
        const pir::QueryKeys q = pir::MakeIndexQuery(
            rng.UniformInt(std::uint64_t{1} << store.domain_bits()),
            store.domain_bits());
        auto answer = batcher.Submit(q.key0);
        if (!answer.ok() ||
            *answer != store.AnswerQuery(q.key0).value()) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  stop_polling.store(true);
  poller.join();
  batcher.Stop();
  EXPECT_EQ(failures.load(), 0);
  const auto stats = batcher.stats();
  EXPECT_EQ(stats.requests,
            static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_GT(stats.batches, 1u);
}

TEST(Concurrency, InProcessChannelsAreIndependent) {
  // Distinct browsers (each with its own channel) may run in parallel
  // against one universe store.
  zltp::PirStore store(StoreConfig());
  ASSERT_TRUE(store.Publish("k", ToBytes("v")).ok());
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      lightweb::InProcessPirChannel channel(store);
      for (int i = 0; i < 50; ++i) {
        auto v = channel.PrivateGet("k");
        if (!v.ok() || ToString(*v) != "v") ++failures;
        if (!channel.DummyGet().ok()) ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(FileIo, RoundTripAndErrors) {
  const std::string path = "/tmp/lw_file_test.bin";
  const Bytes data = SecureRandom(1000);
  ASSERT_TRUE(WriteFile(path, data).ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(ToBytes(*read), data);
  EXPECT_FALSE(ReadFileToString("/no/such/dir/file").ok());
  EXPECT_FALSE(WriteFile("/no/such/dir/file", data).ok());
  // Empty file round trip.
  ASSERT_TRUE(WriteFile(path, {}).ok());
  EXPECT_TRUE(ReadFileToString(path)->empty());
}

}  // namespace
}  // namespace lw
