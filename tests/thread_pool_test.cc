// ThreadPool tests: Run calls every index exactly once, the pool is
// reusable, exceptions propagate after the other calls ran, concurrent
// callers take turns, and the caller takes the indices a busy worker
// leaves. No test sleeps or reads a clock. Run under tsan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace lw {
namespace {

// Runs n indices and checks each was called exactly once.
void ExpectEachIndexOnce(ThreadPool& pool, std::size_t n) {
  std::vector<std::atomic<int>> hits(n);
  pool.Run(n, [&](std::size_t i) {
    ASSERT_LT(i, n);
    hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i << " of " << n;
  }
}

class ThreadPoolTest : public ::testing::TestWithParam<int> {};

TEST_P(ThreadPoolTest, CoversRangesExactlyOnce) {
  ThreadPool pool(GetParam());
  for (const std::size_t n : {0, 1, 2, 3, 8, 100}) {
    ExpectEachIndexOnce(pool, n);
  }
}

TEST_P(ThreadPoolTest, ReusableAcrossManyRounds) {
  ThreadPool pool(GetParam());
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.Run(100, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 100u * 99u / 2);
  }
}

TEST_P(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(GetParam());
  for (const std::size_t thrower : {0, 40, 99}) {
    std::vector<std::atomic<int>> hits(100);
    EXPECT_THROW(pool.Run(100,
                          [&](std::size_t i) {
                            hits[i].fetch_add(1);
                            if (i == thrower) throw std::runtime_error("boom");
                          }),
                 std::runtime_error);
    // Every other index still ran, once, before Run rethrew.
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
  // The pool stays usable after an exception.
  ExpectEachIndexOnce(pool, 128);
}

TEST_P(ThreadPoolTest, ConcurrentCallersSerialize) {
  // Several external threads share one pool; each call must still see its
  // own indices exactly once.
  ThreadPool pool(GetParam());
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&pool, &failures] {
      for (int round = 0; round < 20; ++round) {
        std::vector<std::atomic<int>> hits(57);
        pool.Run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
        for (const std::atomic<int>& h : hits) {
          if (h.load() != 1) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ThreadPoolTest,
                         ::testing::Values(1, 2, 3, 8));

TEST(ThreadPool, SingleThreadSpawnsNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  std::set<std::thread::id> seen;
  pool.Run(100, [&](std::size_t) { seen.insert(std::this_thread::get_id()); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(*seen.begin(), std::this_thread::get_id());
}

TEST(ThreadPool, DefaultUsesHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), ThreadPool::HardwareThreads());
  EXPECT_GE(ThreadPool::HardwareThreads(), 1);
}

TEST(ThreadPool, CallerParticipatesInWork) {
  // The worker's first index does not return until three other calls
  // have, and only the caller is left to make them: a pool that gave the
  // worker a fixed share of the indices would never finish this pass. If
  // the worker wakes after the caller took every index, the caller runs
  // all four.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mu;
  std::condition_variable cv;
  int returned = 0;
  int caller_calls = 0;
  std::vector<int> hits(4, 0);
  pool.Run(4, [&](std::size_t i) {
    std::unique_lock<std::mutex> lock(mu);
    ++hits[i];
    if (std::this_thread::get_id() == caller) {
      ++caller_calls;
    } else {
      cv.wait(lock, [&] { return returned == 3; });
    }
    ++returned;
    cv.notify_all();
  });
  EXPECT_EQ(returned, 4);
  EXPECT_GE(caller_calls, 3);
  EXPECT_EQ(hits, std::vector<int>(4, 1));
}

}  // namespace
}  // namespace lw
