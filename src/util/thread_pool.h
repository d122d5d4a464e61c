// Fixed-size worker pool for the one multi-core pass of a data server.
//
// The ZLTP server's per-request cost is one pass over the records (paper
// §5.1), and the paper's latency figures assume the server "can use
// multiple cores". pir::BlobDatabase::AnswerBatch splits that pass into row
// shards that balance their own rows, and runs them here through Run. A
// fixed worker set is spawned once per server and reused across passes, so
// the steady state pays no thread creation.
//
// Run(n, fn) hands out the indices 0..n-1 one at a time: the caller and the
// workers each take the next unclaimed index whenever they are free. The
// calling thread always participates, so a worker that wakes late leaves
// its share to the caller instead of holding up the pass, and a pool built
// with threads <= 1 spawns no workers and runs everything on the caller.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lw {

class ThreadPool {
 public:
  // Total threads Run may use, including the caller: a pool built with
  // `threads` spawns threads-1 workers. threads <= 0 selects
  // HardwareThreads().
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Number of threads a Run can occupy (workers + caller); >= 1.
  int thread_count() const { return static_cast<int>(workers_.size()) + 1; }

  // Calls fn(i) once for every i < n, on up to thread_count() threads, and
  // returns when every call has returned. If calls throw, the first
  // exception is rethrown here after the other calls finished. Concurrent
  // callers take turns. fn must not call Run on this pool.
  void Run(std::size_t n, const std::function<void(std::size_t)>& fn);

  // std::thread::hardware_concurrency(), clamped to at least 1.
  static int HardwareThreads();

 private:
  void WorkerLoop();
  // Claims and runs the current pass's unclaimed indices until none is
  // left. Called with mu_ held; releases it around each call.
  void RunClaimed(std::unique_lock<std::mutex>& lock);

  std::vector<std::thread> workers_;

  std::mutex turn_mu_;  // held by the caller whose pass is running
  std::mutex mu_;       // guards everything below
  std::condition_variable work_cv_;  // a pass started, or stop_
  std::condition_variable done_cv_;  // the pass's last call returned
  const std::function<void(std::size_t)>* fn_ = nullptr;  // null: no pass
  std::size_t n_ = 0;
  std::size_t next_ = 0;      // next unclaimed index
  std::size_t returned_ = 0;  // calls that have returned
  std::exception_ptr error_;  // first exception of the pass
  bool stop_ = false;
};

}  // namespace lw
