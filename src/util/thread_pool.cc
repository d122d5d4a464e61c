#include "util/thread_pool.h"

#include <utility>

namespace lw {

int ThreadPool::HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = HardwareThreads();
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::RunClaimed(std::unique_lock<std::mutex>& lock) {
  while (fn_ != nullptr && next_ < n_) {
    const std::size_t i = next_++;
    const std::function<void(std::size_t)>& fn = *fn_;
    lock.unlock();
    std::exception_ptr error;
    try {
      fn(i);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error && !error_) error_ = std::move(error);
    if (++returned_ == n_) done_cv_.notify_one();
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock,
                  [&] { return stop_ || (fn_ != nullptr && next_ < n_); });
    if (stop_) return;
    RunClaimed(lock);
  }
}

void ThreadPool::Run(std::size_t n,
                     const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::lock_guard<std::mutex> turn(turn_mu_);
  std::unique_lock<std::mutex> lock(mu_);
  fn_ = &fn;
  n_ = n;
  next_ = 0;
  returned_ = 0;
  work_cv_.notify_all();
  RunClaimed(lock);
  // Every index is claimed; wait for the calls still running on workers.
  done_cv_.wait(lock, [&] { return returned_ == n_; });
  fn_ = nullptr;
  const std::exception_ptr error = std::exchange(error_, nullptr);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

}  // namespace lw
