// A small FIFO task queue with dedicated worker threads.
//
// The epoll reactor's frame handlers must never block (net/reactor.h), but
// the ORAM enclave computes inline and serially, one request at a time.
// Its serve path posts each decoded request here and returns to the loop;
// a worker runs the blocking compute and queues the reply via
// Reactor::Send.
//
// This is deliberately NOT ThreadPool: ParallelFor spreads one big job
// across cores; this queue serializes many small independent jobs off the
// latency-critical loop thread. The PIR servers and the shard data servers
// need neither — a BatchScheduler's admission queue is their dispatcher.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lw {

class TaskQueue {
 public:
  // `workers` threads drain the queue in FIFO order. With one worker,
  // tasks additionally execute in submission order — the property the
  // enclave and fan-out serve paths rely on for their per-connection
  // reply ordering.
  explicit TaskQueue(int workers = 1);
  ~TaskQueue();  // Stop()s.

  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  // Enqueues a task; false (task dropped) after Stop. Unbounded by design:
  // callers that need admission control shed before posting (the batch
  // scheduler's queue_limit is the model).
  bool Post(std::function<void()> task);

  // Drains already-queued tasks, then joins the workers. Idempotent.
  void Stop();

  std::size_t depth() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace lw
