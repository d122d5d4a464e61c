// Admission-controlled request batching for ZLTP PIR servers.
//
// The dominant per-request cost is the linear scan over stored records;
// batching B requests lets the server make ONE pass over the data per batch,
// trading latency for throughput (paper §5.1, "Batching requests to
// increase throughput": batch 16 → 2.6 s latency / 6 req/s vs batch 1 →
// 0.51 s / 2 req/s on their shard).
//
// This scheduler pushes that design to production shape:
//
//  One batch worker.  A single thread forms a batch under the close rule
//  below, answers it with PirStore::AnswerBatch (every rider's DPF
//  expansion, then one fused scan over the records), and completes the
//  riders. A server has one batch in flight in the paper workloads, so
//  there is no second batch whose expansion could overlap this scan
//  (docs/PERFORMANCE.md, "One batch worker").
//
//  Admission control.  Submit sheds load with RESOURCE_EXHAUSTED once
//  queue_limit requests are already waiting — bounding queue wait instead
//  of letting tail latency grow without limit. With a deadline_budget, each
//  request carries deadline = enqueue + budget, and a batch closes at
//      min(first_arrival + max_wait,
//          earliest rider deadline - EWMA of recent scan times)
//  so a batch starts early enough for its most impatient rider to make its
//  deadline given how long scans have recently taken. Riders whose
//  deadline has already passed at batch formation fail DEADLINE_EXCEEDED
//  rather than riding (and delaying) the batch.
//
// Time is read through an injectable lw::Clock so admission-control tests
// drive deadlines deterministically with a FakeClock; condition waits use
// short real-time slices and re-check the injected clock.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "dpf/dpf.h"
#include "obs/trace.h"
#include "util/clock.h"
#include "util/status.h"
#include "zltp/store.h"

namespace lw {
class ThreadPool;
}

namespace lw::zltp {

struct BatchConfig {
  std::size_t max_batch = 16;
  // Co-rider window: how long the first rider of a batch waits for company.
  std::chrono::milliseconds max_wait{2};
  // Admission queue bound: submissions beyond this many waiting requests
  // are shed with RESOURCE_EXHAUSTED. 0 = unbounded (no shedding).
  std::size_t queue_limit = 0;
  // Per-request deadline budget: a request wants its answer within this
  // long of submission; batches close early so riders make it, and riders
  // already past their deadline at formation fail DEADLINE_EXCEEDED.
  // 0 = disabled (batches close on max_batch/max_wait only).
  std::chrono::milliseconds deadline_budget{0};
  // Time source for the queue/deadline machinery. null = Clock::Real().
  Clock* clock = nullptr;
};

class BatchScheduler {
 public:
  // `pool` (optional, not owned, must outlive the scheduler) parallelizes
  // each batch's DPF expansions and data scans across its workers.
  BatchScheduler(const PirStore& store, BatchConfig config,
                 ThreadPool* pool = nullptr);
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  // Completion callback for SubmitAsync: invoked exactly once with the
  // record share (or the failure) and the batch-level expand/scan timings
  // (every co-rider of a batch is credited the full fused pass). Runs on
  // the batch worker for answered requests and on the submitting or
  // stopping thread for rejections, so it must be quick and must not block
  // on the scheduler itself.
  using SubmitCallback =
      std::function<void(Result<Bytes>, const obs::StageTimings&)>;

  // Queues one query and returns immediately; `done` fires when its batch
  // has been scanned (or the request failed admission: UNAVAILABLE after
  // Stop(), RESOURCE_EXHAUSTED when shed, DEADLINE_EXCEEDED when the
  // deadline budget expired before its batch formed). This is how the
  // event-driven serve path rides the batcher without parking a thread per
  // request: the reactor's on_frame decodes, calls SubmitAsync, and the
  // callback queues the reply frame (docs/ARCHITECTURE.md).
  void SubmitAsync(dpf::DpfKey key, SubmitCallback done);

  // Blocking convenience over SubmitAsync (the thread-per-connection serve
  // path): waits for the callback, returns the record share. When `stages`
  // is non-null, the batch's expand/scan nanoseconds are written into it
  // before this call returns.
  Result<Bytes> Submit(dpf::DpfKey key, obs::StageTimings* stages = nullptr);

  // Drains queued and in-flight batches, then joins the batch worker
  // (idempotent; dtor calls it). Every callback outstanding at the time of
  // the call fires — answered if its batch was already formed or formable
  // from the queue, UNAVAILABLE otherwise.
  void Stop();

  struct Stats {
    std::uint64_t requests = 0;  // admitted into the queue
    std::uint64_t batches = 0;   // non-empty batches executed
    std::uint64_t shed = 0;      // refused RESOURCE_EXHAUSTED at admission
    std::uint64_t expired = 0;   // failed DEADLINE_EXCEEDED at formation
    // Why batches closed: reached max_batch / closed early for a rider's
    // deadline / co-rider window elapsed.
    std::uint64_t full_closes = 0;
    std::uint64_t deadline_closes = 0;
    std::uint64_t wait_closes = 0;
    double average_batch_size() const {
      return batches == 0 ? 0.0
                          : static_cast<double>(requests - expired) /
                                static_cast<double>(batches);
    }
  };
  // A consistent snapshot: every field is mutated under the queue mutex,
  // so concurrent Submit/worker progress never yields torn stats.
  Stats stats() const;

 private:
  struct Pending {
    dpf::DpfKey key;
    SubmitCallback done;                  // fires exactly once
    std::chrono::nanoseconds enqueued{};  // on config_.clock
    std::chrono::nanoseconds deadline{};  // enqueued + budget, or ns::max()
  };

  void WorkerLoop();
  // Forms one batch under mu_ (waiting out the close rule), or returns
  // false when stopping with an empty queue. Expired riders are failed
  // inside.
  bool FormBatch(std::vector<Pending>& batch);
  // Answers a formed batch, updates the scan-time EWMA, and completes
  // every rider with the batch's expand/scan timings.
  void RunBatch(std::vector<Pending> batch);

  const PirStore& store_;
  BatchConfig config_;
  ThreadPool* pool_;  // may be null (serial scans)
  Clock* clock_;      // never null

  mutable std::mutex mu_;  // queue, stats, scan-time EWMA
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  Stats stats_;
  // EWMA of recent batch scan durations (ns), the close rule's estimate of
  // how long a batch started now will take to answer. 0 until first batch.
  std::uint64_t scan_estimate_ns_ = 0;

  std::thread worker_;
};

}  // namespace lw::zltp
