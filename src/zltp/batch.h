// Admission-controlled request batching for ZLTP servers.
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
//  below, answers it with one AnswerBatch call on its answerer (one fused
//  pass over the records that expands every rider's DPF key bucket by
//  bucket as it sweeps), and completes the riders. A server has one batch
//  in flight in the paper workloads, so there is no second batch whose
//  expansion could overlap this scan (docs/PERFORMANCE.md, "One batch
//  worker").
//
//  One engine, three answerers.  BasicBatchScheduler<Key, Answerer> batches
//  riders' keys against an Answerer that provides
//      Status CheckKey(const Key&) const;
//          admission: a key that fails it is answered with its error at
//          once and never joins a batch, so it cannot fail its co-riders;
//      Result<std::vector<Bytes>> AnswerBatch(const std::vector<Key>&,
//                                             ThreadPool*) const;
//          one pass over the data for the whole batch, answers in key
//          order.
//  BatchScheduler answers full DPF keys against a PirStore (ZltpPirServer);
//  a ShardDataServer answers §5.2 sub-tree keys against its own slice of
//  the universe (src/zltp/frontend.h); a ZltpEnclaveServer answers sealed
//  requests one rider at a time (max_batch 1), which makes the scheduler
//  its serial executor off the serving threads (src/zltp/server.h). Tests
//  substitute fake answerers.
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

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "dpf/dpf.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
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
  // 0 closes each batch on whatever is queued when its first rider is seen.
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

struct BatchStats {
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

template <typename Key, typename Answerer>
class BasicBatchScheduler {
 public:
  using Stats = BatchStats;

  // `answerer` (not owned) must outlive the scheduler. `pool` (optional,
  // not owned, must outlive the scheduler) is handed to every AnswerBatch
  // call to run the batch's pass, its expansion included, on several
  // cores.
  BasicBatchScheduler(const Answerer& answerer, BatchConfig config,
                      ThreadPool* pool = nullptr);
  ~BasicBatchScheduler();

  BasicBatchScheduler(const BasicBatchScheduler&) = delete;
  BasicBatchScheduler& operator=(const BasicBatchScheduler&) = delete;

  // Completion callback for SubmitAsync: invoked exactly once with the
  // answer (or the failure) and the batch-level expand/scan timings
  // (every co-rider of a batch is credited the full fused pass). Runs on
  // the batch worker for answered requests and on the submitting or
  // stopping thread for rejections, so it must be quick and must not block
  // on the scheduler itself.
  using SubmitCallback =
      std::function<void(Result<Bytes>, const obs::StageTimings&)>;

  // Queues one query and returns immediately; `done` fires when its batch
  // has been answered (or the request failed admission: the answerer's
  // CheckKey error, UNAVAILABLE after Stop(), RESOURCE_EXHAUSTED when
  // shed, DEADLINE_EXCEEDED when the deadline budget expired before its
  // batch formed). This is how serving rides the batcher without parking a
  // thread per request: the endpoint core decodes a frame, calls
  // SubmitAsync, and the callback queues the reply frame
  // (docs/ARCHITECTURE.md).
  void SubmitAsync(Key key, SubmitCallback done);

  // Blocking convenience over SubmitAsync for direct callers: waits for the
  // callback, returns the answer. When `stages` is non-null, the batch's
  // expand/scan nanoseconds are written into it before this call returns.
  Result<Bytes> Submit(Key key, obs::StageTimings* stages = nullptr);

  // Drains queued and in-flight batches, then joins the batch worker
  // (idempotent; dtor calls it). Every callback outstanding at the time of
  // the call fires — answered if its batch was already formed or formable
  // from the queue, UNAVAILABLE otherwise.
  void Stop();

  // A consistent snapshot: every field is mutated under the queue mutex,
  // so concurrent Submit/worker progress never yields torn stats.
  Stats stats() const;

 private:
  struct Pending {
    Key key;
    SubmitCallback done;                  // fires exactly once
    std::chrono::nanoseconds enqueued{};  // on config_.clock
    std::chrono::nanoseconds deadline{};  // enqueued + budget, or ns::max()
  };

  // Real-time slice for condition waits driven by an injected clock: a
  // FakeClock advances without notifying anyone, so waiters re-check it at
  // least this often. Deadlines stay exact in injected time; only the
  // wake-up granularity is real.
  static constexpr std::chrono::milliseconds kFakeClockWaitSlice{1};
  static constexpr std::chrono::nanoseconds kNoDeadline =
      std::chrono::nanoseconds::max();

  void WorkerLoop();
  // Forms one batch under mu_ (waiting out the close rule), or returns
  // false when stopping with an empty queue. Expired riders are failed
  // inside.
  bool FormBatch(std::vector<Pending>& batch);
  // Answers a formed batch, updates the scan-time EWMA, and completes
  // every rider with the batch's expand/scan timings.
  void RunBatch(std::vector<Pending> batch);

  const Answerer& answerer_;
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

// The PIR servers' scheduler: full DPF keys against a PirStore.
using BatchScheduler = BasicBatchScheduler<dpf::DpfKey, PirStore>;

// ------------------------------------------------------------ definitions

template <typename Key, typename Answerer>
BasicBatchScheduler<Key, Answerer>::BasicBatchScheduler(
    const Answerer& answerer, BatchConfig config, ThreadPool* pool)
    : answerer_(answerer),
      config_(config),
      pool_(pool),
      clock_(config.clock != nullptr ? config.clock : &Clock::Real()) {
  LW_CHECK_MSG(config_.max_batch >= 1, "max_batch must be >= 1");
  worker_ = std::thread([this] { WorkerLoop(); });
}

template <typename Key, typename Answerer>
BasicBatchScheduler<Key, Answerer>::~BasicBatchScheduler() {
  Stop();
}

template <typename Key, typename Answerer>
void BasicBatchScheduler<Key, Answerer>::SubmitAsync(Key key,
                                                     SubmitCallback done) {
  // Validate up front so one malformed query cannot fail co-riders' batch.
  if (Status bad = answerer_.CheckKey(key); !bad.ok()) {
    done(std::move(bad), obs::StageTimings{});
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) {
      lock.unlock();
      done(UnavailableError("batch scheduler stopped"), obs::StageTimings{});
      return;
    }
    if (config_.queue_limit > 0 && queue_.size() >= config_.queue_limit) {
      // Admission control: refusing now with a cheap error beats accepting
      // a request whose queue wait alone would blow its latency budget.
      ++stats_.shed;
      obs::M().batch_shed.Inc();
      lock.unlock();
      done(ResourceExhaustedError("batch queue over queue_limit"),
           obs::StageTimings{});
      return;
    }
    const std::chrono::nanoseconds now = clock_->Now();
    Pending p;
    p.key = std::move(key);
    p.done = std::move(done);
    p.enqueued = now;
    p.deadline = config_.deadline_budget.count() > 0
                     ? now + config_.deadline_budget
                     : kNoDeadline;
    queue_.push_back(std::move(p));
    ++stats_.requests;
    obs::M().batch_queue_depth.Set(static_cast<std::int64_t>(queue_.size()));
  }
  cv_.notify_all();
}

template <typename Key, typename Answerer>
Result<Bytes> BasicBatchScheduler<Key, Answerer>::Submit(
    Key key, obs::StageTimings* stages) {
  std::promise<Result<Bytes>> done;
  std::future<Result<Bytes>> future = done.get_future();
  // The callback writes *stages before fulfilling the promise; the
  // promise/future handoff orders that write before this return.
  SubmitAsync(std::move(key),
              [&done, stages](Result<Bytes> answer,
                              const obs::StageTimings& timings) {
                if (stages != nullptr) {
                  stages->expand_ns = timings.expand_ns;
                  stages->scan_ns = timings.scan_ns;
                }
                done.set_value(std::move(answer));
              });
  return future.get();
}

template <typename Key, typename Answerer>
void BasicBatchScheduler<Key, Answerer>::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && !worker_.joinable()) return;  // already fully stopped
    stopping_ = true;
  }
  cv_.notify_all();
  // The worker drains the queue into final batches before exiting, so every
  // admitted request still gets a real answer.
  if (worker_.joinable()) worker_.join();
  // Defensively fail anything still queued (unreachable in the normal
  // interleaving — Submit refuses once stopping_ is set).
  std::deque<Pending> leftovers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    leftovers.swap(queue_);
    obs::M().batch_queue_depth.Set(0);
  }
  for (Pending& p : leftovers) {
    p.done(UnavailableError("batch scheduler stopped"), obs::StageTimings{});
  }
}

template <typename Key, typename Answerer>
BatchStats BasicBatchScheduler<Key, Answerer>::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

template <typename Key, typename Answerer>
void BasicBatchScheduler<Key, Answerer>::WorkerLoop() {
  for (;;) {
    std::vector<Pending> batch;
    if (!FormBatch(batch)) return;
    if (batch.empty()) continue;  // every taken rider had expired
    RunBatch(std::move(batch));
  }
}

template <typename Key, typename Answerer>
bool BasicBatchScheduler<Key, Answerer>::FormBatch(
    std::vector<Pending>& batch) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
  if (queue_.empty()) return false;  // stopping with nothing left to drain

  // First rider arrived; hold the batch open for co-riders until the close
  // rule fires: min(max_wait, earliest rider deadline - scan estimate),
  // re-evaluated as riders join, or max_batch fills, or Stop() drains.
  const std::chrono::nanoseconds t0 = clock_->Now();
  const bool real_clock = clock_ == &Clock::Real();
  bool deadline_driven = false;
  while (!stopping_ && queue_.size() < config_.max_batch) {
    const std::chrono::nanoseconds wait_close = t0 + config_.max_wait;
    std::chrono::nanoseconds close_at = wait_close;
    deadline_driven = false;
    if (config_.deadline_budget.count() > 0) {
      std::chrono::nanoseconds earliest = kNoDeadline;
      for (const Pending& p : queue_) {
        earliest = std::min(earliest, p.deadline);
      }
      const std::chrono::nanoseconds deadline_close =
          earliest - std::chrono::nanoseconds(scan_estimate_ns_);
      if (deadline_close < close_at) {
        close_at = deadline_close;
        deadline_driven = true;
      }
    }
    const std::chrono::nanoseconds now = clock_->Now();
    if (now >= close_at) break;
    // Real clock: sleep the full remainder (a new rider notifies cv_, and
    // the loop recomputes the close with its deadline). Injected clock:
    // short real slices, re-checking the fake time each wake.
    const std::chrono::nanoseconds remaining = close_at - now;
    cv_.wait_for(lock, real_clock
                           ? remaining
                           : std::min<std::chrono::nanoseconds>(
                                 remaining, kFakeClockWaitSlice));
  }

  const bool full = queue_.size() >= config_.max_batch;
  const std::chrono::nanoseconds formed = clock_->Now();
  std::vector<Pending> expired;
  while (batch.size() < config_.max_batch && !queue_.empty()) {
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    if (p.deadline != kNoDeadline && formed >= p.deadline) {
      // Too late to be worth scanning for: answer DEADLINE_EXCEEDED now
      // rather than spend batch capacity on an answer nobody is waiting
      // for anymore.
      ++stats_.expired;
      expired.push_back(std::move(p));
      continue;
    }
    obs::M().batch_queue_wait_ns.Observe(
        static_cast<std::uint64_t>((formed - p.enqueued).count()));
    batch.push_back(std::move(p));
  }
  obs::M().batch_queue_depth.Set(static_cast<std::int64_t>(queue_.size()));
  if (!batch.empty()) {
    ++stats_.batches;
    if (full) {
      ++stats_.full_closes;
      obs::M().batch_full_closes.Inc();
    } else if (deadline_driven) {
      ++stats_.deadline_closes;
      obs::M().batch_deadline_closes.Inc();
    } else {
      ++stats_.wait_closes;
      obs::M().batch_wait_closes.Inc();
    }
  }
  lock.unlock();
  cv_.notify_all();  // queue shrank; a shed-side waiter may want to know
  for (Pending& p : expired) {
    obs::M().batch_expired.Inc();
    p.done(DeadlineExceededError("deadline budget expired before batch start"),
           obs::StageTimings{});
  }
  return true;
}

template <typename Key, typename Answerer>
void BasicBatchScheduler<Key, Answerer>::RunBatch(std::vector<Pending> batch) {
  obs::M().batch_requests.Inc(batch.size());
  obs::M().batch_batches.Inc();
  obs::M().batch_size.Observe(batch.size());

  std::vector<Key> keys;
  keys.reserve(batch.size());
  for (Pending& p : batch) keys.push_back(std::move(p.key));
  // The thread-local sink collects expand_ns and scan_ns from inside the
  // answerer's AnswerBatch. Each callback receives these batch-level
  // timings (each co-rider is credited the full fused pass).
  obs::StageTimings stages;
  Result<std::vector<Bytes>> answers = [&] {
    obs::ScopedStageSink sink(&stages);
    return answerer_.AnswerBatch(keys, pool_);
  }();
  if (!answers.ok()) {
    for (Pending& p : batch) p.done(answers.status(), stages);
    return;
  }
  {
    // Feed the admission controller's scan-time estimate: EWMA with
    // alpha = 1/4, so the close rule tracks recent scans without one
    // outlier whipsawing it.
    std::lock_guard<std::mutex> lock(mu_);
    scan_estimate_ns_ = scan_estimate_ns_ == 0
                            ? stages.scan_ns
                            : (3 * scan_estimate_ns_ + stages.scan_ns) / 4;
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].done(std::move((*answers)[i]), stages);
  }
}

}  // namespace lw::zltp
