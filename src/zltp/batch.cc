#include "zltp/batch.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace lw::zltp {
namespace {

// Real-time slice for condition waits driven by an injected clock: a
// FakeClock advances without notifying anyone, so waiters re-check it at
// least this often. Deadlines stay exact in injected time; only the wake-up
// granularity is real.
constexpr std::chrono::milliseconds kFakeClockWaitSlice{1};

constexpr std::chrono::nanoseconds kNoDeadline =
    std::chrono::nanoseconds::max();

}  // namespace

BatchScheduler::BatchScheduler(const PirStore& store, BatchConfig config,
                               ThreadPool* pool)
    : store_(store),
      config_(config),
      pool_(pool),
      clock_(config.clock != nullptr ? config.clock : &Clock::Real()) {
  LW_CHECK_MSG(config_.max_batch >= 1, "max_batch must be >= 1");
  worker_ = std::thread([this] { WorkerLoop(); });
}

BatchScheduler::~BatchScheduler() { Stop(); }

void BatchScheduler::SubmitAsync(dpf::DpfKey key, SubmitCallback done) {
  // Validate up front so one malformed query cannot fail co-riders' batch.
  if (key.domain_bits != store_.domain_bits()) {
    done(ProtocolError("DPF domain does not match universe domain"),
         obs::StageTimings{});
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

Result<Bytes> BatchScheduler::Submit(dpf::DpfKey key,
                                     obs::StageTimings* stages) {
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

void BatchScheduler::Stop() {
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

BatchScheduler::Stats BatchScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void BatchScheduler::WorkerLoop() {
  for (;;) {
    std::vector<Pending> batch;
    if (!FormBatch(batch)) return;
    if (batch.empty()) continue;  // every taken rider had expired
    RunBatch(std::move(batch));
  }
}

bool BatchScheduler::FormBatch(std::vector<Pending>& batch) {
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

void BatchScheduler::RunBatch(std::vector<Pending> batch) {
  obs::M().batch_requests.Inc(batch.size());
  obs::M().batch_batches.Inc();
  obs::M().batch_size.Observe(batch.size());

  std::vector<dpf::DpfKey> keys;
  keys.reserve(batch.size());
  for (Pending& p : batch) keys.push_back(std::move(p.key));
  // The thread-local sink collects expand_ns and scan_ns from inside
  // PirStore::AnswerBatch. Each callback receives these batch-level timings
  // (each co-rider is credited the full fused pass).
  obs::StageTimings stages;
  Result<std::vector<Bytes>> answers = [&] {
    obs::ScopedStageSink sink(&stages);
    return store_.AnswerBatch(keys, pool_);
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
