// Fault-injection transport decorators.
//
// Reusable failure models for exercising the resilience layer (retry,
// deadlines, redial) from tests and benches without real networks or real
// time. Each decorator wraps an inner Transport and perturbs one axis:
//
//   DyingTransport       — connection dies after N operations (crash)
//   FlakyTransport       — next N operations fail, then it recovers
//   DelayTransport       — peer is slow: burns deadline budget on receive
//   CorruptingTransport  — in-path tamperer flips a payload bit
//   RecordingTransport   — captures sent frames for wire-level assertions
//   GatedCloseTransport  — Close() stalls at a Gate until the test opens it
//
// DelayTransport is what makes deadline tests deterministic: it sleeps on
// the *deadline's* clock, so with a FakeClock a "slow peer" consumes the
// whole budget and returns DEADLINE_EXCEEDED in zero wall-clock time —
// exactly the observable behaviour of a real stall (docs/ROBUSTNESS.md).
//
// GatedCloseTransport does the same for races: whoever closes the
// transport stops at the gate, so a test can act inside the window between
// a stream's end and the close reaching its owner, without sleeps.
//
// All decorators are thread-safe to the same degree as the inner transport
// (counters are atomic; RecordingTransport's log is mutex-guarded).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "net/transport.h"

namespace lw::net {

// Kills the connection after a fixed number of operations (sends +
// receives), simulating a mid-protocol crash. Once dead, every operation
// fails UNAVAILABLE and the inner transport is closed.
class DyingTransport final : public Transport {
 public:
  DyingTransport(std::unique_ptr<Transport> inner, int ops_before_death)
      : inner_(std::move(inner)), remaining_(ops_before_death) {}

  using Transport::Receive;
  using Transport::Send;

  Status Send(const Frame& frame, const Deadline& deadline) override {
    if (Expired()) return UnavailableError("injected failure");
    return inner_->Send(frame, deadline);
  }
  Result<Frame> Receive(const Deadline& deadline) override {
    if (Expired()) return UnavailableError("injected failure");
    return inner_->Receive(deadline);
  }
  void Close() override { inner_->Close(); }

 private:
  bool Expired() {
    if (remaining_.fetch_sub(1) <= 0) {
      inner_->Close();
      return true;
    }
    return false;
  }

  std::unique_ptr<Transport> inner_;
  std::atomic<int> remaining_;
};

// Intermittent failure: the next `failures` operations fail UNAVAILABLE
// without touching the inner transport, after which everything succeeds.
// Models a transient network blip that a retry can ride out.
class FlakyTransport final : public Transport {
 public:
  FlakyTransport(std::unique_ptr<Transport> inner, int failures)
      : inner_(std::move(inner)), failures_left_(failures) {}

  using Transport::Receive;
  using Transport::Send;

  Status Send(const Frame& frame, const Deadline& deadline) override {
    if (ConsumeFailure()) return UnavailableError("injected blip");
    return inner_->Send(frame, deadline);
  }
  Result<Frame> Receive(const Deadline& deadline) override {
    if (ConsumeFailure()) return UnavailableError("injected blip");
    return inner_->Receive(deadline);
  }
  void Close() override { inner_->Close(); }

 private:
  bool ConsumeFailure() {
    int left = failures_left_.load(std::memory_order_relaxed);
    while (left > 0) {
      if (failures_left_.compare_exchange_weak(left, left - 1,
                                               std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  std::unique_ptr<Transport> inner_;
  std::atomic<int> failures_left_;
};

// A slow peer: every Receive costs `delay` of the deadline's clock before
// the inner transport is consulted. If the delay exceeds the remaining
// budget, the remaining budget is consumed and DEADLINE_EXCEEDED returned —
// under a FakeClock this is instantaneous, making timeout paths fully
// deterministic. Sends are not delayed (the local kernel buffers them).
class DelayTransport final : public Transport {
 public:
  DelayTransport(std::unique_ptr<Transport> inner,
                 std::chrono::nanoseconds delay)
      : inner_(std::move(inner)), delay_(delay) {}

  using Transport::Receive;
  using Transport::Send;

  Status Send(const Frame& frame, const Deadline& deadline) override {
    return inner_->Send(frame, deadline);
  }
  Result<Frame> Receive(const Deadline& deadline) override {
    if (!deadline.is_infinite()) {
      const std::chrono::nanoseconds rem = deadline.remaining();
      if (delay_ >= rem) {
        deadline.clock().SleepFor(rem);
        return DeadlineExceededError("injected slow peer");
      }
    }
    deadline.clock().SleepFor(delay_);
    return inner_->Receive(deadline);
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<Transport> inner_;
  std::chrono::nanoseconds delay_;
};

// Corrupts every received frame's payload (bit flip mid-payload),
// simulating an in-path tamperer. The client stack must detect this via
// fingerprints/AEAD — never surface fabricated content.
class CorruptingTransport final : public Transport {
 public:
  explicit CorruptingTransport(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)) {}

  using Transport::Receive;
  using Transport::Send;

  Status Send(const Frame& frame, const Deadline& deadline) override {
    return inner_->Send(frame, deadline);
  }
  Result<Frame> Receive(const Deadline& deadline) override {
    auto frame = inner_->Receive(deadline);
    if (frame.ok() && !frame->payload.empty()) {
      frame->payload[frame->payload.size() / 2] ^= 0x40;
    }
    return frame;
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<Transport> inner_;
};

// Shared capture log for RecordingTransport. One log can back transports
// from several dial attempts, so a test can compare the wire frames of
// attempt 1 against attempt 2 (e.g. assert retried GETs carry *different*
// DPF key shares).
class FrameLog {
 public:
  void Append(const Frame& frame) {
    std::lock_guard<std::mutex> lock(mu_);
    frames_.push_back(frame);
  }

  std::vector<Frame> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return frames_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return frames_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<Frame> frames_;
};

// Records every successfully sent frame into a FrameLog (owned by the
// test) before forwarding. Receives pass through untouched.
class RecordingTransport final : public Transport {
 public:
  RecordingTransport(std::unique_ptr<Transport> inner, FrameLog* log)
      : inner_(std::move(inner)), log_(log) {}

  using Transport::Receive;
  using Transport::Send;

  Status Send(const Frame& frame, const Deadline& deadline) override {
    const Status s = inner_->Send(frame, deadline);
    if (s.ok()) log_->Append(frame);
    return s;
  }
  Result<Frame> Receive(const Deadline& deadline) override {
    return inner_->Receive(deadline);
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<Transport> inner_;
  FrameLog* log_;
};

// A latch a test opens by hand. Shared between the test and what it
// holds in the code under test: a GatedCloseTransport's Close(), or a
// shard's batch passes (tests/frontend_test.cc).
class Gate {
 public:
  // Blocks until Open(); arrivals are counted for WaitForArrival.
  void Pass() {
    std::unique_lock<std::mutex> lock(mu_);
    ++arrivals_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }

  // True once some Pass() has begun, false if none did within `budget`
  // (real time: the caller is a test thread waiting on another thread).
  bool WaitForArrival(std::chrono::nanoseconds budget) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, budget, [this] { return arrivals_ > 0; });
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int arrivals_ = 0;
  bool open_ = false;
};

// Stalls every Close() at `gate` before closing the inner transport.
// Sends and receives pass through untouched.
class GatedCloseTransport final : public Transport {
 public:
  GatedCloseTransport(std::unique_ptr<Transport> inner,
                      std::shared_ptr<Gate> gate)
      : inner_(std::move(inner)), gate_(std::move(gate)) {}

  using Transport::Receive;
  using Transport::Send;

  Status Send(const Frame& frame, const Deadline& deadline) override {
    return inner_->Send(frame, deadline);
  }
  Result<Frame> Receive(const Deadline& deadline) override {
    return inner_->Receive(deadline);
  }
  void Close() override {
    gate_->Pass();
    inner_->Close();
  }

 private:
  std::unique_ptr<Transport> inner_;
  std::shared_ptr<Gate> gate_;
};

}  // namespace lw::net
