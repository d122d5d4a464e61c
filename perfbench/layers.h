// Per-layer measurement from outside the program: timing decorators over
// the public net::Transport and lightweb::BlobChannel interfaces, the
// catalog of per-layer metrics, and the traced run's layer table.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "lightweb/channel.h"
#include "net/transport.h"

namespace lwbench {

// Client transport that records a "net.send" / "net.receive" span per call.
class TimedTransport final : public lw::net::Transport {
 public:
  explicit TimedTransport(std::unique_ptr<lw::net::Transport> inner)
      : inner_(std::move(inner)) {}
  using lw::net::Transport::Receive;
  using lw::net::Transport::Send;
  lw::Status Send(const lw::net::Frame& frame,
                  const lw::net::Deadline& deadline) override;
  lw::Result<lw::net::Frame> Receive(
      const lw::net::Deadline& deadline) override;
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<lw::net::Transport> inner_;
};

// Browser channel that records a span named `span_name` per fetch.
class TimedChannel final : public lw::lightweb::BlobChannel {
 public:
  TimedChannel(std::unique_ptr<lw::lightweb::BlobChannel> inner,
               const char* span_name)
      : inner_(std::move(inner)), span_name_(span_name) {}
  lw::Result<lw::Bytes> PrivateGet(std::string_view key) override;
  lw::Status DummyGet() override;
  std::size_t record_size() const override { return inner_->record_size(); }
  lw::Result<std::vector<lw::Result<lw::Bytes>>> FetchPage(
      const std::vector<std::string>& keys, int dummies) override;
  std::uint64_t observed_queries() const override {
    return inner_->observed_queries();
  }

 private:
  std::unique_ptr<lw::lightweb::BlobChannel> inner_;
  const char* span_name_;
};

// Dials 127.0.0.1:port; wrapped in a TimedTransport when `timed`.
std::unique_ptr<lw::net::Transport> Dial(std::uint16_t port, bool timed);

// Session options every client uses: bounded hello and page deadlines so a
// wedged server fails the run instead of hanging it, no retries (a retried
// page would hide a failure).
lw::zltp::EstablishOptions SessionOptions(
    std::unique_ptr<lw::net::Transport> t0,
    std::unique_ptr<lw::net::Transport> t1 = nullptr);

// Every per-layer metric in report order, with its unit. A workload reports
// 0 for a layer it does not exercise.
struct LayerMetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<LayerMetricSpec>& LayerCatalog();

// One step on a page's blocking path, with its per-page cost.
struct BlockingStep {
  std::string layer;
  double ms = 0;
};

// Fills the workload.* rows from the traced and untraced page medians and
// the blocking-path steps, and renders the layer table (ending in
// workload.unattributed_ms) into `table`.
void FinishLayers(double traced_p50_ms, double untraced_p50_ms,
                  const std::vector<BlockingStep>& steps,
                  std::map<std::string, double>& layers, std::string& table);

// Per-layer metrics in catalog order (missing entries are 0).
MetricList LayerMetrics(const std::map<std::string, double>& layers);

// Median, or 0 for an empty sample (a layer that recorded nothing).
double MedianOr0(const std::vector<double>& values);

// Per page: the page span's self time, i.e. its duration minus its `children`
// spans (ms).
std::vector<double> PageSelfMs(const std::vector<Span>& spans,
                               const std::vector<std::string>& children);

// The rows every workload derives the same way: the client transport
// decorator's spans (net.*), the replayed keygen/combine/publish spans, and
// the window's obs deltas for the server-side layers. `gets` is the number
// of GETs completed in the traced window.
void CommonLayers(const std::vector<Span>& spans, const ObsDelta& obs,
                  double gets, std::map<std::string, double>& layers);

}  // namespace lwbench
