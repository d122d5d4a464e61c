#include "layers.h"

#include <cstdio>
#include <cstdlib>

#include "net/tcp.h"

namespace lwbench {

lw::Status TimedTransport::Send(const lw::net::Frame& frame,
                                const lw::net::Deadline& deadline) {
  ScopedSpan span("net.send");
  return inner_->Send(frame, deadline);
}

lw::Result<lw::net::Frame> TimedTransport::Receive(
    const lw::net::Deadline& deadline) {
  ScopedSpan span("net.receive");
  return inner_->Receive(deadline);
}

lw::Result<lw::Bytes> TimedChannel::PrivateGet(std::string_view key) {
  ScopedSpan span(span_name_);
  return inner_->PrivateGet(key);
}

lw::Status TimedChannel::DummyGet() {
  ScopedSpan span(span_name_);
  return inner_->DummyGet();
}

lw::Result<std::vector<lw::Result<lw::Bytes>>> TimedChannel::FetchPage(
    const std::vector<std::string>& keys, int dummies) {
  ScopedSpan span(span_name_);
  return inner_->FetchPage(keys, dummies);
}

std::unique_ptr<lw::net::Transport> Dial(std::uint16_t port, bool timed) {
  auto conn = lw::net::TcpConnect("127.0.0.1", port);
  Check(conn.status(), "connect");
  if (!timed) return std::move(*conn);
  return std::make_unique<TimedTransport>(std::move(*conn));
}

lw::zltp::EstablishOptions SessionOptions(
    std::unique_ptr<lw::net::Transport> t0,
    std::unique_ptr<lw::net::Transport> t1) {
  auto options = lw::zltp::EstablishOptions::FromTransports(std::move(t0),
                                                            std::move(t1));
  options.hello_timeout = std::chrono::seconds(10);
  options.op_timeout = std::chrono::seconds(60);
  return options;
}

const std::vector<LayerMetricSpec>& LayerCatalog() {
  static const std::vector<LayerMetricSpec> catalog = {
      {"dpf.expand_ms_per_key", "ms"},
      {"dpf.key_bytes", "B"},
      {"dpf.gen_us", "us"},
      {"dpf.subtree_ms", "ms"},
      {"pir.scan_ms_per_batch", "ms"},
      {"pir.scan_gib_per_s", "GiB/s"},
      {"pir.publish_ms", "ms"},
      {"publish_p50_ms", "ms"},
      {"publish_p90_ms", "ms"},
      {"pir.combine_us", "us"},
      {"zltp.batch_mean", "count"},
      {"zltp.batch_full_frac", "ratio"},
      {"zltp.batch_wait_frac", "ratio"},
      {"zltp.queue_wait_p50_ms", "ms"},
      {"zltp.pipeline_stall_ms_per_batch", "ms"},
      {"zltp.server_get_p50_ms", "ms"},
      {"zltp.shed_expired", "count"},
      {"zltp.fanout_failures", "count"},
      {"zltp.fanout_rtt_p50_ms", "ms"},
      {"net.frames_per_get", "count"},
      {"net.client_send_us", "us"},
      {"net.client_wait_ms", "ms"},
      {"net.reactor_loop_p50_us", "us"},
      {"net.reactor_wakeups_per_get", "count"},
      {"net.partial_writes", "count"},
      {"oram.access_ms", "ms"},
      {"oram.stash_blocks", "count"},
      {"crypto.enclave_seal_open_us", "us"},
      {"lightweb.code_fetch_ms", "ms"},
      {"lightweb.data_fetch_ms", "ms"},
      {"lightweb.render_ms", "ms"},
      {"lightweb.code_hit_frac", "ratio"},
      {"lightweb.dummy_frac", "ratio"},
      {"error_rate", "ratio"},
      {"workload.unattributed_ms", "ms"},
      {"workload.trace_overhead", "ratio"},
  };
  return catalog;
}

void FinishLayers(double traced_p50_ms, double untraced_p50_ms,
                  const std::vector<BlockingStep>& steps,
                  std::map<std::string, double>& layers, std::string& table) {
  double attributed = 0;
  for (const BlockingStep& step : steps) attributed += step.ms;
  layers["workload.unattributed_ms"] = traced_p50_ms - attributed;
  layers["workload.trace_overhead"] = traced_p50_ms / untraced_p50_ms - 1;

  char line[160];
  std::snprintf(line, sizeof line, "%-36s %12.3f   (untraced %.3f)\n",
                "page_p50_ms (traced)", traced_p50_ms, untraced_p50_ms);
  table = line;
  std::snprintf(line, sizeof line, "%-36s %12s %8s\n", "blocking step",
                "ms/page", "share");
  table += line;
  const auto row = [&](const std::string& name, double ms) {
    std::snprintf(line, sizeof line, "%-36s %12.3f %7.1f%%\n", name.c_str(),
                  ms, 100 * ms / traced_p50_ms);
    table += line;
  };
  for (const BlockingStep& step : steps) row(step.layer, step.ms);
  row("workload.unattributed_ms", traced_p50_ms - attributed);
}

MetricList LayerMetrics(const std::map<std::string, double>& layers) {
  MetricList out;
  for (const LayerMetricSpec& spec : LayerCatalog()) {
    const auto it = layers.find(spec.name);
    out.push_back({spec.name, it == layers.end() ? 0.0 : it->second,
                   spec.unit});
  }
  return out;
}

double MedianOr0(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Quantile(values, 0.5);
}

std::vector<double> PageSelfMs(const std::vector<Span>& spans,
                               const std::vector<std::string>& children) {
  std::map<std::uint64_t, double> self;  // page id -> self ms
  for (const Span& s : spans) {
    if (s.page != 0 && std::string_view(s.name) == "page") self[s.page] += s.ms();
  }
  for (const Span& s : spans) {
    const auto it = self.find(s.page);
    if (it == self.end()) continue;
    for (const std::string& child : children) {
      if (child == s.name) it->second -= s.ms();
    }
  }
  std::vector<double> out;
  for (const auto& [page, ms] : self) out.push_back(ms);
  return out;
}

void CommonLayers(const std::vector<Span>& spans, const ObsDelta& obs,
                  double gets, std::map<std::string, double>& layers) {
  layers["dpf.gen_us"] = MedianOr0(SpanMs(spans, "dpf.gen")) * 1e3;
  layers["pir.combine_us"] = MedianOr0(SpanMs(spans, "pir.combine")) * 1e3;
  layers["pir.publish_ms"] = MedianOr0(SpanMs(spans, "pir.publish"));

  layers["zltp.queue_wait_p50_ms"] =
      obs.HistQuantile("lw_batch_queue_wait_ns", 0.5) / 1e6;
  layers["zltp.server_get_p50_ms"] =
      obs.HistQuantile("lw_server_request_ns", 0.5) / 1e6;
  layers["zltp.fanout_rtt_p50_ms"] =
      obs.HistQuantile("lw_fanout_shard_rtt_ns", 0.5) / 1e6;
  layers["zltp.fanout_failures"] =
      obs.Counter("lw_fanout_redials_total") +
      obs.Counter("lw_fanout_deadline_expired_total") +
      obs.Counter("lw_fanout_stale_drops_total");

  layers["net.frames_per_get"] =
      static_cast<double>(SpanMs(spans, "net.send").size() +
                          SpanMs(spans, "net.receive").size()) /
      gets;
  layers["net.client_send_us"] =
      MedianOr0(PerPageSumMs(spans, "net.send")) * 1e3;
  layers["net.client_wait_ms"] = MedianOr0(PerPageSumMs(spans, "net.receive"));
  layers["net.reactor_loop_p50_us"] =
      obs.HistQuantile("lw_reactor_loop_ns", 0.5) / 1e3;
  layers["net.reactor_wakeups_per_get"] =
      obs.Counter("lw_reactor_wakeups_total") / gets;
  layers["net.partial_writes"] = obs.Counter("lw_reactor_partial_writes_total");
}

}  // namespace lwbench
