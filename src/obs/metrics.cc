#include "obs/metrics.h"

#include <cmath>

#include "util/check.h"

namespace lw::obs {

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(std::move(bounds)),
      counts_(std::make_unique<PaddedCount[]>(bounds_.size() + 1)) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    LW_CHECK_MSG(bounds_[i - 1] < bounds_[i],
                 "histogram bounds must be strictly ascending");
  }
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = counts_[i].v.load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<std::uint64_t> ExponentialBounds(std::uint64_t start,
                                             double factor, std::size_t n) {
  LW_CHECK_MSG(start > 0 && factor > 1.0 && n > 0,
               "ExponentialBounds needs start>0, factor>1, n>0");
  std::vector<std::uint64_t> bounds;
  bounds.reserve(n);
  double b = static_cast<double>(start);
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = static_cast<std::uint64_t>(std::llround(b));
    // Guard against rounding collisions at small values.
    bounds.push_back(bounds.empty() || v > bounds.back() ? v
                                                         : bounds.back() + 1);
    b *= factor;
  }
  return bounds;
}

Registry& Registry::Default() {
  // Deliberately leaked: detached server threads may still be bumping
  // counters while static destructors run, so the registry must outlive
  // every other static. lwlint: allow(naked-new)
  static Registry* instance = new Registry();
  return *instance;
}

void Registry::CheckNameFree(const char* name) const {
  // Callers hold mu_.
  for (const auto& e : counters_) LW_CHECK_MSG(e.meta.name != name, name);
  for (const auto& e : gauges_) LW_CHECK_MSG(e.meta.name != name, name);
  for (const auto& e : histograms_) LW_CHECK_MSG(e.meta.name != name, name);
}

Counter& Registry::AddCounter(const char* name, const char* help,
                              const char* unit) {
  std::lock_guard<std::mutex> lock(mu_);
  CheckNameFree(name);
  counters_.push_back({{name, help, unit}, std::make_unique<Counter>()});
  return *counters_.back().instrument;
}

Gauge& Registry::AddGauge(const char* name, const char* help,
                          const char* unit) {
  std::lock_guard<std::mutex> lock(mu_);
  CheckNameFree(name);
  gauges_.push_back({{name, help, unit}, std::make_unique<Gauge>()});
  return *gauges_.back().instrument;
}

Histogram& Registry::AddHistogram(const char* name, const char* help,
                                  const char* unit,
                                  std::vector<std::uint64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  CheckNameFree(name);
  histograms_.push_back(
      {{name, help, unit}, std::make_unique<Histogram>(std::move(bounds))});
  return *histograms_.back().instrument;
}

MetricsSnapshot Registry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& e : counters_) {
    snap.counters.push_back(
        {e.meta.name, e.meta.help, e.meta.unit, e.instrument->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& e : gauges_) {
    snap.gauges.push_back(
        {e.meta.name, e.meta.help, e.meta.unit, e.instrument->Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& e : histograms_) {
    HistogramSnapshot h;
    h.name = e.meta.name;
    h.help = e.meta.help;
    h.unit = e.meta.unit;
    h.bounds = e.instrument->bounds();
    h.counts = e.instrument->counts();
    for (const std::uint64_t c : h.counts) h.count += c;
    h.sum = e.instrument->sum();
    snap.histograms.push_back(std::move(h));
  }
  return snap;
}

namespace {

// Latency bucket ladder: 1 µs .. ~4.3 s in ×4 steps (12 buckets + overflow)
// — wide enough to cover a sub-ms decode and a multi-second 1 GiB scan.
std::vector<std::uint64_t> LatencyBounds() {
  return ExponentialBounds(1'000, 4.0, 12);
}

}  // namespace

Metrics& M() {
  // Leaked for the same reason as Registry::Default().
  // lwlint: allow(naked-new)
  static Metrics* m = new Metrics{
      Registry::Default().AddCounter(
          "lw_server_connections_total",
          "ZLTP client connections accepted by a server loop", "connections"),
      Registry::Default().AddCounter(
          "lw_server_requests_total",
          "private-GET requests answered by ZLTP servers (PIR + enclave)",
          "requests"),
      Registry::Default().AddCounter(
          "lw_server_request_errors_total",
          "requests answered with an Error frame", "errors"),
      Registry::Default().AddGauge(
          "lw_server_active_connections",
          "currently open ZLTP server connections", "connections"),
      Registry::Default().AddHistogram(
          "lw_server_request_ns",
          "per-request server latency, decode through reply", "ns",
          LatencyBounds()),
      Registry::Default().AddHistogram(
          "lw_enclave_answer_ns",
          "enclave answer to one sealed request: channel open, ORAM "
          "access and reply seal",
          "ns", LatencyBounds()),

      Registry::Default().AddCounter(
          "lw_frontend_requests_total",
          "private-GETs answered by front-end servers (sharded §5.2 mode)",
          "requests"),
      Registry::Default().AddCounter(
          "lw_frontend_request_errors_total",
          "front-end requests answered with an Error frame", "errors"),
      Registry::Default().AddCounter(
          "lw_shard_requests_total",
          "sub-tree queries answered by shard data servers", "requests"),

      Registry::Default().AddGauge(
          "lw_fanout_inflight",
          "private GETs currently in flight across the shard fan-out",
          "requests"),
      Registry::Default().AddHistogram(
          "lw_fanout_shard_rtt_ns",
          "per-shard sub-query round trip inside the fan-out", "ns",
          LatencyBounds()),
      Registry::Default().AddCounter(
          "lw_fanout_stale_drops_total",
          "shard replies dropped because their op already completed",
          "frames"),
      Registry::Default().AddCounter(
          "lw_fanout_redials_total",
          "dials an op made on finding its shard link down",
          "redials"),
      Registry::Default().AddCounter(
          "lw_fanout_deadline_expired_total",
          "fan-out ops failed at their per-op deadline", "requests"),

      Registry::Default().AddCounter("lw_batch_requests_total",
                                     "queries submitted to batch schedulers",
                                     "requests"),
      Registry::Default().AddCounter("lw_batch_batches_total",
                                     "batches executed by batch schedulers",
                                     "batches"),
      Registry::Default().AddHistogram(
          "lw_batch_size", "requests per executed batch (fill distribution)",
          "requests", {1, 2, 4, 8, 16, 32, 64, 128}),
      Registry::Default().AddHistogram(
          "lw_batch_queue_wait_ns",
          "queue wait from Submit to batch formation", "ns", LatencyBounds()),
      Registry::Default().AddGauge("lw_batch_queue_depth",
                                   "requests awaiting batch formation",
                                   "requests"),
      Registry::Default().AddCounter(
          "lw_batch_shed_total",
          "submissions refused RESOURCE_EXHAUSTED at the admission queue",
          "requests"),
      Registry::Default().AddCounter(
          "lw_batch_expired_total",
          "co-riders failed DEADLINE_EXCEEDED at batch formation",
          "requests"),
      Registry::Default().AddCounter(
          "lw_batch_full_closes_total",
          "batches closed because they reached max_batch", "batches"),
      Registry::Default().AddCounter(
          "lw_batch_deadline_closes_total",
          "batches closed early to honor a rider's deadline budget",
          "batches"),
      Registry::Default().AddCounter(
          "lw_batch_wait_closes_total",
          "batches closed by the max_wait co-rider window elapsing",
          "batches"),

      Registry::Default().AddCounter(
          "lw_scan_rows_scanned_total",
          "records walked by blob-database scan passes", "rows"),
      Registry::Default().AddCounter(
          "lw_scan_row_xors_total",
          "row XORs issued by blob-database scan passes", "xors"),
      Registry::Default().AddCounter(
          "lw_scan_passes_total",
          "blob-database scan passes (a batched pass counts once)", "passes"),
      Registry::Default().AddCounter(
          "lw_scan_busy_ns_total", "wall time spent inside scan passes",
          "ns"),
      Registry::Default().AddCounter(
          "lw_scan_project_ns_total",
          "time scan passes spent gathering rows' selection bits from DPF "
          "leaves, summed over row shards",
          "ns"),
      Registry::Default().AddHistogram("lw_scan_pass_ns",
                                       "latency of one scan pass", "ns",
                                       LatencyBounds()),

      Registry::Default().AddHistogram(
          "lw_dpf_expand_ns",
          "DPF expansion time of one scan pass, summed over row shards",
          "ns",
          LatencyBounds()),

      Registry::Default().AddGauge(
          "lw_reactor_connections",
          "connections currently owned by epoll reactor loops",
          "connections"),
      Registry::Default().AddCounter(
          "lw_reactor_frames_total",
          "complete frames parsed by reactor loops", "frames"),
      Registry::Default().AddCounter(
          "lw_reactor_wakeups_total",
          "epoll_wait returns (events, eventfd signals, or timer slices)",
          "wakeups"),
      Registry::Default().AddCounter(
          "lw_reactor_partial_writes_total",
          "reactor writes that could not complete in one syscall (short "
          "write or EAGAIN; resumed from the send queue)",
          "writes"),
      Registry::Default().AddCounter(
          "lw_reactor_timer_closes_total",
          "connections closed by the idle or write-stall timer", "closes"),
      Registry::Default().AddGauge(
          "lw_reactor_send_backlog_bytes",
          "reply bytes queued across all reactor connections awaiting "
          "socket-buffer space",
          "bytes"),
      Registry::Default().AddHistogram(
          "lw_reactor_loop_ns",
          "busy time of one reactor loop iteration (excludes the "
          "epoll_wait sleep)",
          "ns", LatencyBounds()),

      Registry::Default().AddCounter("lw_net_bytes_sent_total",
                                     "payload bytes written to TCP sockets",
                                     "bytes"),
      Registry::Default().AddCounter("lw_net_bytes_received_total",
                                     "payload bytes read from TCP sockets",
                                     "bytes"),
      Registry::Default().AddCounter("lw_net_accepts_total",
                                     "TCP connections accepted",
                                     "connections"),
      Registry::Default().AddCounter("lw_net_accept_errors_total",
                                     "accept() failures", "errors"),
      Registry::Default().AddCounter("lw_net_read_errors_total",
                                     "recv() failures (EINTR excluded)",
                                     "errors"),
      Registry::Default().AddCounter("lw_net_write_errors_total",
                                     "send() failures (EINTR excluded)",
                                     "errors"),
      Registry::Default().AddCounter("lw_net_eintr_retries_total",
                                     "send/recv/accept calls retried on EINTR",
                                     "retries"),

      Registry::Default().AddCounter(
          "lw_client_bytes_sent_total",
          "ZLTP frame bytes sent by client sessions (both servers)", "bytes"),
      Registry::Default().AddCounter(
          "lw_client_bytes_received_total",
          "ZLTP frame bytes received by client sessions (both servers)",
          "bytes"),
      Registry::Default().AddCounter(
          "lw_client_requests_total",
          "private GETs issued by client sessions (incl. dummies)",
          "requests"),
      Registry::Default().AddCounter(
          "lw_client_retries_total",
          "attempts re-issued after a retryable failure: private GETs "
          "(with fresh query randomness) and establish attempts",
          "retries"),
      Registry::Default().AddCounter(
          "lw_client_redials_total",
          "session transports re-dialed and re-helloed after a dead "
          "connection",
          "redials"),
      Registry::Default().AddCounter(
          "lw_client_op_timeouts_total",
          "client operations that failed with DEADLINE_EXCEEDED", "timeouts"),

      Registry::Default().AddGauge("lw_store_records",
                                   "records resident across all PIR stores",
                                   "records"),
  };
  return *m;
}

}  // namespace lw::obs
