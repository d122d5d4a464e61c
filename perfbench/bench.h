// Shared pieces of the lightweb benchmark (lwbench).
//
// lwbench stands the real servers up in one process on host-loopback TCP,
// drives them with closed-loop clients through the public client API, checks
// every reply, and prints one JSON result line (see main.cc). This header
// holds what the workloads, the tracing layer and the report share.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "zltp/client.h"

namespace lwbench {

using SteadyClock = std::chrono::steady_clock;

inline double MsBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// splitmix64: every input the benchmark generates derives from the run's
// seed through this mixer, so one seed always yields the same inputs.
inline std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Linear-interpolated quantile (q in [0, 1]) of `values`; +inf entries (failed
// pages) sort last. NaN for an empty sample.
double Quantile(std::vector<double> values, double q);

int HostThreads();

// Set-up and replay steps must succeed: on failure, reports `what` and
// exits without a result.
void Check(const lw::Status& s, const char* what);

// One reported number.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using MetricList = std::vector<Metric>;

// ------------------------------------------------------------------ load

// What one page (a PrivateGetBatch or a Browser::Visit) did. A page whose
// transport failed counts all of its GETs as failed.
struct PageResult {
  std::uint64_t gets = 0;    // private GETs attempted, real + dummy
  std::uint64_t failed = 0;  // GETs that failed or were refused
  std::uint64_t wrong = 0;   // GETs whose content did not verify
  double ms = 0;             // the page's API call, without the checks
};

// One closed-loop user: a thread that issues its next page as soon as the
// previous one completes.
class Client {
 public:
  virtual ~Client() = default;
  // Runs one page; `page_id` tags its trace spans.
  virtual PageResult Page(std::uint64_t page_id) = 0;
  // Client traffic so far, from the sessions' own TrafficCounters. Called
  // only from the client's own thread.
  virtual lw::zltp::TrafficCounters Traffic() const = 0;
  // Client TCP connections this user holds.
  virtual int connections() const = 0;
};

struct LoadStats {
  std::vector<double> page_ms;  // failed pages are +inf
  std::uint64_t pages = 0;
  std::uint64_t gets_attempted = 0;
  std::uint64_t gets_failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t gets_completed = 0;  // TrafficCounters::requests
  std::uint64_t client_bytes = 0;    // sent + received
  double wall_s = 0;
  double cpu_s = 0;
};

// Runs every client on its own thread: `warmup_pages` untimed pages each,
// then a shared start barrier (where `at_start` runs on the caller), then
// pages until `seconds` have passed; a page in flight at the deadline
// completes and counts. With `lockstep`, clients start each page together
// (a round ends when every client's page has). `extra_threads` counts other
// load threads the workload runs (a publisher). Fails the process if the
// load generator would exceed the host's thread or connection count.
LoadStats DriveClosedLoop(const std::vector<Client*>& clients, double seconds,
                          int warmup_pages, int extra_threads, bool lockstep,
                          const std::function<void()>& at_start);

// ---------------------------------------------------------------- tracing

// One timed call into a layer, made from the benchmark's own code.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t page = 0;    // page the call served (0 = none)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

// In-memory span store; off unless the run is traced. Spans nest through a
// thread-local "current span", so a transport call made inside a page span
// records that page as its parent.
class Tracer {
 public:
  static Tracer& Get();
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::vector<Span> spans() const;
  std::uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Add(const Span& span);

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Times its scope as a span when tracing is on; a no-op otherwise. A
// non-zero `page` starts a new page context for nested spans.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t page = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  Span span_;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_page_ = 0;
};

// Runs a page's API call as the "page" span, timing it into `result.ms`.
template <typename Call>
auto TimePage(std::uint64_t page_id, PageResult& result, Call&& call) {
  ScopedSpan span("page", page_id);
  const auto t0 = SteadyClock::now();
  auto out = call();
  result.ms = MsBetween(t0, SteadyClock::now());
  return out;
}

// Durations (ms) of every span called `name`.
std::vector<double> SpanMs(const std::vector<Span>& spans, const char* name);
// Per page: summed duration (ms) of the spans called `name` in that page,
// for pages that had at least one.
std::vector<double> PerPageSumMs(const std::vector<Span>& spans,
                                 const char* name);

// Deltas of the aggregate obs registry between two snapshots: the layers'
// own counters, restricted to one workload's measured window.
class ObsDelta {
 public:
  ObsDelta(lw::obs::MetricsSnapshot before, lw::obs::MetricsSnapshot after)
      : before_(std::move(before)), after_(std::move(after)) {}
  double Counter(const std::string& name) const;
  // Quantile of the histogram samples recorded in the window, interpolated
  // within the bucket; 0 when the window recorded none.
  double HistQuantile(const std::string& name, double q) const;

 private:
  lw::obs::MetricsSnapshot before_;
  lw::obs::MetricsSnapshot after_;
};

// ------------------------------------------------------------ workloads

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct WorkloadResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  MetricList metrics;
  // Traced runs: the page's blocking-path breakdown (see FinishLayers).
  std::string layer_table;
};

using WorkloadFn = WorkloadResult (*)(const RunOptions&);
WorkloadResult RunPaperGet(const RunOptions& options);
WorkloadResult RunPaperPublish(const RunOptions& options);
WorkloadResult RunBrowse(const RunOptions& options);

// End-to-end metrics shared by every workload (untraced runs).
MetricList EndToEndMetrics(const LoadStats& load,
                           const std::vector<double>& setup_s);

}  // namespace lwbench
