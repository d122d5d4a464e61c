// Load generator, span store, obs deltas and the shared end-to-end metrics.
#include <algorithm>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>

#include <sys/resource.h>

#include "bench.h"

namespace lwbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0) return values[lo];
  if (std::isinf(values[hi])) return values[hi];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

// Process CPU time: user + system, all threads.
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace

int HostThreads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

void Check(const lw::Status& s, const char* what) {
  if (s.ok()) return;
  std::fprintf(stderr, "lwbench: %s: %s\n", what, s.ToString().c_str());
  std::exit(1);
}

// ------------------------------------------------------------------ load

LoadStats DriveClosedLoop(const std::vector<Client*>& clients, double seconds,
                          int warmup_pages, int extra_threads, bool lockstep,
                          const std::function<void()>& at_start) {
  static std::atomic<std::uint64_t> next_page{0};
  int connections = 0;
  for (const Client* c : clients) connections += c->connections();
  const int threads = static_cast<int>(clients.size()) + extra_threads;
  if (threads > HostThreads() || connections > HostThreads()) {
    std::fprintf(stderr,
                 "lwbench: load generator needs %d threads and %d "
                 "connections but the host has %d hardware threads\n",
                 threads, connections, HostThreads());
    std::exit(3);
  }

  struct PerClient {
    std::vector<double> page_ms;
    PageResult sum;
    lw::zltp::TrafficCounters before, after;
    SteadyClock::time_point end;
  };
  std::vector<PerClient> per(clients.size());
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  SteadyClock::time_point deadline;  // published to clients by `go`
  // Lockstep: every page starts together, and the last client to arrive
  // decides for all whether the window is still open.
  const auto n = static_cast<std::ptrdiff_t>(clients.size());
  bool keep_going = true;
  std::barrier warmup_round(n);
  std::barrier round(n, [&]() noexcept {
    keep_going = SteadyClock::now() < deadline;
  });

  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    workers.emplace_back([&, i] {
      Client& client = *clients[i];
      PerClient& mine = per[i];
      for (int w = 0; w < warmup_pages; ++w) {
        if (lockstep) warmup_round.arrive_and_wait();
        client.Page(++next_page);
      }
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      mine.before = client.Traffic();
      for (;;) {
        if (lockstep) {
          round.arrive_and_wait();
          if (!keep_going) break;
        } else if (SteadyClock::now() >= deadline) {
          break;
        }
        const PageResult r = client.Page(++next_page);
        const bool ok = r.failed == 0 && r.wrong == 0;
        mine.page_ms.push_back(ok ? r.ms
                                  : std::numeric_limits<double>::infinity());
        mine.sum.gets += r.gets;
        mine.sum.failed += r.failed;
        mine.sum.wrong += r.wrong;
      }
      mine.after = client.Traffic();
      mine.end = SteadyClock::now();
    });
  }
  while (ready.load() < clients.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (at_start) at_start();
  const double cpu0 = ProcessCpuSeconds();
  const auto start = SteadyClock::now();
  deadline = start + std::chrono::duration_cast<SteadyClock::duration>(
                         std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();

  LoadStats load;
  load.cpu_s = ProcessCpuSeconds() - cpu0;
  SteadyClock::time_point end = start;
  for (const PerClient& c : per) {
    load.page_ms.insert(load.page_ms.end(), c.page_ms.begin(),
                        c.page_ms.end());
    load.gets_attempted += c.sum.gets;
    load.gets_failed += c.sum.failed;
    load.wrong += c.sum.wrong;
    load.gets_completed += c.after.requests - c.before.requests;
    load.client_bytes += (c.after.bytes_sent - c.before.bytes_sent) +
                         (c.after.bytes_received - c.before.bytes_received);
    end = std::max(end, c.end);
  }
  load.pages = load.page_ms.size();
  load.wall_s = std::chrono::duration<double>(end - start).count();
  return load;
}

// ---------------------------------------------------------------- tracing

namespace {

thread_local std::uint64_t tl_parent = 0;
thread_local std::uint64_t tl_page = 0;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t page) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  active_ = true;
  span_.name = name;
  span_.id = tracer.NextId();
  span_.parent = tl_parent;
  span_.page = page != 0 ? page : tl_page;
  saved_parent_ = tl_parent;
  saved_page_ = tl_page;
  tl_parent = span_.id;
  tl_page = span_.page;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  tl_parent = saved_parent_;
  tl_page = saved_page_;
  Tracer::Get().Add(span_);
}

std::vector<double> SpanMs(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == name) out.push_back(s.ms());
  }
  return out;
}

std::vector<double> PerPageSumMs(const std::vector<Span>& spans,
                                 const char* name) {
  std::vector<std::pair<std::uint64_t, double>> by_page;
  for (const Span& s : spans) {
    if (s.page != 0 && std::string_view(s.name) == name) {
      by_page.emplace_back(s.page, s.ms());
    }
  }
  std::sort(by_page.begin(), by_page.end());
  std::vector<double> out;
  for (std::size_t i = 0; i < by_page.size(); ++i) {
    if (i == 0 || by_page[i].first != by_page[i - 1].first) out.push_back(0);
    out.back() += by_page[i].second;
  }
  return out;
}

// -------------------------------------------------------------- obs deltas

namespace {

template <typename T>
const T* FindByName(const std::vector<T>& items, const std::string& name) {
  for (const T& item : items) {
    if (item.name == name) return &item;
  }
  return nullptr;
}

}  // namespace

double ObsDelta::Counter(const std::string& name) const {
  const auto* b = FindByName(before_.counters, name);
  const auto* a = FindByName(after_.counters, name);
  if (a == nullptr || b == nullptr) return 0;
  return static_cast<double>(a->value - b->value);
}

double ObsDelta::HistQuantile(const std::string& name, double q) const {
  const auto* b = FindByName(before_.histograms, name);
  const auto* a = FindByName(after_.histograms, name);
  if (a == nullptr || b == nullptr || a->counts.size() != b->counts.size()) {
    return 0;
  }
  std::vector<double> counts(a->counts.size());
  double total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<double>(a->counts[i] - b->counts[i]);
    total += counts[i];
  }
  if (total == 0) return 0;
  const double rank = q * total;
  double cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0 || cumulative + counts[i] < rank) {
      cumulative += counts[i];
      continue;
    }
    if (i >= a->bounds.size()) return static_cast<double>(a->bounds.back());
    const double lower = i == 0 ? 0 : static_cast<double>(a->bounds[i - 1]);
    const double upper = static_cast<double>(a->bounds[i]);
    return lower + (upper - lower) * (rank - cumulative) / counts[i];
  }
  return static_cast<double>(a->bounds.back());
}

// ------------------------------------------------------------- end to end

MetricList EndToEndMetrics(const LoadStats& load,
                           const std::vector<double>& setup_s) {
  const double gets =
      static_cast<double>(std::max<std::uint64_t>(1, load.gets_completed));
  if (load.pages < 100) {
    std::fprintf(stderr,
                 "lwbench: only %llu pages measured; page_p90_ms has fewer "
                 "than 10 samples beyond it\n",
                 static_cast<unsigned long long>(load.pages));
  }
  std::fprintf(stderr, "lwbench: %llu pages; set-ups took",
               static_cast<unsigned long long>(load.pages));
  for (const double s : setup_s) std::fprintf(stderr, " %.3f", s);
  std::fprintf(stderr, " s\n");
  return {
      {"get_per_s", gets / load.wall_s, "GET/s"},
      {"page_p50_ms", Quantile(load.page_ms, 0.5), "ms"},
      {"page_p90_ms", Quantile(load.page_ms, 0.9), "ms"},
      {"cpu_ms_per_get", load.cpu_s * 1e3 / gets, "ms"},
      {"bytes_per_get", static_cast<double>(load.client_bytes) / gets, "B"},
      {"setup_s", Quantile(setup_s, 0.5), "s"},
      {"peak_rss_mib", PeakRssMib(), "MiB"},
  };
}

}  // namespace lwbench
