// E11 (repo ablation) — saturating server throughput.
//
// The other benches time isolated server components; this one measures the
// quantity the batch engine actually optimizes: sustained requests/second
// of a REAL server under closed-loop load, and the latency the batching
// deadline buys it. Per scenario it stands up both logical PIR servers on
// ephemeral TCP ports, connects closed-loop clients (each issues its next
// private GET the moment the previous one completes — the standard
// saturation harness shape), and sweeps the batch close deadline
// (--max-wait), reporting
//
//   req/s sustained, p50/p95/p99 request latency, mean batch occupancy,
//   failed requests (excluded from the percentiles)
//
// per scenario into BENCH_throughput.json so CI can track the trajectory
// (tools/bench/compare_bench.py fails on >15% req/s regressions).
//
// The PIR scenarios (reactor/*) serve TCP on the epoll reactor, as
// lightweb_serve does (docs/ARCHITECTURE.md), including a high-connection
// scenario (default 1024 concurrent connections, --conns=N) that a thread
// pair per connection could only match with two thousand kernel threads.
// Two sharded front-end scenarios (frontend/*) stand up the full §5.2
// deployment — FrontEndServers over shard data servers — and A/B one
// client against many so CI can assert the shard fan-out pipelines instead
// of serializing.
//
// Flags: --smoke (CI-sized run), --threads=N (server scan/expand pool),
// --json=PATH (default BENCH_throughput.json), --clients=N, --requests=N
// (per client), --conns=N (high-connection scenario size).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "bench_util.h"
#include "net/reactor.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "pir/xor_kernel.h"
#include "util/alloc.h"
#include "util/check.h"
#include "zltp/client.h"
#include "zltp/frontend.h"
#include "zltp/server.h"
#include "zltp/store.h"

namespace lw::bench {
namespace {

struct ThroughputParams {
  int domain_bits = 16;
  std::size_t record_size = 1024;
  std::size_t published = 2000;
  int clients = 8;
  int requests_per_client = 40;  // per scenario, after warmup
  int warmup_per_client = 4;
  int threads = 1;
  // Total concurrent TCP connections for the high-connection reactor
  // scenario (each closed-loop client holds one connection per logical
  // server, so clients = conns / 2).
  int high_conns = 1024;
};

struct Scenario {
  std::string name;
  std::chrono::milliseconds max_wait{2};
  // Per-scenario overrides (0 = take the ThroughputParams value). The
  // high-connection scenario trades requests-per-client for client count
  // so total work stays bounded while concurrency scales.
  int clients_override = 0;
  int requests_override = 0;
  // true: each logical server is a FrontEndServer over 2^top_bits shard
  // data servers (paper §5.2) instead of a monolithic ZltpPirServer —
  // measures the multiplexed shard fan-out, not the batch engine.
  bool frontend = false;
};

const char* ServeName(const Scenario& s) {
  return s.frontend ? "frontend" : "reactor";
}

struct ScenarioResult {
  Scenario scenario;
  std::uint64_t completed = 0;
  double elapsed_s = 0;
  double req_per_s = 0;
  double ns_per_op = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double avg_batch = 0;
  std::uint64_t batches = 0;
  std::uint64_t failed = 0;  // requests that returned an error
};

double PercentileMs(std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0;
  const std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(rank, sorted_ms.size() - 1)];
}

// Accepts connections until the listener closes, handing each to the
// server's transport pump (ServeConnectionDetached).
template <typename Server>
std::thread AcceptLoop(net::TcpListener& listener, Server& server) {
  return std::thread([&listener, &server] {
    for (;;) {
      auto transport = listener.Accept();
      if (!transport.ok()) return;  // listener closed: scenario over
      server.ServeConnectionDetached(std::move(*transport));
    }
  });
}

// Closed-loop load shared by every scenario: `params.clients` threads each
// hold one connection per logical server and issue their next private GET
// the moment the previous one completes. All connect + warm up first, then
// start measuring together so the servers see full concurrency for the
// whole window; `at_start` runs at that barrier (stats snapshots).
struct LoadResult {
  std::vector<double> sorted_ms;  // per-request latencies, ascending
  double elapsed_s = 0;
  std::uint64_t errors = 0;
};

LoadResult DriveClosedLoopClients(std::uint16_t port0, std::uint16_t port1,
                                  int domain_bits,
                                  const ThroughputParams& params,
                                  const std::function<void()>& at_start) {
  std::atomic<bool> start{false};
  std::atomic<int> ready{0};
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::vector<double>> latencies_ms(
      static_cast<std::size_t>(params.clients));
  std::vector<std::thread> clients;
  for (int c = 0; c < params.clients; ++c) {
    clients.emplace_back([&, c] {
      auto t0 = net::TcpConnect("127.0.0.1", port0);
      auto t1 = net::TcpConnect("127.0.0.1", port1);
      if (!t0.ok() || !t1.ok()) {
        ++errors;
        ++ready;
        return;
      }
      auto session = zltp::PirSession::Establish(
          zltp::EstablishOptions::FromTransports(std::move(*t0),
                                                 std::move(*t1)));
      if (!session.ok()) {
        ++errors;
        ++ready;
        return;
      }
      Rng rng(static_cast<std::uint64_t>(c) + 1000);
      const std::uint64_t domain = std::uint64_t{1} << domain_bits;
      for (int i = 0; i < params.warmup_per_client; ++i) {
        if (!session->PrivateGetIndex(rng.UniformInt(domain)).ok()) ++errors;
      }
      ++ready;
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      auto& mine = latencies_ms[static_cast<std::size_t>(c)];
      mine.reserve(static_cast<std::size_t>(params.requests_per_client));
      for (int i = 0; i < params.requests_per_client; ++i) {
        const auto before = std::chrono::steady_clock::now();
        if (!session->PrivateGetIndex(rng.UniformInt(domain)).ok()) {
          ++errors;
          continue;
        }
        const auto after = std::chrono::steady_clock::now();
        mine.push_back(
            std::chrono::duration<double, std::milli>(after - before)
                .count());
      }
      session->Close();
    });
  }
  while (ready.load() < params.clients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (at_start) at_start();
  const auto bench_start = std::chrono::steady_clock::now();
  start.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  const auto bench_end = std::chrono::steady_clock::now();

  LoadResult load;
  for (auto& per_client : latencies_ms) {
    load.sorted_ms.insert(load.sorted_ms.end(), per_client.begin(),
                          per_client.end());
  }
  std::sort(load.sorted_ms.begin(), load.sorted_ms.end());
  load.elapsed_s =
      std::chrono::duration<double>(bench_end - bench_start).count();
  load.errors = errors.load();
  return load;
}

// Folds a finished load into the per-scenario report row.
ScenarioResult FillResult(const Scenario& scenario, LoadResult load) {
  ScenarioResult result;
  result.scenario = scenario;
  result.completed = load.sorted_ms.size();
  result.elapsed_s = load.elapsed_s;
  if (result.elapsed_s > 0) {
    result.req_per_s =
        static_cast<double>(result.completed) / result.elapsed_s;
    result.ns_per_op = result.completed == 0
                           ? 0
                           : result.elapsed_s * 1e9 /
                                 static_cast<double>(result.completed);
  }
  result.p50_ms = PercentileMs(load.sorted_ms, 0.50);
  result.p95_ms = PercentileMs(load.sorted_ms, 0.95);
  result.p99_ms = PercentileMs(load.sorted_ms, 0.99);
  result.failed = load.errors;
  if (load.errors != 0) {
    std::fprintf(stderr, "bench_throughput: %llu request errors in %s\n",
                 static_cast<unsigned long long>(load.errors),
                 scenario.name.c_str());
  }
  return result;
}

ScenarioResult RunScenario(const zltp::PirStore& store,
                           const ThroughputParams& base_params,
                           const Scenario& scenario) {
  ThroughputParams params = base_params;
  if (scenario.clients_override > 0) params.clients = scenario.clients_override;
  if (scenario.requests_override > 0) {
    params.requests_per_client = scenario.requests_override;
  }

  zltp::ServerOptions options;
  options.batch_config.max_batch = 16;
  options.batch_config.max_wait = scenario.max_wait;
  options.num_threads = params.threads;
  // Declared before the servers: batch completion callbacks hold a reactor
  // reference, and the server destructor joins those callbacks' threads.
  net::Reactor reactor;
  zltp::ZltpPirServer server0(store, 0, options);
  zltp::ZltpPirServer server1(store, 1, options);

  auto listener0 = net::TcpListener::Listen(0);
  auto listener1 = net::TcpListener::Listen(0);
  LW_CHECK(listener0.ok() && listener1.ok());
  const std::uint16_t port0 = listener0->bound_port();
  const std::uint16_t port1 = listener1->bound_port();
  LW_CHECK(server0.ServeOnReactor(reactor, std::move(*listener0)).ok());
  LW_CHECK(server1.ServeOnReactor(reactor, std::move(*listener1)).ok());
  LW_CHECK(reactor.Start().ok());

  // Warmup batches must not count against this scenario's stats, so the
  // snapshot happens at the start barrier.
  zltp::BatchScheduler::Stats stats_before{};
  const LoadResult load = DriveClosedLoopClients(
      port0, port1, store.domain_bits(), params,
      [&] { stats_before = server0.batch_stats(); });
  const auto stats_after = server0.batch_stats();
  reactor.Stop();

  ScenarioResult result = FillResult(scenario, load);
  result.batches = stats_after.batches - stats_before.batches;
  const std::uint64_t riders =
      (stats_after.requests - stats_after.expired) -
      (stats_before.requests - stats_before.expired);
  result.avg_batch = result.batches == 0
                         ? 0
                         : static_cast<double>(riders) /
                               static_cast<double>(result.batches);
  return result;
}

// The sharded-deployment scenario (paper §5.2): each logical server is a
// FrontEndServer over 2^top_bits shard data servers. Closed-loop clients
// measure whether concurrent private GETs pipeline across the shard links:
// the old lock-step fan-out held a fan-out-wide mutex across all four
// shard round trips, so multi-client req/s could not beat a single
// client's 1/latency. CI asserts the multi-client row now clears the
// single-client row by a real margin.
//
// Harness shape: clients arrive over real TCP; each shard sits behind a
// DelayRelay emulating a fixed shard round-trip time, the deployment
// reality the fan-out exists for (remote shards, paper §5.2). The RTT
// dominates every CPU cost in the path, so the A/B measures latency
// HIDING, not thread parallelism: a single closed-loop client can never
// beat 1/RTT req/s, and the multi-client row beats it if and only if
// many GETs' shard waits overlap. That makes the ratio robust on any
// machine — including single-core CI runners, where a compute-bound
// version of this scenario would show no scaling for either fan-out.
// (The reactor-link backend shares the same correlation engine; reply
// equivalence between the two link backends is asserted by
// tests/fanout_test.cc.)
// Emulates the network between a front-end and one remote shard: frames
// pass through unmodified, but every shard->front-end reply is delivered a
// fixed `delay` after the shard produced it, and concurrent replies age in
// parallel (a timer queue). net::DelayTransport cannot play this role — its
// sleep runs inside Receive, so pipelined frames on one link would each pay
// the delay back-to-back, which models a slow shard, not a distant one.
class DelayRelay {
 public:
  // `front` faces the fan-out's link, `back` faces the shard's serving.
  DelayRelay(std::unique_ptr<net::Transport> front,
             std::unique_ptr<net::Transport> back,
             std::chrono::milliseconds delay)
      : front_(std::move(front)), back_(std::move(back)), delay_(delay) {
    forward_ = std::thread([this] {
      for (;;) {
        // Infinite on purpose: the relay lives exactly as long as the
        // scenario and is torn down by closing both transports.
        auto frame = front_->Receive(net::Deadline::Infinite());
        if (!frame.ok() || !back_->Send(*frame).ok()) break;
      }
      back_->Close();
    });
    collect_ = std::thread([this] {
      for (;;) {
        auto frame = back_->Receive(net::Deadline::Infinite());
        if (!frame.ok()) break;
        std::lock_guard<std::mutex> lock(mu_);
        due_.push_back(
            {std::chrono::steady_clock::now() + delay_, std::move(*frame)});
        cv_.notify_all();
      }
    });
    deliver_ = std::thread([this] { DeliverLoop(); });
  }

  ~DelayRelay() {
    front_->Close();
    back_->Close();
    forward_.join();
    collect_.join();
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    deliver_.join();
  }

 private:
  struct Timed {
    std::chrono::steady_clock::time_point at;
    net::Frame frame;
  };

  void DeliverLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (stopping_) return;
      if (due_.empty()) {
        cv_.wait(lock);
        continue;
      }
      const auto at = due_.front().at;  // FIFO: equal delays, ordered dues
      if (std::chrono::steady_clock::now() < at) {
        cv_.wait_until(lock, at);
        continue;
      }
      const net::Frame frame = std::move(due_.front().frame);
      due_.pop_front();
      lock.unlock();
      (void)front_->Send(frame);
      lock.lock();
    }
  }

  std::unique_ptr<net::Transport> front_;
  std::unique_ptr<net::Transport> back_;
  const std::chrono::milliseconds delay_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Timed> due_;
  bool stopping_ = false;
  std::thread forward_;
  std::thread collect_;
  std::thread deliver_;
};

ScenarioResult RunFrontendScenario(const ThroughputParams& base_params,
                                   const Scenario& scenario) {
  ThroughputParams params = base_params;
  if (scenario.clients_override > 0) params.clients = scenario.clients_override;
  if (scenario.requests_override > 0) {
    params.requests_per_client = scenario.requests_override;
  }

  // A small fixed domain keeps per-shard compute (DPF expand + XOR scan,
  // serial per shard and paid once per GET at EVERY shard) well under the
  // per-GET round-trip overhead. Otherwise shard compute is the system's
  // serial resource and caps req/s identically for one client and many —
  // the scan-throughput scenarios above measure that; this one isolates
  // fan-out concurrency.
  zltp::ShardTopology topology;
  topology.domain_bits = 10;
  topology.top_bits = 2;  // 4 shard data servers per logical server
  topology.record_size = params.record_size;

  std::vector<std::unique_ptr<zltp::ShardDataServer>> shards[2];
  for (int replica = 0; replica < 2; ++replica) {
    for (std::size_t s = 0; s < topology.shard_count(); ++s) {
      shards[replica].push_back(
          std::make_unique<zltp::ShardDataServer>(topology, s));
    }
  }
  // Identical content in both replicas: the two logical servers of a PIR
  // pair must hold the same database. Collisions just skip (content is
  // irrelevant to cost; the scan covers the whole domain either way).
  {
    Rng rng(31);
    Bytes record(topology.record_size);
    const std::uint64_t domain = std::uint64_t{1} << topology.domain_bits;
    for (std::size_t i = 0; i < params.published; ++i) {
      const std::uint64_t index = rng.UniformInt(domain);
      const std::size_t shard =
          static_cast<std::size_t>(index & (topology.shard_count() - 1));
      rng.Fill(record);
      (void)shards[0][shard]->Load(index, record);
      (void)shards[1][shard]->Load(index, record);
    }
  }
  // Every shard link crosses an emulated 5ms one-way reply latency. The
  // old lock-step fan-out paid it shard_count times sequentially per GET
  // and admitted one GET at a time; the mux pays it once per GET and
  // overlaps GETs, which is the whole A/B.
  const std::chrono::milliseconds shard_delay{5};
  std::vector<std::unique_ptr<DelayRelay>> relays;
  auto make_fanout = [&](int replica) {
    std::vector<std::unique_ptr<net::Transport>> links;
    for (auto& shard : shards[replica]) {
      net::TransportPair front_pair = net::CreateInMemoryPair();
      net::TransportPair back_pair = net::CreateInMemoryPair();
      shard->ServeConnectionDetached(std::move(back_pair.b));
      relays.push_back(std::make_unique<DelayRelay>(
          std::move(front_pair.b), std::move(back_pair.a), shard_delay));
      links.push_back(std::move(front_pair.a));
    }
    return zltp::ShardFanout(topology, std::move(links));
  };
  const Bytes keyword_seed(16, 0x7e);
  zltp::FrontEndServer frontend0(0, keyword_seed, make_fanout(0));
  zltp::FrontEndServer frontend1(1, keyword_seed, make_fanout(1));
  // Clients are served by the transport pump, whose GETs meet in the
  // fan-out's AnswerAsync — N concurrent ops must pipeline through the mux,
  // which is exactly what the single-vs-many A/B detects.
  auto client_listener0 = net::TcpListener::Listen(0);
  auto client_listener1 = net::TcpListener::Listen(0);
  LW_CHECK(client_listener0.ok() && client_listener1.ok());
  const std::uint16_t port0 = client_listener0->bound_port();
  const std::uint16_t port1 = client_listener1->bound_port();
  std::optional<net::TcpListener> serve0(std::move(*client_listener0));
  std::optional<net::TcpListener> serve1(std::move(*client_listener1));
  std::thread accept0 = AcceptLoop(*serve0, frontend0);
  std::thread accept1 = AcceptLoop(*serve1, frontend1);

  const LoadResult load = DriveClosedLoopClients(
      port0, port1, topology.domain_bits, params, nullptr);

  serve0->Close();
  serve1->Close();
  accept0.join();
  accept1.join();
  return FillResult(scenario, load);
}

bool WriteJson(const std::string& path, const ThroughputParams& params,
               bool smoke, const std::vector<ScenarioResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_throughput: cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(
      f,
      "{\n  \"config\": {\"domain_bits\": %d, \"record_size\": %zu, "
      "\"clients\": %d, \"requests_per_client\": %d, \"threads\": %d, "
      "\"smoke\": %s, \"xor_tier\": \"%s\", "
      "\"hugepage_advised_bytes\": %llu},\n",
      params.domain_bits, params.record_size, params.clients,
      params.requests_per_client, params.threads, smoke ? "true" : "false",
      pir::XorTierName(pir::ActiveXorTier()),
      static_cast<unsigned long long>(HugepageAdvisedBytes()));
  std::fprintf(f, "  \"throughput\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    const int conns =
        2 * (r.scenario.clients_override > 0 ? r.scenario.clients_override
                                             : params.clients);
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"serve\": \"%s\", \"conns\": %d, "
        "\"max_wait_ms\": %lld, \"requests\": %llu, \"failed\": %llu, "
        "\"req_per_s\": %.3f, \"ns_per_op\": %.1f, "
        "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"avg_batch\": %.2f, \"batches\": %llu}%s\n",
        r.scenario.name.c_str(), ServeName(r.scenario), conns,
        static_cast<long long>(r.scenario.max_wait.count()),
        static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.failed), r.req_per_s,
        r.ns_per_op, r.p50_ms, r.p95_ms, r.p99_ms, r.avg_batch,
        static_cast<unsigned long long>(r.batches),
        i + 1 < results.size() ? "," : "");
  }
  const std::string metrics =
      obs::ToJson(obs::Registry::Default().Snapshot());
  std::fprintf(f, "  ],\n  \"metrics\": %s\n}\n", metrics.c_str());
  std::fclose(f);
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--smoke] [--threads=N] [--json=PATH]\n"
               "         [--clients=N] [--requests=N] [--conns=N]\n",
               argv0);
  return 2;
}

int Main(int argc, char** argv) {
  BenchFlags flags = ParseBenchFlags(&argc, argv);
  ThroughputParams params;
  params.threads = flags.threads;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--clients=", 0) == 0) {
      params.clients = std::atoi(arg.c_str() + std::strlen("--clients="));
    } else if (arg.rfind("--requests=", 0) == 0) {
      params.requests_per_client =
          std::atoi(arg.c_str() + std::strlen("--requests="));
    } else if (arg.rfind("--conns=", 0) == 0) {
      params.high_conns = std::atoi(arg.c_str() + std::strlen("--conns="));
      LW_CHECK(params.high_conns >= 2);
    } else {
      // Before any store is built: a mistyped flag (or --help) must not
      // run the full benchmark and overwrite the JSON.
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  // The high-connection scenario needs client+server fds in one process;
  // default soft limits (often 1024) are too small, so take the hard limit.
  {
    struct rlimit lim{};
    if (getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
      lim.rlim_cur = lim.rlim_max;
      (void)setrlimit(RLIMIT_NOFILE, &lim);
    }
  }
  if (flags.smoke) {
    params.domain_bits = 12;
    params.record_size = 256;
    params.published = 200;
    params.clients = 3;
    params.requests_per_client = 15;
    params.warmup_per_client = 2;
  }
  LW_CHECK(params.clients >= 1 && params.requests_per_client >= 1);

  zltp::PirStoreConfig store_config;
  store_config.domain_bits = params.domain_bits;
  store_config.record_size = params.record_size;
  store_config.keyword_seed = Bytes(16, 0x7e);
  zltp::PirStore store(store_config);
  {
    Rng rng(21);
    Bytes value(params.record_size / 2);
    for (std::size_t i = 0; i < params.published; ++i) {
      rng.Fill(value);
      (void)store.Publish("page/" + std::to_string(i), value);
    }
  }

  // Two batch-deadline settings: the sweep shows the latency/throughput
  // trade the co-rider window buys. Then the high-connection scenario.
  std::vector<Scenario> scenarios = {
      {"reactor/wait1ms", std::chrono::milliseconds(1)},
      {"reactor/wait4ms", std::chrono::milliseconds(4)},
  };
  {
    // Each client holds one connection per logical server. Per-client
    // request count shrinks so the scenario measures concurrency, not ten
    // minutes of wall clock.
    Scenario high;
    high.name = "reactor/conns" + std::to_string(params.high_conns);
    high.max_wait = std::chrono::milliseconds(4);
    high.clients_override = std::max(1, params.high_conns / 2);
    high.requests_override = flags.smoke ? 2 : 4;
    scenarios.push_back(high);
  }
  {
    // The sharded front-end A/B: the same §5.2 deployment under one client
    // and under many. Request counts are sized so each row's measuring
    // window is long enough to report a stable req/s; the single-client
    // row issues more requests since it is the only traffic source.
    Scenario single;
    single.name = "frontend/conns2";
    single.frontend = true;
    single.clients_override = 1;
    single.requests_override = flags.smoke ? 250 : 500;
    scenarios.push_back(single);
    Scenario many;
    many.name = "frontend/conns16";
    many.frontend = true;
    many.clients_override = 8;
    many.requests_override = flags.smoke ? 125 : 250;
    scenarios.push_back(many);
  }
  std::vector<ScenarioResult> results;
  for (const Scenario& s : scenarios) {
    results.push_back(s.frontend ? RunFrontendScenario(params, s)
                                 : RunScenario(store, params, s));
  }

  std::printf(
      "\n=== E11 (repo ablation): saturating throughput, 2^%d domain x "
      "%zu B, %d closed-loop clients, %d server thread(s), %s kernel ===\n",
      params.domain_bits, params.record_size, params.clients,
      params.threads == 0 ? static_cast<int>(
                                std::thread::hardware_concurrency())
                          : params.threads,
      pir::XorTierName(pir::ActiveXorTier()));
  PrintRule();
  std::printf("%-22s %6s %9s %9s %9s %9s %10s\n", "scenario", "conns",
              "req/s", "p50 ms", "p95 ms", "p99 ms", "avg batch");
  PrintRule();
  for (const ScenarioResult& r : results) {
    const int conns =
        2 * (r.scenario.clients_override > 0 ? r.scenario.clients_override
                                             : params.clients);
    std::printf("%-22s %6d %9.1f %9.2f %9.2f %9.2f %10.2f\n",
                r.scenario.name.c_str(), conns, r.req_per_s, r.p50_ms,
                r.p95_ms, r.p99_ms, r.avg_batch);
  }
  PrintRule();

  const std::string json_path =
      flags.json_path.empty() ? "BENCH_throughput.json" : flags.json_path;
  if (!WriteJson(json_path, params, flags.smoke, results)) return 1;
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace lw::bench

int main(int argc, char** argv) { return lw::bench::Main(argc, argv); }
