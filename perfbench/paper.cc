// The paper-regime workloads (paper §5.1): two ZltpPirServers on one reactor
// over a shared d=22 PirStore of 2^18 keyword-published 4 KiB records.
//
//   paper_get      2 PirSessions, each looping PrivateGetBatch over 8 random
//                  published keys: 16 riders per batch, the paper's batch.
//   paper_publish  1 PirSession looping 5-key pages (the universe's fixed
//                  fetch budget) while one publisher thread re-publishes
//                  random existing keys with fresh content at a fixed rate,
//                  so batches close on the co-rider window and writes are
//                  interleaved with pages (see PageGate).
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <thread>

#include <malloc.h>

#include "dpf/dpf.h"
#include "layers.h"
#include "net/reactor.h"
#include "net/tcp.h"
#include "pir/packing.h"
#include "pir/two_server.h"
#include "util/rand.h"
#include "util/thread_pool.h"
#include "zltp/server.h"
#include "zltp/store.h"

namespace lwbench {
namespace {

constexpr int kDomainBits = 22;
constexpr std::size_t kRecordSize = 4096;
constexpr std::size_t kRecords = std::size_t{1} << 18;  // 1 GiB of records
constexpr int kSetups = 3;                              // setup_s = median
constexpr double kPublishesPerSecond = 10;

std::size_t PayloadSize() { return lw::pir::MaxPayloadSize(kRecordSize); }

// Record content: a 16-byte header (key id, version) and then words derived
// from (seed, key id, version), so any reply can be checked against the
// exact bytes its version was published with. One multiply per word keeps
// building a 1 GiB store cheap.
lw::Bytes Payload(std::uint64_t seed, std::uint64_t key_id,
                  std::uint32_t version) {
  lw::Bytes out(PayloadSize(), 0);
  std::memcpy(out.data(), &key_id, 8);
  std::memcpy(out.data() + 8, &version, 4);
  const std::uint64_t base =
      Mix(seed ^ Mix(key_id) ^ (std::uint64_t{version} << 40));
  for (std::size_t off = 16; off < out.size(); off += 8) {
    const std::uint64_t word = (base + off) * 0x9e3779b97f4a7c15ULL;
    std::memcpy(out.data() + off, &word,
                std::min<std::size_t>(8, out.size() - off));
  }
  return out;
}

// True if `payload` is exactly what key `key_id` was published with at some
// version <= max_version.
bool Verify(std::uint64_t seed, std::uint64_t key_id, std::uint32_t max_version,
            const lw::Bytes& payload) {
  if (payload.size() != PayloadSize()) return false;
  std::uint64_t id = 0;
  std::uint32_t version = 0;
  std::memcpy(&id, payload.data(), 8);
  std::memcpy(&version, payload.data() + 8, 4);
  return id == key_id && version <= max_version &&
         payload == Payload(seed, key_id, version);
}

struct PaperStore {
  std::unique_ptr<lw::zltp::PirStore> store;
  std::vector<std::string> keys;  // key id -> published key name
};

// Publishes kRecords keys. A name whose domain index is taken is skipped, as
// a publisher would pick another name (paper §2.2).
PaperStore BuildStore(std::uint64_t seed) {
  lw::zltp::PirStoreConfig config;
  config.domain_bits = kDomainBits;
  config.record_size = kRecordSize;
  config.keyword_seed.resize(16);
  const std::uint64_t ks[2] = {Mix(seed ^ 0x6b6579), Mix(seed ^ 0x736565)};
  std::memcpy(config.keyword_seed.data(), ks, 16);
  PaperStore out;
  out.store = std::make_unique<lw::zltp::PirStore>(config);
  out.keys.reserve(kRecords);
  char name[40];
  for (std::uint64_t i = 0; out.keys.size() < kRecords; ++i) {
    std::snprintf(name, sizeof name, "obj/%016llx",
                  static_cast<unsigned long long>(Mix(seed * 0x10001 + i)));
    const lw::Status s =
        out.store->Publish(name, Payload(seed, out.keys.size(), 0));
    if (s.code() == lw::StatusCode::kCollision) continue;
    Check(s, "publish");
    out.keys.emplace_back(name);
  }
  return out;
}

// Both logical PIR servers on one reactor, each with half the host's
// threads: a stand-in for two half-size machines. Everything else is the
// shipped default (BatchConfig{}, reactor serving).
class Deployment {
 public:
  explicit Deployment(PaperStore data) : data_(std::move(data)) {
    lw::zltp::ServerOptions options;
    options.num_threads = std::max(1, HostThreads() / 2);
    for (int role = 0; role < 2; ++role) {
      servers_[role] = std::make_unique<lw::zltp::ZltpPirServer>(
          *data_.store, static_cast<std::uint8_t>(role), options);
      auto listener = lw::net::TcpListener::Listen(0);
      Check(listener.status(), "listen");
      ports_[role] = listener->bound_port();
      Check(servers_[role]->ServeOnReactor(reactor_, std::move(*listener)),
            "serve");
    }
    Check(reactor_.Start(), "reactor start");
  }
  // Documented teardown order: stop the reactor, then the servers, then the
  // reactor object (members below are destroyed in reverse order).
  ~Deployment() { reactor_.Stop(); }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  void StopServing() { reactor_.Stop(); }
  lw::zltp::PirStore& store() { return *data_.store; }
  const std::vector<std::string>& keys() const { return data_.keys; }
  lw::zltp::ZltpPirServer& server(int role) { return *servers_[role]; }

  std::unique_ptr<lw::zltp::PirSession> Connect(bool timed) {
    auto session = lw::zltp::PirSession::Establish(
        SessionOptions(Dial(ports_[0], timed), Dial(ports_[1], timed)));
    Check(session.status(), "PIR session");
    return std::make_unique<lw::zltp::PirSession>(std::move(*session));
  }

 private:
  PaperStore data_;
  lw::net::Reactor reactor_;
  std::unique_ptr<lw::zltp::ZltpPirServer> servers_[2];
  std::uint16_t ports_[2] = {0, 0};
};

// Highest version published (or being published) per key id.
using Versions = std::vector<std::atomic<std::uint32_t>>;

// Keeps publishes out of in-flight pages. The two logical servers scan the
// shared store each at its own moment, so a publish that lands between the
// two scans of one batch makes the XOR of their answers a mix of two
// versions: wrong content that the key fingerprint cannot catch, since a
// re-publish keeps it. Serving through such a write needs an update epoch
// both servers agree on, which the servers do not have; here a publish waits
// for the page in flight, and the next page waits for the publish.
class PageGate {
 public:
  void EnterPage() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return !writer_; });
    ++pages_;
  }
  void LeavePage() {
    std::lock_guard lock(mu_);
    --pages_;
    cv_.notify_all();
  }
  void EnterPublish() {
    std::unique_lock lock(mu_);
    writer_ = true;
    cv_.wait(lock, [&] { return pages_ == 0; });
  }
  void LeavePublish() {
    std::lock_guard lock(mu_);
    writer_ = false;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool writer_ = false;
  int pages_ = 0;
};

// A key a page asked for: what the traced run's replay feeds the layers.
struct Requested {
  std::uint64_t page_id;
  std::uint64_t key_id;
};

class PaperClient final : public Client {
 public:
  // `gate` is null when nothing publishes during the run.
  PaperClient(Deployment& deployment, bool timed, std::uint64_t rng_seed,
              int keys_per_page, const Versions& versions,
              std::uint64_t content_seed, PageGate* gate)
      : deployment_(deployment),
        session_(deployment.Connect(timed)),
        rng_(rng_seed),
        keys_per_page_(keys_per_page),
        versions_(versions),
        content_seed_(content_seed),
        gate_(gate) {}

  PageResult Page(std::uint64_t page_id) override {
    const auto& keys = deployment_.keys();
    std::vector<std::uint64_t> ids;
    std::vector<std::string> names;
    while (ids.size() < static_cast<std::size_t>(keys_per_page_)) {
      const std::uint64_t id = rng_.UniformInt(keys.size());
      if (std::find(ids.begin(), ids.end(), id) != ids.end()) continue;
      ids.push_back(id);
      names.push_back(keys[id]);
    }
    for (const std::uint64_t id : ids) history_.push_back({page_id, id});
    PageResult r;
    r.gets = ids.size();
    const auto got = TimePage(page_id, r, [&] {
      if (gate_ != nullptr) gate_->EnterPage();
      auto out = session_->PrivateGetBatch(names);
      if (gate_ != nullptr) gate_->LeavePage();
      return out;
    });
    if (!got.ok()) {
      r.failed = r.gets;
      return r;
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (!(*got)[i].ok()) {
        ++r.failed;
      } else if (!Verify(content_seed_, ids[i], versions_[ids[i]].load(),
                         *(*got)[i])) {
        ++r.wrong;
      }
    }
    return r;
  }
  lw::zltp::TrafficCounters Traffic() const override {
    return session_->traffic();
  }
  int connections() const override { return 2; }
  void Close() { session_->Close(); }
  const std::vector<Requested>& history() const { return history_; }

 private:
  Deployment& deployment_;
  std::unique_ptr<lw::zltp::PirSession> session_;
  lw::Rng rng_;
  int keys_per_page_;
  const Versions& versions_;
  std::uint64_t content_seed_;
  PageGate* gate_;
  std::vector<Requested> history_;
};

// Re-publishes random existing keys with their next version at a fixed rate,
// each between pages. A publish's latency includes its wait for the page in
// flight; the publishes that fell due meanwhile then run back to back.
class Publisher {
 public:
  Publisher(Deployment& deployment, Versions& versions, PageGate& gate,
            std::uint64_t seed)
      : deployment_(deployment), versions_(versions), gate_(gate), seed_(seed),
        rng_(Mix(seed ^ 0x707562)) {}
  ~Publisher() { Stop(); }
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  void Start() {
    thread_ = std::thread([this] {
      const auto start = SteadyClock::now();
      for (std::uint64_t n = 0; !stop_.load(); ++n) {
        const auto due =
            start + std::chrono::duration_cast<SteadyClock::duration>(
                        std::chrono::duration<double>(n / kPublishesPerSecond));
        std::this_thread::sleep_until(due);
        if (stop_.load()) break;
        const std::uint64_t id = rng_.UniformInt(deployment_.keys().size());
        const std::uint32_t version = versions_[id].load() + 1;
        const lw::Bytes payload = Payload(seed_, id, version);
        const auto t0 = SteadyClock::now();
        gate_.EnterPublish();
        versions_[id].store(version);  // before the write becomes visible
        const lw::Status s =
            deployment_.store().Publish(deployment_.keys()[id], payload);
        gate_.LeavePublish();
        const auto t1 = SteadyClock::now();
        ++attempted_;
        if (!s.ok()) ++failed_;
        latency_ms_.push_back(MsBetween(t0, t1));
      }
    });
  }
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  // Read after Stop().
  const std::vector<double>& latency_ms() const { return latency_ms_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  Deployment& deployment_;
  Versions& versions_;
  PageGate& gate_;
  std::uint64_t seed_;
  lw::Rng rng_;
  std::atomic<bool> stop_{false};
  std::vector<double> latency_ms_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::thread thread_;
};

lw::zltp::BatchScheduler::Stats SumStats(Deployment& d) {
  auto a = d.server(0).batch_stats();
  const auto b = d.server(1).batch_stats();
  a.requests += b.requests;
  a.batches += b.batches;
  a.shed += b.shed;
  a.expired += b.expired;
  a.full_closes += b.full_closes;
  a.wait_closes += b.wait_closes;
  a.deadline_closes += b.deadline_closes;
  return a;
}

// Replays the traced window's own keys through the layers' public calls, at
// the observed batch size, with the servers stopped. Returns the batch size
// replayed.
std::size_t ReplayLayers(Deployment& d, const std::vector<Requested>& history,
                         std::size_t batch, const Versions& versions,
                         std::uint64_t seed,
                         std::map<std::string, double>& layers) {
  if (history.empty()) Check(lw::InternalError("no traced page"), "replay");
  lw::zltp::PirStore& store = d.store();
  const auto& mapper = store.mapper();
  std::vector<lw::dpf::KeyPair> pairs;
  const std::size_t n = std::min<std::size_t>(history.size(), 256);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t index = mapper.IndexOf(d.keys()[history[i].key_id]);
    ScopedSpan span("dpf.gen", history[i].page_id);
    pairs.push_back(lw::dpf::Generate(index, kDomainBits));
  }
  batch = std::clamp<std::size_t>(batch, 1, pairs.size());
  std::vector<lw::dpf::DpfKey> party[2];
  for (std::size_t q = 0; q < batch; ++q) {
    party[0].push_back(pairs[q].key0);
    party[1].push_back(pairs[q].key1);
  }
  layers["dpf.key_bytes"] = static_cast<double>(pairs[0].key0.SerializedSize());

  lw::ThreadPool pool(std::max(1, HostThreads() / 2));
  std::vector<lw::Bytes> answers[2];
  for (int rep = 0; rep < 3; ++rep) {
    const int side = rep == 2 ? 1 : 0;
    lw::Result<lw::zltp::PirStore::ExpandedBatch> expanded =
        lw::InternalError("unset");
    {
      ScopedSpan span("pir.expand_batch");
      expanded = store.ExpandBatch(party[side], &pool);
    }
    Check(expanded.status(), "replay expand");
    lw::Result<std::vector<lw::Bytes>> scanned = lw::InternalError("unset");
    {
      ScopedSpan span("pir.scan_batch");
      scanned = store.ScanBatch(*expanded, &pool);
    }
    Check(scanned.status(), "replay scan");
    answers[side] = std::move(*scanned);
  }
  for (std::size_t q = 0; q < batch; ++q) {
    lw::Result<lw::Bytes> record = lw::InternalError("unset");
    {
      ScopedSpan span("pir.combine", history[q].page_id);
      record = lw::pir::CombineAnswers(answers[0][q], answers[1][q]);
    }
    const auto unpacked =
        record.ok() ? lw::pir::UnpackRecord(*record)
                    : lw::Result<lw::pir::UnpackedRecord>(record.status());
    if (!unpacked.ok() ||
        !Verify(seed, history[q].key_id, versions[history[q].key_id].load(),
                unpacked->payload)) {
      std::fprintf(stderr, "lwbench: replayed answer %zu does not verify\n",
                   q);
      std::exit(1);
    }
  }
  for (std::size_t i = 0; i < 32 && i < history.size(); ++i) {
    const std::uint64_t id = history[i].key_id;
    const lw::Bytes payload = Payload(seed, id, versions[id].load());
    ScopedSpan span("pir.publish", history[i].page_id);
    Check(store.Publish(d.keys()[id], payload), "replay publish");
  }
  return batch;
}

WorkloadResult RunPaper(const RunOptions& options, bool publish) {
  const int clients_n = publish ? 1 : 2;
  const int keys_per_page = publish ? 5 : 8;

  // Set up kSetups times and keep the last deployment; set-up runs until
  // the sessions are established.
  std::vector<double> setup_s;
  PageGate gate;
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<Versions> versions;
  std::vector<std::unique_ptr<PaperClient>> clients;
  for (int i = 0; i < kSetups; ++i) {
    clients.clear();
    deployment.reset();
    malloc_trim(0);  // the peak RSS then reflects one deployment
    const auto t0 = SteadyClock::now();
    deployment = std::make_unique<Deployment>(BuildStore(options.seed));
    versions = std::make_unique<Versions>(deployment->keys().size());
    for (int c = 0; c < clients_n; ++c) {
      clients.push_back(std::make_unique<PaperClient>(
          *deployment, options.trace, Mix(options.seed + 100 + c),
          keys_per_page, *versions, options.seed, publish ? &gate : nullptr));
    }
    setup_s.push_back(MsBetween(t0, SteadyClock::now()) / 1e3);
  }
  std::vector<Client*> load_clients;
  for (auto& c : clients) load_clients.push_back(c.get());

  Publisher publisher(*deployment, *versions, gate, options.seed);
  const auto start_publisher = [&] {
    if (publish) publisher.Start();
  };
  const int extra_threads = publish ? 1 : 0;
  // paper_get's two users click together, so each round is one batch of 16
  // riders; free-running, their pages drift apart and batches close half
  // full on the co-rider window.
  const bool lockstep = !publish;
  constexpr int kWarmupPages = 2;

  WorkloadResult result;
  if (!options.trace) {
    const LoadStats load = DriveClosedLoop(load_clients, options.seconds,
                                           kWarmupPages, extra_threads,
                                           lockstep, start_publisher);
    publisher.Stop();
    for (auto& c : clients) c->Close();
    result.metrics = EndToEndMetrics(load, setup_s);
    result.attempted = load.gets_attempted + publisher.attempted();
    result.failed = load.gets_failed + publisher.failed();
    result.correct = load.wrong == 0;
    return result;
  }

  // Traced run: an untraced half, then a traced half whose window the obs
  // deltas and batch stats cover, then the layer replay.
  const LoadStats untraced =
      DriveClosedLoop(load_clients, options.seconds / 2, kWarmupPages,
                      extra_threads, lockstep, start_publisher);
  Tracer::Get().set_enabled(true);
  const auto stats_before = SumStats(*deployment);
  auto obs_before = lw::obs::Registry::Default().Snapshot();
  const std::size_t history_mark = clients[0]->history().size();
  const LoadStats traced =
      DriveClosedLoop(load_clients, options.seconds / 2, 0, extra_threads,
                      lockstep, nullptr);
  const ObsDelta obs(std::move(obs_before),
                     lw::obs::Registry::Default().Snapshot());
  const auto stats_after = SumStats(*deployment);
  publisher.Stop();
  for (auto& c : clients) c->Close();
  deployment->StopServing();

  const double batches =
      static_cast<double>(stats_after.batches - stats_before.batches);
  const double riders = static_cast<double>(
      (stats_after.requests - stats_after.expired) -
      (stats_before.requests - stats_before.expired));
  const double batch_mean = batches > 0 ? riders / batches : 0;
  std::map<std::string, double> layers;
  const std::vector<Requested> history(
      clients[0]->history().begin() + static_cast<std::ptrdiff_t>(history_mark),
      clients[0]->history().end());
  const std::size_t replay_batch = ReplayLayers(
      *deployment, history, static_cast<std::size_t>(std::lround(batch_mean)),
      *versions, options.seed, layers);
  const std::vector<Span> spans = Tracer::Get().spans();

  const double gets =
      static_cast<double>(std::max<std::uint64_t>(1, traced.gets_completed));
  const double expand_ms = MedianOr0(SpanMs(spans, "pir.expand_batch"));
  const double scan_ms = MedianOr0(SpanMs(spans, "pir.scan_batch"));
  layers["dpf.expand_ms_per_key"] =
      expand_ms / static_cast<double>(replay_batch);
  CommonLayers(spans, obs, gets, layers);
  layers["pir.scan_ms_per_batch"] = scan_ms;
  layers["pir.scan_gib_per_s"] =
      static_cast<double>(deployment->store().stored_bytes()) /
      (1024.0 * 1024 * 1024) / (scan_ms / 1e3);
  layers["zltp.batch_mean"] = batch_mean;
  layers["zltp.batch_full_frac"] =
      batches > 0 ? (stats_after.full_closes - stats_before.full_closes) / batches
                  : 0;
  layers["zltp.batch_wait_frac"] =
      batches > 0 ? (stats_after.wait_closes - stats_before.wait_closes) / batches
                  : 0;
  layers["zltp.pipeline_stall_ms_per_batch"] =
      batches > 0 ? obs.Counter("lw_batch_pipeline_stall_ns_total") / 1e6 / batches
                  : 0;
  layers["zltp.shed_expired"] = static_cast<double>(
      (stats_after.shed + stats_after.expired) -
      (stats_before.shed + stats_before.expired));
  if (publish) {
    layers["publish_p50_ms"] = Quantile(publisher.latency_ms(), 0.5);
    layers["publish_p90_ms"] = Quantile(publisher.latency_ms(), 0.9);
  }
  const double attempted = static_cast<double>(
      untraced.gets_attempted + traced.gets_attempted + publisher.attempted());
  layers["error_rate"] =
      static_cast<double>(untraced.gets_failed + untraced.wrong +
                          traced.gets_failed + traced.wrong +
                          publisher.failed()) /
      std::max(1.0, attempted);

  // A page's blocking path: client keygen, client sends, the server's
  // admission queue, one batch's expansion and fused scan, client combine.
  const double per_page = keys_per_page;
  const std::vector<BlockingStep> steps = {
      {"dpf.gen (client keygen)", per_page * layers["dpf.gen_us"] / 1e3},
      {"net.client_send", layers["net.client_send_us"] / 1e3},
      {"zltp.queue_wait_p50", layers["zltp.queue_wait_p50_ms"]},
      {"dpf.expand (one batch)", expand_ms},
      {"pir.scan (one batch)", scan_ms},
      {"pir.combine (client)", per_page * layers["pir.combine_us"] / 1e3},
  };
  FinishLayers(Quantile(traced.page_ms, 0.5), Quantile(untraced.page_ms, 0.5),
               steps, layers, result.layer_table);
  result.metrics = LayerMetrics(layers);
  result.attempted = static_cast<std::uint64_t>(attempted);
  result.failed = untraced.gets_failed + traced.gets_failed + publisher.failed();
  result.correct = untraced.wrong == 0 && traced.wrong == 0;
  return result;
}

}  // namespace

WorkloadResult RunPaperGet(const RunOptions& options) {
  return RunPaper(options, /*publish=*/false);
}

WorkloadResult RunPaperPublish(const RunOptions& options) {
  return RunPaper(options, /*publish=*/true);
}

}  // namespace lwbench
