// The full-stack browsing workload (paper §3.2's two-session browser).
//
// One lightweb::Browser visits pages drawn by workload::SessionGenerator
// (Zipf popularity, biased to stay on a domain) over a SiteBuilder-published
// C4-like universe of 2^14 pages in a 2^16 data domain.
//
//   data channel  PirSession -> 2 FrontEndServers, each fanning out over 4
//                 ShardDataServers (ShardFanout::ConnectOnReactor)
//   code channel  EnclaveSession -> ZltpEnclaveServer whose KvEnclave holds
//                 one code blob per domain; the browser's code cache is
//                 smaller than the domain count, so code misses recur.
//
// DPF and scan work per GET is small here, so the network, the reactor, the
// shard fan-out, the enclave's ORAM and LightScript planning and rendering
// carry most of a page's time.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include <malloc.h>

#include "dpf/dpf.h"
#include "layers.h"
#include "lightweb/browser.h"
#include "lightweb/publisher.h"
#include "lightweb/universe.h"
#include "net/reactor.h"
#include "net/tcp.h"
#include "oram/enclave.h"
#include "oram/storage.h"
#include "pir/packing.h"
#include "pir/two_server.h"
#include "util/thread_pool.h"
#include "workload/workload.h"
#include "zltp/frontend.h"
#include "zltp/server.h"

namespace lwbench {
namespace {

constexpr int kDataDomainBits = 16;
constexpr int kShardTopBits = 2;  // 4 shard data servers per logical server
constexpr std::uint64_t kPages = 1 << 14;
constexpr std::size_t kBlobSize = 4096;
constexpr std::size_t kCodeBlobSize = 64 * 1024;
constexpr int kFetchesPerPage = 5;
constexpr std::size_t kCodeCache = 8;  // C4Like gives 16 domains
constexpr int kSetups = 3;

std::string Tagline(std::uint64_t seed, std::uint64_t domain) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "tagline-%016llx",
                static_cast<unsigned long long>(Mix(seed ^ (domain << 20))));
  return buf;
}

std::string MetaPath(const std::string& domain) { return domain + "/meta"; }

lw::zltp::ShardTopology Topology() {
  lw::zltp::ShardTopology t;
  t.domain_bits = kDataDomainBits;
  t.top_bits = kShardTopBits;
  t.record_size = kBlobSize;
  return t;
}

class BrowseDeployment {
 public:
  explicit BrowseDeployment(std::uint64_t seed)
      : corpus_(lw::workload::C4Like(kPages, seed)),
        universe_(UniverseConfigFor(seed)),
        storage_(lw::oram::KvEnclave::RequiredStorageBuckets(EnclaveConfig())),
        enclave_(EnclaveConfig(), storage_) {
    Publish(seed);
    const lw::zltp::ShardTopology topology = Topology();
    std::vector<lw::zltp::ShardFanout::ShardAddr> addrs[2];
    for (int r = 0; r < 2; ++r) {
      for (std::size_t s = 0; s < topology.shard_count(); ++s) {
        shards_[r].push_back(
            std::make_unique<lw::zltp::ShardDataServer>(topology, s));
      }
    }
    LoadShards();
    for (int r = 0; r < 2; ++r) {
      for (auto& shard : shards_[r]) {
        addrs[r].push_back({"127.0.0.1", Serve(*shard)});
      }
    }
    Check(reactor_.Start(), "reactor start");
    const lw::Bytes& keyword_seed =
        universe_.data_store().config().keyword_seed;
    for (int r = 0; r < 2; ++r) {
      auto fanout = lw::zltp::ShardFanout::ConnectOnReactor(topology, reactor_,
                                                            addrs[r]);
      Check(fanout.status(), "shard fan-out");
      frontends_[r] = std::make_unique<lw::zltp::FrontEndServer>(
          static_cast<std::uint8_t>(r), keyword_seed, std::move(*fanout));
      frontend_ports_[r] = Serve(*frontends_[r]);
    }
    enclave_server_ = std::make_unique<lw::zltp::ZltpEnclaveServer>(enclave_);
    enclave_port_ = Serve(*enclave_server_);
  }
  ~BrowseDeployment() { reactor_.Stop(); }
  BrowseDeployment(const BrowseDeployment&) = delete;
  BrowseDeployment& operator=(const BrowseDeployment&) = delete;

  void StopServing() { reactor_.Stop(); }
  const lw::workload::SyntheticCorpus& corpus() const { return corpus_; }
  const lw::lightweb::Universe& universe() const { return universe_; }
  lw::oram::KvEnclave& enclave() { return enclave_; }
  lw::zltp::ShardDataServer& shard(int replica, std::size_t s) {
    return *shards_[replica][s];
  }
  bool published(std::uint64_t page) const { return published_[page]; }
  const std::string& code_blob(const std::string& domain) const {
    return code_blobs_.at(domain);
  }
  const std::string& tagline(const std::string& domain) const {
    return taglines_.at(domain);
  }
  std::uint16_t frontend_port(int r) const { return frontend_ports_[r]; }
  std::uint16_t enclave_port() const { return enclave_port_; }

 private:
  static lw::lightweb::UniverseConfig UniverseConfigFor(std::uint64_t seed) {
    lw::lightweb::UniverseConfig config;
    config.name = "bench";
    config.code_blob_size = kCodeBlobSize;
    config.data_domain_bits = kDataDomainBits;
    config.data_blob_size = kBlobSize;
    config.fetches_per_page = kFetchesPerPage;
    config.master_seed.resize(16);
    for (int i = 0; i < 16; ++i) {
      config.master_seed[i] =
          static_cast<std::uint8_t>(Mix(seed ^ 0x756e69 ^ (i << 8)));
    }
    return config;
  }
  static lw::oram::EnclaveConfig EnclaveConfig() {
    lw::oram::EnclaveConfig config;
    config.capacity = 32;
    config.value_size = kCodeBlobSize;
    return config;
  }

  // Every domain's publisher pushes its code blob and a meta blob, then
  // every page's data blob. A page whose path collides with an earlier one
  // is left unpublished and never visited.
  void Publish(std::uint64_t seed) {
    const std::uint64_t domains = corpus_.spec().num_domains;
    std::vector<lw::lightweb::Publisher> publishers;
    for (std::uint64_t d = 0; d < domains; ++d) {
      const std::string domain = corpus_.DomainOf(d);
      publishers.emplace_back("publisher-" + std::to_string(d));
      lw::lightweb::SiteBuilder site(domain);
      site.SetSiteName("Site " + std::to_string(d))
          .AddRoute("/page/:id", {"{domain}/page/{id}", "{domain}/meta"},
                    "# {{site}}\n{{data1.tagline}}\n## {{data0.id}}\n"
                    "{{data0.text}}\n");
      Check(publishers.back().PublishSite(universe_, site), "publish site");
      code_blobs_[domain] = site.BuildCodeBlob();
      Check(enclave_.Put(domain, lw::ToBytes(code_blobs_[domain])),
            "enclave put");
      taglines_[domain] = Tagline(seed, d);
      lw::json::Object meta;
      meta["tagline"] = taglines_[domain];
      Check(publishers.back().PublishData(universe_, MetaPath(domain),
                                          lw::json::Value(std::move(meta))),
            "publish meta");
      published_paths_.push_back(MetaPath(domain));
    }
    published_.assign(corpus_.size(), false);
    for (std::uint64_t i = 0; i < corpus_.size(); ++i) {
      const lw::workload::SyntheticPage page = corpus_.GetPage(i);
      auto data = lw::json::Parse(lw::ToString(page.payload));
      Check(data.status(), "corpus page json");
      const lw::Status s = publishers[i % domains].PublishData(
          universe_, page.path, *data);
      if (s.code() == lw::StatusCode::kCollision) continue;
      Check(s, "publish page");
      published_[i] = true;
      published_paths_.push_back(page.path);
    }
  }

  // Copies the universe's data blobs into both replicas' shard servers.
  void LoadShards() {
    const lw::zltp::PirStore& store = universe_.data_store();
    for (const std::string& path : published_paths_) {
      auto payload = store.DirectLookup(path);
      Check(payload.status(), "direct lookup");
      auto record = lw::pir::PackRecord(store.mapper().Fingerprint(path),
                                        *payload, kBlobSize);
      Check(record.status(), "pack record");
      const std::uint64_t index = store.mapper().IndexOf(path);
      const std::size_t shard = index & ((1u << kShardTopBits) - 1);
      for (int r = 0; r < 2; ++r) {
        Check(shards_[r][shard]->Load(index, *record), "shard load");
      }
    }
  }

  template <typename Server>
  std::uint16_t Serve(Server& server) {
    auto listener = lw::net::TcpListener::Listen(0);
    Check(listener.status(), "listen");
    const std::uint16_t port = listener->bound_port();
    Check(server.ServeOnReactor(reactor_, std::move(*listener)), "serve");
    return port;
  }

  lw::workload::SyntheticCorpus corpus_;
  lw::lightweb::Universe universe_;
  lw::oram::MemoryStorage storage_;
  lw::oram::KvEnclave enclave_;
  std::vector<bool> published_;
  std::vector<std::string> published_paths_;
  std::map<std::string, std::string> code_blobs_;
  std::map<std::string, std::string> taglines_;
  // Teardown order: reactor_.Stop() (destructor body), then the servers
  // below, then the reactor object.
  lw::net::Reactor reactor_;
  std::vector<std::unique_ptr<lw::zltp::ShardDataServer>> shards_[2];
  std::unique_ptr<lw::zltp::FrontEndServer> frontends_[2];
  std::unique_ptr<lw::zltp::ZltpEnclaveServer> enclave_server_;
  std::uint16_t frontend_ports_[2] = {0, 0};
  std::uint16_t enclave_port_ = 0;
};

// One browsing user: the browser over its two ZLTP sessions.
class BrowseClient final : public Client {
 public:
  BrowseClient(BrowseDeployment& d, bool timed, std::uint64_t seed)
      : deployment_(d),
        visits_(d.corpus(), 1.0, 0.6, Mix(seed ^ 0x62726f)) {
    auto pir = lw::zltp::PirSession::Establish(SessionOptions(
        Dial(d.frontend_port(0), timed), Dial(d.frontend_port(1), timed)));
    Check(pir.status(), "PIR session");
    auto enclave = lw::zltp::EnclaveSession::Establish(
        SessionOptions(Dial(d.enclave_port(), timed)));
    Check(enclave.status(), "enclave session");
    auto pir_session =
        std::make_unique<lw::zltp::PirSession>(std::move(*pir));
    auto enclave_session =
        std::make_unique<lw::zltp::EnclaveSession>(std::move(*enclave));
    pir_ = pir_session.get();
    enclave_ = enclave_session.get();
    std::unique_ptr<lw::lightweb::BlobChannel> code =
        std::make_unique<lw::lightweb::ZltpChannel>(std::move(enclave_session));
    std::unique_ptr<lw::lightweb::BlobChannel> data =
        std::make_unique<lw::lightweb::ZltpChannel>(std::move(pir_session));
    if (timed) {
      code = std::make_unique<TimedChannel>(std::move(code),
                                            "lightweb.code_fetch");
      data = std::make_unique<TimedChannel>(std::move(data),
                                            "lightweb.data_fetch");
    }
    lw::lightweb::BrowserConfig config;
    config.fetches_per_page = kFetchesPerPage;
    config.code_cache_capacity = kCodeCache;
    browser_ = std::make_unique<lw::lightweb::Browser>(
        std::move(code), std::move(data), config);
  }

  PageResult Page(std::uint64_t page_id) override {
    std::string path;
    std::uint64_t page = 0;
    do {
      path = visits_.NextVisit();
      page = std::stoull(path.substr(path.rfind('/') + 1));
    } while (!deployment_.published(page));
    history_.push_back({page_id, page});

    const std::uint64_t misses = browser_->code_cache_misses();
    PageResult r;
    const auto visit =
        TimePage(page_id, r, [&] { return browser_->Visit(path); });
    r.gets = kFetchesPerPage + (browser_->code_cache_misses() - misses);
    if (!visit.ok()) {
      r.failed = r.gets;
      return r;
    }
    real_fetches_ += static_cast<std::uint64_t>(visit->real_fetches);
    dummy_fetches_ += static_cast<std::uint64_t>(visit->dummy_fetches);
    for (const lw::Status& s : visit->fetch_status) {
      if (!s.ok()) ++r.failed;
    }
    if (r.failed != 0) return r;
    // The rendered page must carry every field of its data blobs.
    const auto& corpus = deployment_.corpus();
    const auto data =
        lw::json::Parse(lw::ToString(corpus.GetPage(page).payload));
    const std::string& text = visit->text;
    if (!data.ok() ||
        text.find(data->GetString("text")) == std::string::npos ||
        text.find("## " + std::to_string(page) + "\n") == std::string::npos ||
        text.find(deployment_.tagline(corpus.DomainOf(page))) ==
            std::string::npos) {
      ++r.wrong;
    }
    return r;
  }

  lw::zltp::TrafficCounters Traffic() const override {
    lw::zltp::TrafficCounters t = pir_->traffic();
    const lw::zltp::TrafficCounters& e = enclave_->traffic();
    t.bytes_sent += e.bytes_sent;
    t.bytes_received += e.bytes_received;
    t.requests += e.requests;
    return t;
  }
  int connections() const override { return 3; }
  void Close() {
    pir_->Close();
    enclave_->Close();
  }

  struct Visited {
    std::uint64_t page_id;  // trace page id
    std::uint64_t corpus_page;
  };
  const std::vector<Visited>& history() const { return history_; }
  std::uint64_t code_hits() const { return browser_->code_cache_hits(); }
  std::uint64_t code_misses() const { return browser_->code_cache_misses(); }
  std::uint64_t real_fetches() const { return real_fetches_; }
  std::uint64_t dummy_fetches() const { return dummy_fetches_; }

 private:
  BrowseDeployment& deployment_;
  lw::workload::SessionGenerator visits_;
  lw::zltp::PirSession* pir_ = nullptr;          // owned by browser_
  lw::zltp::EnclaveSession* enclave_ = nullptr;  // owned by browser_
  std::unique_ptr<lw::lightweb::Browser> browser_;
  std::vector<Visited> history_;
  std::uint64_t real_fetches_ = 0;
  std::uint64_t dummy_fetches_ = 0;
};

// Replays the traced window's own pages through the layers' public calls
// with the servers stopped.
void ReplayLayers(BrowseDeployment& d,
                  const std::vector<BrowseClient::Visited>& history,
                  std::map<std::string, double>& layers) {
  if (history.empty()) Check(lw::InternalError("no traced page"), "replay");
  const lw::zltp::PirStore& store = d.universe().data_store();
  const auto& mapper = store.mapper();
  const auto& corpus = d.corpus();
  struct Query {
    std::uint64_t page_id;
    std::string path;
    lw::dpf::KeyPair keys;
  };
  std::vector<Query> queries;
  for (std::size_t i = 0; i < history.size() && i < 256; ++i) {
    Query q{history[i].page_id, corpus.GetPage(history[i].corpus_page).path,
            {}};
    ScopedSpan span("dpf.gen", q.page_id);
    q.keys = lw::dpf::Generate(mapper.IndexOf(q.path), kDataDomainBits);
    queries.push_back(std::move(q));
  }
  layers["dpf.key_bytes"] =
      static_cast<double>(queries[0].keys.key0.SerializedSize());

  // One GET's shard work on each replica: split the key, answer every
  // sub-tree, combine; the two replicas' shares must give the page back.
  for (std::size_t i = 0; i < queries.size() && i < 32; ++i) {
    const Query& q = queries[i];
    lw::Bytes share[2];
    for (int r = 0; r < 2; ++r) {
      ScopedSpan span("dpf.subtree", q.page_id);
      const lw::dpf::DpfKey& key = r == 0 ? q.keys.key0 : q.keys.key1;
      share[r].assign(kBlobSize, 0);
      const auto subkeys = lw::dpf::SplitForShards(key, kShardTopBits);
      for (std::size_t s = 0; s < subkeys.size(); ++s) {
        auto answer = d.shard(r, s).Answer(subkeys[s]);
        Check(answer.status(), "shard answer");
        lw::XorInto(share[r], *answer);
      }
    }
    lw::Result<lw::Bytes> record = lw::InternalError("unset");
    {
      ScopedSpan span("pir.combine", q.page_id);
      record = lw::pir::CombineAnswers(share[0], share[1]);
    }
    const auto unpacked =
        record.ok() ? lw::pir::UnpackRecord(*record)
                    : lw::Result<lw::pir::UnpackedRecord>(record.status());
    if (!unpacked.ok() || unpacked->payload != *store.DirectLookup(q.path)) {
      std::fprintf(stderr, "lwbench: replayed shard answer does not verify\n");
      std::exit(1);
    }
  }

  // The same keys through the monolithic store's two stages, one page's
  // fetch budget per batch.
  lw::ThreadPool pool(std::max(1, HostThreads() / 2));
  std::vector<lw::dpf::DpfKey> batch;
  for (std::size_t i = 0; i < queries.size() && i < kFetchesPerPage; ++i) {
    batch.push_back(queries[i].keys.key0);
  }
  for (int rep = 0; rep < 3; ++rep) {
    lw::Result<lw::zltp::PirStore::ExpandedBatch> expanded =
        lw::InternalError("unset");
    {
      ScopedSpan span("pir.expand_batch");
      expanded = store.ExpandBatch(batch, &pool);
    }
    Check(expanded.status(), "expand");
    ScopedSpan span("pir.scan_batch");
    Check(store.ScanBatch(*expanded, &pool).status(), "scan");
  }

  // Code fetches straight into the enclave: seal, ORAM access, open.
  lw::oram::KvEnclave& enclave = d.enclave();
  lw::oram::EnclaveClient client(enclave.public_key());
  double stash = 0;
  int accesses = 0;
  for (std::size_t i = 0; i < history.size() && i < 64; ++i) {
    const std::uint64_t page_id = history[i].page_id;
    const std::string domain = corpus.DomainOf(history[i].corpus_page);
    lw::Bytes request;
    {
      ScopedSpan span("crypto.seal_open", page_id);
      request = client.SealGetRequest(domain);
    }
    lw::Result<lw::Bytes> response = lw::InternalError("unset");
    {
      ScopedSpan span("oram.access", page_id);
      response = enclave.HandleEncryptedRequest(request);
    }
    Check(response.status(), "enclave request");
    lw::Result<lw::Bytes> blob = lw::InternalError("unset");
    {
      ScopedSpan span("crypto.seal_open", page_id);
      blob = client.OpenResponse(*response);
    }
    if (!blob.ok() || lw::ToString(*blob) != d.code_blob(domain)) {
      std::fprintf(stderr, "lwbench: replayed code fetch does not verify\n");
      std::exit(1);
    }
    stash += static_cast<double>(enclave.stash_size());
    ++accesses;
  }
  layers["oram.stash_blocks"] = stash / std::max(1, accesses);
}

}  // namespace

WorkloadResult RunBrowse(const RunOptions& options) {
  std::vector<double> setup_s;
  std::unique_ptr<BrowseDeployment> deployment;
  std::unique_ptr<BrowseClient> client;
  for (int i = 0; i < kSetups; ++i) {
    client.reset();
    deployment.reset();
    malloc_trim(0);  // the peak RSS then reflects one deployment
    const auto t0 = SteadyClock::now();
    deployment = std::make_unique<BrowseDeployment>(options.seed);
    client = std::make_unique<BrowseClient>(*deployment, options.trace,
                                            options.seed);
    setup_s.push_back(MsBetween(t0, SteadyClock::now()) / 1e3);
  }
  const std::vector<Client*> clients = {client.get()};
  constexpr int kWarmupPages = 20;

  WorkloadResult result;
  if (!options.trace) {
    const LoadStats load =
        DriveClosedLoop(clients, options.seconds, kWarmupPages, 0,
                        /*lockstep=*/false, nullptr);
    client->Close();
    result.metrics = EndToEndMetrics(load, setup_s);
    result.attempted = load.gets_attempted;
    result.failed = load.gets_failed;
    result.correct = load.wrong == 0;
    return result;
  }

  const LoadStats untraced =
      DriveClosedLoop(clients, options.seconds / 2, kWarmupPages, 0,
                      /*lockstep=*/false, nullptr);
  Tracer::Get().set_enabled(true);
  const std::size_t history_mark = client->history().size();
  const std::uint64_t hits0 = client->code_hits();
  const std::uint64_t misses0 = client->code_misses();
  const std::uint64_t real0 = client->real_fetches();
  const std::uint64_t dummy0 = client->dummy_fetches();
  auto obs_before = lw::obs::Registry::Default().Snapshot();
  const LoadStats traced =
      DriveClosedLoop(clients, options.seconds / 2, 0, 0, /*lockstep=*/false,
                      nullptr);
  const ObsDelta obs(std::move(obs_before),
                     lw::obs::Registry::Default().Snapshot());
  client->Close();
  deployment->StopServing();

  std::map<std::string, double> layers;
  const std::vector<BrowseClient::Visited> history(
      client->history().begin() + static_cast<std::ptrdiff_t>(history_mark),
      client->history().end());
  ReplayLayers(*deployment, history, layers);
  const std::vector<Span> spans = Tracer::Get().spans();
  const double gets =
      static_cast<double>(std::max<std::uint64_t>(1, traced.gets_completed));
  CommonLayers(spans, obs, gets, layers);

  const double hits = static_cast<double>(client->code_hits() - hits0);
  const double misses = static_cast<double>(client->code_misses() - misses0);
  const double real = static_cast<double>(client->real_fetches() - real0);
  const double dummy = static_cast<double>(client->dummy_fetches() - dummy0);
  const double expand_ms = MedianOr0(SpanMs(spans, "pir.expand_batch"));
  layers["dpf.expand_ms_per_key"] = expand_ms / kFetchesPerPage;
  layers["dpf.subtree_ms"] = MedianOr0(SpanMs(spans, "dpf.subtree"));
  const double scan_ms = MedianOr0(SpanMs(spans, "pir.scan_batch"));
  layers["pir.scan_ms_per_batch"] = scan_ms;
  layers["pir.scan_gib_per_s"] =
      static_cast<double>(deployment->universe().data_store().stored_bytes()) /
      (1024.0 * 1024 * 1024) / (scan_ms / 1e3);
  layers["oram.access_ms"] = MedianOr0(SpanMs(spans, "oram.access"));
  layers["crypto.enclave_seal_open_us"] =
      MedianOr0(PerPageSumMs(spans, "crypto.seal_open")) * 1e3;
  layers["lightweb.code_fetch_ms"] =
      MedianOr0(SpanMs(spans, "lightweb.code_fetch"));
  layers["lightweb.data_fetch_ms"] =
      MedianOr0(SpanMs(spans, "lightweb.data_fetch"));
  layers["lightweb.render_ms"] = MedianOr0(
      PageSelfMs(spans, {"lightweb.code_fetch", "lightweb.data_fetch"}));
  layers["lightweb.code_hit_frac"] = hits / std::max(1.0, hits + misses);
  layers["lightweb.dummy_frac"] = dummy / std::max(1.0, real + dummy);
  layers["error_rate"] =
      static_cast<double>(untraced.gets_failed + untraced.wrong +
                          traced.gets_failed + traced.wrong) /
      static_cast<double>(std::max<std::uint64_t>(
          1, untraced.gets_attempted + traced.gets_attempted));

  // A page's blocking path: LightScript plan + render (the page's self
  // time), the code fetch on a cache miss, client keygen and sends, each
  // shard's serial share of the page's five sub-tree queries, client combine.
  const double miss_frac = misses / std::max(1.0, hits + misses);
  const std::vector<BlockingStep> steps = {
      {"lightweb.render (page self time)", layers["lightweb.render_ms"]},
      {"lightweb.code_fetch x miss rate",
       miss_frac * layers["lightweb.code_fetch_ms"]},
      {"dpf.gen (client keygen)",
       kFetchesPerPage * layers["dpf.gen_us"] / 1e3},
      {"net.client_send", layers["net.client_send_us"] / 1e3},
      {"dpf.subtree (per shard, serial)",
       kFetchesPerPage * layers["dpf.subtree_ms"] /
           static_cast<double>(Topology().shard_count())},
      {"pir.combine (client)",
       kFetchesPerPage * layers["pir.combine_us"] / 1e3},
  };
  FinishLayers(Quantile(traced.page_ms, 0.5), Quantile(untraced.page_ms, 0.5),
               steps, layers, result.layer_table);
  result.metrics = LayerMetrics(layers);
  result.attempted = untraced.gets_attempted + traced.gets_attempted;
  result.failed = untraced.gets_failed + traced.gets_failed;
  result.correct = untraced.wrong == 0 && traced.wrong == 0;
  return result;
}

}  // namespace lwbench
