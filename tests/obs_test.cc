// Tests for the observability layer (src/obs): metric instruments under
// concurrency, snapshot consistency, histogram bucket edges, the trace
// ring, stage-time sinks, both export formats, the HTTP endpoint, and an
// end-to-end PIR round trip asserting the serving stack actually records.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "json/json.h"
#include "net/transport.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oram/enclave.h"
#include "oram/storage.h"
#include "zltp/client.h"
#include "zltp/server.h"
#include "zltp/store.h"

namespace lw::obs {
namespace {

// ----------------------------------------------------------- instruments

TEST(Counter, IncrementsAndReads) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(Gauge, SetAddSub) {
  Gauge g;
  g.Set(10);
  g.Add(5);
  g.Sub(7);
  EXPECT_EQ(g.Value(), 8);
  g.Sub(20);
  EXPECT_EQ(g.Value(), -12) << "gauges may go negative";
}

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({10, 100, 1000});
  h.Observe(0);     // -> bucket 0 (<= 10)
  h.Observe(10);    // -> bucket 0 (inclusive)
  h.Observe(11);    // -> bucket 1
  h.Observe(100);   // -> bucket 1 (inclusive)
  h.Observe(1000);  // -> bucket 2 (inclusive)
  h.Observe(1001);  // -> overflow
  const std::vector<std::uint64_t> counts = h.counts();
  ASSERT_EQ(counts.size(), 4u) << "bounds + one overflow cell";
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.sum(), 0u + 10 + 11 + 100 + 1000 + 1001);
}

TEST(Histogram, ExponentialBoundsAscend) {
  const auto bounds = ExponentialBounds(1000, 4.0, 12);
  ASSERT_EQ(bounds.size(), 12u);
  EXPECT_EQ(bounds[0], 1000u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
  }
}

// ------------------------------------------------------------- registry

TEST(Registry, SnapshotCarriesMetadata) {
  Registry r;
  r.AddCounter("test_events_total", "events", "events").Inc(3);
  r.AddGauge("test_level", "level", "items").Set(-5);
  r.AddHistogram("test_lat_ns", "latency", "ns", {1, 2}).Observe(2);
  const MetricsSnapshot snap = r.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "test_events_total");
  EXPECT_EQ(snap.counters[0].unit, "events");
  EXPECT_EQ(snap.counters[0].value, 3u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, -5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_EQ(snap.histograms[0].sum, 2u);
  ASSERT_EQ(snap.histograms[0].counts.size(), 3u);
  EXPECT_EQ(snap.histograms[0].counts[1], 1u);
}

// Hammer one counter and one histogram from many threads while a reader
// keeps snapshotting. Every snapshot must be internally consistent
// (histogram count == sum of its bucket counts — the by-construction
// invariant), and the final totals must be exact.
TEST(Registry, ConcurrentHammeringKeepsSnapshotsConsistent) {
  Registry r;
  Counter& c = r.AddCounter("hammer_total", "hammered", "ops");
  Histogram& h = r.AddHistogram("hammer_ns", "hammered", "ns", {8, 64, 512});

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const MetricsSnapshot snap = r.Snapshot();
      for (const HistogramSnapshot& hs : snap.histograms) {
        std::uint64_t bucket_total = 0;
        for (const std::uint64_t n : hs.counts) bucket_total += n;
        EXPECT_EQ(hs.count, bucket_total)
            << "snapshot count must equal the bucket sum it was derived "
               "from";
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        c.Inc();
        h.Observe(static_cast<std::uint64_t>((t * kOpsPerThread + i) % 1024));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(c.Value(), static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
  const MetricsSnapshot final_snap = r.Snapshot();
  ASSERT_EQ(final_snap.histograms.size(), 1u);
  EXPECT_EQ(final_snap.histograms[0].count,
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
}

TEST(Metrics, DefaultCatalogIsRegisteredOnce) {
  Metrics& m1 = M();
  Metrics& m2 = M();
  EXPECT_EQ(&m1, &m2);
  // Spot-check the catalog reaches the default registry under the
  // documented names.
  const MetricsSnapshot snap = Registry::Default().Snapshot();
  bool found = false;
  for (const CounterSnapshot& c : snap.counters) {
    found |= (c.name == "lw_server_requests_total");
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------------------------ trace ring

TEST(TraceRing, AssignsIdsAndKeepsRecentOldestFirst) {
  TraceRing ring(4);
  for (int i = 0; i < 10; ++i) {
    RequestTrace t;
    t.total_ns = static_cast<std::uint64_t>(i);
    ring.Record(t);
  }
  EXPECT_EQ(ring.total_recorded(), 10u);
  const std::vector<RequestTrace> kept = ring.Snapshot();
  ASSERT_EQ(kept.size(), 4u) << "ring is bounded at capacity";
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].trace_id, 7u + i) << "oldest-first, newest retained";
    EXPECT_EQ(kept[i].total_ns, 6u + i);
  }
}

TEST(TraceRing, SnapshotBeforeFullReturnsAllRecorded) {
  TraceRing ring(8);
  ring.Record(RequestTrace{});
  ring.Record(RequestTrace{});
  EXPECT_EQ(ring.Snapshot().size(), 2u);
}

TEST(StageSink, AddersCreditOpenSpanOnly) {
  EXPECT_EQ(CurrentStageSink(), nullptr);
  AddExpandNs(100);  // no open span: must be a safe no-op
  StageTimings outer;
  {
    ScopedStageSink sink(&outer);
    ASSERT_EQ(CurrentStageSink(), &outer);
    AddExpandNs(5);
    AddScanNs(7);
    StageTimings inner;
    {
      ScopedStageSink nested(&inner);
      AddExpandNs(100);
    }
    ASSERT_EQ(CurrentStageSink(), &outer) << "nested scope restores";
    AddExpandNs(5);
    EXPECT_EQ(inner.expand_ns, 100u);
  }
  EXPECT_EQ(CurrentStageSink(), nullptr);
  EXPECT_EQ(outer.expand_ns, 10u);
  EXPECT_EQ(outer.scan_ns, 7u);
}

// -------------------------------------------------------------- exporters

TEST(Exporter, PrometheusTextFormat) {
  Registry r;
  r.AddCounter("exp_events_total", "events seen", "events").Inc(7);
  r.AddGauge("exp_level", "current level", "items").Set(3);
  Histogram& h = r.AddHistogram("exp_ns", "latency", "ns", {10, 100});
  h.Observe(5);
  h.Observe(50);
  h.Observe(5000);
  const std::string text = ToPrometheusText(r.Snapshot());
  EXPECT_NE(text.find("# TYPE exp_events_total counter"), std::string::npos);
  EXPECT_NE(text.find("exp_events_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE exp_level gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE exp_ns histogram"), std::string::npos);
  // Buckets are cumulative in the Prometheus exposition.
  EXPECT_NE(text.find("exp_ns_bucket{le=\"10\"} 1"), std::string::npos);
  EXPECT_NE(text.find("exp_ns_bucket{le=\"100\"} 2"), std::string::npos);
  EXPECT_NE(text.find("exp_ns_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("exp_ns_sum 5055"), std::string::npos);
  EXPECT_NE(text.find("exp_ns_count 3"), std::string::npos);
}

TEST(Exporter, JsonSnapshotParsesAndMatches) {
  Registry r;
  r.AddCounter("j_events_total", "events", "events").Inc(9);
  Histogram& h = r.AddHistogram("j_ns", "lat", "ns", {10});
  h.Observe(4);
  h.Observe(400);
  auto doc = json::Parse(ToJson(r.Snapshot()));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::Value* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_array());
  ASSERT_EQ(counters->AsArray().size(), 1u);
  EXPECT_EQ(counters->AsArray()[0].GetString("name"), "j_events_total");
  EXPECT_EQ(counters->AsArray()[0].GetNumber("value"), 9.0);
  const json::Value* hists = doc->Find("histograms");
  ASSERT_NE(hists, nullptr);
  ASSERT_EQ(hists->AsArray().size(), 1u);
  const json::Value& jh = hists->AsArray()[0];
  EXPECT_EQ(jh.GetNumber("count"), 2.0);
  EXPECT_EQ(jh.GetNumber("sum"), 404.0);
  const json::Value* buckets = jh.Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->AsArray().size(), 2u) << "one bound + overflow";
  EXPECT_EQ(buckets->AsArray()[1].GetString("le"), "inf");
  EXPECT_EQ(buckets->AsArray()[1].GetNumber("count"), 1.0);
}

TEST(Exporter, SnapshotJsonPageParses) {
  auto doc = json::Parse(SnapshotJsonPage());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_GT(doc->GetNumber("unix_ms"), 0.0);
  ASSERT_NE(doc->Find("metrics"), nullptr);
  ASSERT_NE(doc->Find("traces"), nullptr);
  EXPECT_TRUE(doc->Find("traces")->is_array());
}

TEST(Exporter, WriteSnapshotJsonProducesParsableFile) {
  const std::string path =
      ::testing::TempDir() + "/obs_snapshot_test.json";
  ASSERT_TRUE(WriteSnapshotJson(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  auto doc = json::Parse(content);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_NE(doc->Find("metrics"), nullptr);
}

// ------------------------------------------------------------ HTTP server

// Minimal loopback HTTP GET for exercising MetricsHttpServer.
std::string HttpGet(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MetricsHttpServer, ServesTextAndJsonAndRejectsUnknown) {
  auto server = MetricsHttpServer::Start(0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const std::uint16_t port = (*server)->port();
  ASSERT_NE(port, 0);

  M().server_requests.Inc(0);  // force catalog registration
  const std::string text = HttpGet(port, "/metrics");
  EXPECT_NE(text.find("200 OK"), std::string::npos);
  EXPECT_NE(text.find("lw_server_requests_total"), std::string::npos);

  const std::string json_response = HttpGet(port, "/metrics.json");
  EXPECT_NE(json_response.find("200 OK"), std::string::npos);
  const std::size_t body_at = json_response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  auto doc = json::Parse(json_response.substr(body_at + 4));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_NE(doc->Find("metrics"), nullptr);

  EXPECT_NE(HttpGet(port, "/nope").find("404"), std::string::npos);
  (*server)->Stop();
}

// ------------------------------------------------- end-to-end round trip

// A full PIR session against ZltpPirServer must move every layer's
// metrics: server, batcher, DPF expansion, blob scan, and the store gauge.
// Deltas are used throughout because the default registry is process-wide.
TEST(EndToEnd, PirRoundTripPopulatesServingMetrics) {
  Metrics& m = M();
  const std::uint64_t connections0 = m.server_connections.Value();
  const std::uint64_t requests0 = m.server_requests.Value();
  const std::uint64_t batch_requests0 = m.batch_requests.Value();
  const std::uint64_t batches0 = m.batch_batches.Value();
  const std::uint64_t passes0 = m.scan_passes.Value();
  const std::uint64_t rows0 = m.scan_rows_scanned.Value();
  const std::int64_t records0 = m.store_records.Value();
  const std::uint64_t traces0 = TraceRing::Default().total_recorded();

  zltp::PirStoreConfig config;
  config.domain_bits = 12;
  config.record_size = 128;
  config.keyword_seed = Bytes(16, 0x5a);
  zltp::PirStore store(config);
  ASSERT_TRUE(store.Publish("obs.example/page", ToBytes("observed")).ok());
  EXPECT_EQ(m.store_records.Value(), records0 + 1);

  {
    zltp::ZltpPirServer server0(store, 0);
    zltp::ZltpPirServer server1(store, 1);
    net::TransportPair p0 = net::CreateInMemoryPair();
    net::TransportPair p1 = net::CreateInMemoryPair();
    server0.ServeConnectionDetached(std::move(p0.b));
    server1.ServeConnectionDetached(std::move(p1.b));
    auto session =
        zltp::PirSession::Establish(
            zltp::EstablishOptions::FromTransports(
      std::move(p0.a), std::move(p1.a)));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    auto value = session->PrivateGet("obs.example/page");
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_EQ(ToString(*value), "observed");
    session->Close();
    // Scope end joins the server threads, so every metric write (including
    // the post-send request count) lands before the assertions below.
  }

  EXPECT_EQ(m.server_connections.Value(), connections0 + 2)
      << "one connection per logical server";
  EXPECT_GE(m.server_requests.Value(), requests0 + 2)
      << "the private GET hits both servers";
  EXPECT_GE(m.batch_requests.Value(), batch_requests0 + 2);
  EXPECT_GE(m.batch_batches.Value(), batches0 + 2);
  EXPECT_GE(m.scan_passes.Value(), passes0 + 2);
  EXPECT_GT(m.scan_rows_scanned.Value(), rows0);
  EXPECT_EQ(m.server_active_connections.Value(), 0)
      << "active-connection gauge returns to zero after the session";

  ASSERT_GE(TraceRing::Default().total_recorded(), traces0 + 2);
  const std::vector<RequestTrace> traces = TraceRing::Default().Snapshot();
  ASSERT_FALSE(traces.empty());
  const RequestTrace& last = traces.back();
  EXPECT_GT(last.total_ns, 0u);
  EXPECT_GT(last.stages.expand_ns, 0u)
      << "batch-attributed DPF expansion time must reach the trace";
  EXPECT_GT(last.stages.scan_ns, 0u)
      << "batch-attributed scan time must reach the trace";
  EXPECT_GT(last.start_unix_ms, 0u);

  ASSERT_TRUE(store.Unpublish("obs.example/page").ok());
  EXPECT_EQ(m.store_records.Value(), records0);
}

// An enclave GET's answer (channel open, ORAM access, reply seal) is the
// enclave mode's scan stage: the live server adds one lw_enclave_answer_ns
// sample per answered request, and the request's trace carries the time as
// scan_ns.
TEST(EndToEnd, EnclaveGetTimesItsAnswer) {
  const auto samples = [] {
    std::uint64_t n = 0;
    for (const std::uint64_t c : M().enclave_answer_ns.counts()) n += c;
    return n;
  };
  oram::EnclaveConfig config;
  config.capacity = 16;
  config.value_size = 128;
  oram::MemoryStorage storage(oram::KvEnclave::RequiredStorageBuckets(config));
  oram::KvEnclave enclave(config, storage);
  ASSERT_TRUE(enclave.Put("obs.example/enclave", ToBytes("sealed")).ok());

  std::uint64_t samples0 = 0;
  std::uint64_t traces0 = 0;
  {
    zltp::ZltpEnclaveServer server(enclave);
    net::TransportPair p = net::CreateInMemoryPair();
    server.ServeConnectionDetached(std::move(p.b));
    auto session = zltp::EnclaveSession::Establish(
        zltp::EstablishOptions::FromTransports(std::move(p.a)));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    samples0 = samples();
    traces0 = TraceRing::Default().total_recorded();
    auto value = session->PrivateGet("obs.example/enclave");
    ASSERT_TRUE(value.ok()) << value.status().ToString();
    EXPECT_EQ(ToString(*value), "sealed");
    session->Close();
    // Scope end joins the server's threads (see the PIR test above).
  }

  EXPECT_EQ(samples(), samples0 + 1) << "one sample per enclave answer";
  ASSERT_EQ(TraceRing::Default().total_recorded(), traces0 + 1);
  const RequestTrace last = TraceRing::Default().Snapshot().back();
  EXPECT_GT(last.stages.scan_ns, 0u)
      << "the enclave's answer time must reach the trace";
  EXPECT_EQ(last.stages.expand_ns, 0u) << "the enclave expands no DPF key";
  EXPECT_LE(last.stages.scan_ns, last.total_ns);
}

}  // namespace
}  // namespace lw::obs
