// E3 — §5.1 "Communication".
//
// Paper: the DPF key is ≈ (λ+2)·d for λ=128, d=22; the response bucket is
// 4 KiB; total communication per request is 13.6 KiB including the 2×
// two-server overhead (their key serialization is ~2.8 KiB/key).
//
// Our early-terminated tree DPF serializes to (λ+2)·(d−7) BITS plus an
// 18-byte header and a 16-byte output word (289 B at d=22), so our totals
// are smaller; the shape to reproduce is upload = Θ(d) (logarithmic in the
// key space), download = Θ(record size), and the 2× factor from querying
// two servers.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/transport.h"
#include "zltp/client.h"
#include "zltp/server.h"
#include "zltp/store.h"

namespace lw::bench {
namespace {

void BM_KeyGeneration(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  const std::uint64_t mask = (std::uint64_t{1} << d) - 1;
  std::uint64_t alpha = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pir::MakeIndexQuery(alpha, d));
    alpha = (alpha + 1) & mask;
  }
  state.counters["key_bytes"] =
      static_cast<double>(pir::QueryUploadBytes(d));
}
BENCHMARK(BM_KeyGeneration)->Arg(16)->Arg(22)->Arg(26)
    ->Unit(benchmark::kMicrosecond);

void BM_KeySerialization(benchmark::State& state) {
  const pir::QueryKeys q = pir::MakeIndexQuery(5, 22);
  for (auto _ : state) {
    Bytes wire = q.key0.Serialize();
    auto parsed = dpf::DpfKey::Deserialize(wire);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_KeySerialization)->Unit(benchmark::kMicrosecond);

void PrintReproductionTable() {
  std::printf("\n=== E3: §5.1 communication — reproduction ===\n");
  PrintRule();
  std::printf("%6s %12s %14s %14s %14s\n", "d", "bucket", "upload(KiB)",
              "download(KiB)", "total(KiB)");
  PrintRule();
  for (const int d : {16, 18, 20, 22, 24, 26}) {
    for (const std::size_t bucket : {std::size_t{4096}}) {
      const double up = 2.0 * pir::QueryUploadBytes(d) / 1024.0;
      const double down = 2.0 * bucket / 1024.0;
      std::printf("%6d %10zu B %14.2f %14.2f %14.2f\n", d, bucket, up, down,
                  up + down);
    }
  }
  PrintRule();
  // Bucket-size sweep at the paper's d=22.
  for (const std::size_t bucket :
       {std::size_t{1024}, std::size_t{4096}, std::size_t{16384}}) {
    const double total =
        static_cast<double>(pir::TotalCommunicationBytes(22, bucket)) /
        1024.0;
    std::printf("d=22, bucket %5zu B -> total %6.2f KiB\n", bucket, total);
  }
  PrintRule();
  const double ours =
      static_cast<double>(pir::TotalCommunicationBytes(22, 4096)) / 1024.0;
  std::printf("paper (d=22, 4 KiB bucket, 2 servers): 13.6 KiB/request\n");
  std::printf("ours  (d=22, 4 KiB bucket, 2 servers): %4.1f KiB/request\n",
              ours);
  std::printf("  (smaller because our keys are (λ+2)(d-7)+2λ bits = %zu B "
              "vs their ~2.8 KiB serialization;\n   upload stays logarithmic "
              "in the key space, download linear in the value — the "
              "paper's claims)\n\n",
              pir::QueryUploadBytes(22));
}

// Analytic totals above; this section runs a real session over in-memory
// transports and reads the bytes that actually crossed the wire from the
// obs registry (lw_client_* counters mirror every session's accounting),
// so framing, hellos and request ids are included.
void PrintMeasuredTrafficSection() {
  zltp::PirStoreConfig config;
  config.domain_bits = 12;  // keep the store small; upload is Θ(d) anyway
  config.record_size = 4096;
  config.keyword_seed = Bytes(16, 0x3c);
  zltp::PirStore store(config);
  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) {
    keys.push_back("bench/page" + std::to_string(i));
    (void)store.Publish(keys.back(), Bytes(64, 0x61));
  }

  zltp::ZltpPirServer server0(store, 0);
  zltp::ZltpPirServer server1(store, 1);
  net::TransportPair p0 = net::CreateInMemoryPair();
  net::TransportPair p1 = net::CreateInMemoryPair();
  server0.ServeConnectionDetached(std::move(p0.b));
  server1.ServeConnectionDetached(std::move(p1.b));

  const obs::MetricsSnapshot before = obs::Registry::Default().Snapshot();
  auto session = zltp::PirSession::Establish(
      zltp::EstablishOptions::FromTransports(std::move(p0.a),
                                             std::move(p1.a)));
  if (!session.ok()) {
    std::printf("measured-traffic section skipped: %s\n",
                session.status().ToString().c_str());
    return;
  }
  auto batch = session->PrivateGetBatch(keys, /*extra_dummies=*/2);
  session->Close();
  const obs::MetricsSnapshot after = obs::Registry::Default().Snapshot();

  auto counter_delta = [&](const std::string& name) -> std::uint64_t {
    std::uint64_t b = 0, a = 0;
    for (const obs::CounterSnapshot& c : before.counters) {
      if (c.name == name) b = c.value;
    }
    for (const obs::CounterSnapshot& c : after.counters) {
      if (c.name == name) a = c.value;
    }
    return a - b;
  };

  const std::uint64_t sent = counter_delta("lw_client_bytes_sent_total");
  const std::uint64_t received =
      counter_delta("lw_client_bytes_received_total");
  const std::uint64_t requests = counter_delta("lw_client_requests_total");

  std::printf("=== E3b: measured wire traffic (obs registry snapshot) ===\n");
  PrintRule();
  std::printf("page load: %zu keys + 2 dummies, d=%d, %zu B records, "
              "two servers\n",
              keys.size(), config.domain_bits, config.record_size);
  std::printf("requests completed : %llu%s\n",
              static_cast<unsigned long long>(requests),
              batch.ok() ? "" : "  (batch FAILED)");
  std::printf("bytes sent         : %8llu  (%.2f KiB/request incl. hello "
              "+ framing)\n",
              static_cast<unsigned long long>(sent),
              requests ? sent / 1024.0 / static_cast<double>(requests) : 0.0);
  std::printf("bytes received     : %8llu  (%.2f KiB/request)\n",
              static_cast<unsigned long long>(received),
              requests ? received / 1024.0 / static_cast<double>(requests)
                       : 0.0);
  std::printf("analytic (same d/bucket): upload %.2f KiB, download %.2f KiB "
              "per request\n",
              2.0 * pir::QueryUploadBytes(config.domain_bits) / 1024.0,
              2.0 * static_cast<double>(config.record_size) / 1024.0);
  std::printf("retries/redials    : %llu/%llu (loopback — expect 0/0)\n",
              static_cast<unsigned long long>(
                  counter_delta("lw_client_retries_total")),
              static_cast<unsigned long long>(
                  counter_delta("lw_client_redials_total")));
  PrintRule();
}

}  // namespace
}  // namespace lw::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  lw::bench::PrintReproductionTable();
  lw::bench::PrintMeasuredTrafficSection();
  return 0;
}
