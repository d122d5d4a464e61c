// E8 — §2.2 modes-of-operation ablation.
//
// The paper's qualitative claim: the PIR mode pays a per-request linear
// scan over all stored data, while the enclave+ORAM mode is polylogarithmic
// ("appealingly low server-side computational costs: both polylogarithmic
// in the number of key-value pairs") at the price of hardware trust.
//
// We measure per-access server cost for both modes as the store grows and
// check the shapes: PIR cost grows ~2x per doubling; ORAM cost grows
// ~log(N); the curves cross. Two value sizes: 256 B records, and 64 KiB,
// the size of a browse code blob, where the enclave's cost is the bulk
// crypto of sealing and opening each bucket on the path.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "oram/enclave.h"
#include "oram/storage.h"

namespace lw::bench {
namespace {

// One row size per table: `counts` are the store sizes it sweeps.
struct ValueSize {
  std::size_t bytes;
  std::vector<std::size_t> counts;
};

const ValueSize kSmallValues{256, {1 << 10, 1 << 12, 1 << 14, 1 << 16}};
// A 64 KiB value's ORAM bucket is 256 KiB and the tree holds about 2n of
// them, so the sweep stops at 512 pairs (256 MiB of bucket storage).
const ValueSize kCodeBlobValues{64 * 1024, {32, 128, 512}};

int DomainBitsFor(std::size_t n) {
  int d = 2;
  while ((std::size_t{1} << d) < 4 * n) ++d;
  return d;
}

// An enclave holding n keys of value_size-byte values, over its own
// storage.
class FilledEnclave {
 public:
  FilledEnclave(std::size_t n, std::size_t value_size)
      : config_{.capacity = n, .value_size = value_size},
        storage_(oram::KvEnclave::RequiredStorageBuckets(config_)),
        enclave_(config_, storage_),
        client_(enclave_.public_key()) {
    const Bytes value(value_size, 1);
    for (std::size_t i = 0; i < n; ++i) {
      LW_CHECK(enclave_.Put("key/" + std::to_string(i), value).ok());
    }
  }

  // One sealed GET for a uniformly drawn key, answered by the enclave.
  Result<Bytes> Access(Rng& rng) {
    const std::string key =
        "key/" + std::to_string(rng.UniformInt(config_.capacity));
    return enclave_.HandleEncryptedRequest(client_.SealGetRequest(key));
  }

 private:
  oram::EnclaveConfig config_;
  oram::MemoryStorage storage_;
  oram::KvEnclave enclave_;
  oram::EnclaveClient client_;
};

void BM_PirModeAccess(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t value_size = static_cast<std::size_t>(state.range(1));
  const int d = DomainBitsFor(n);
  const pir::BlobDatabase db = BuildShard(d, value_size, n);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MeasureOneRequest(db, d, rng));
  }
  state.counters["kv_pairs"] = static_cast<double>(n);
}
BENCHMARK(BM_PirModeAccess)
    ->Args({1 << 10, 256})->Args({1 << 12, 256})->Args({1 << 14, 256})
    ->Args({32, 64 << 10})->Args({512, 64 << 10})
    ->Unit(benchmark::kMillisecond);

void BM_EnclaveModeAccess(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t value_size = static_cast<std::size_t>(state.range(1));
  FilledEnclave enclave(n, value_size);
  Rng rng(2);
  for (auto _ : state) {
    auto resp = enclave.Access(rng);
    benchmark::DoNotOptimize(resp);
  }
  state.counters["kv_pairs"] = static_cast<double>(n);
}
BENCHMARK(BM_EnclaveModeAccess)
    ->Args({1 << 10, 256})->Args({1 << 12, 256})->Args({1 << 14, 256})
    ->Args({32, 64 << 10})->Args({512, 64 << 10})
    ->Unit(benchmark::kMillisecond);

void PrintTable(const ValueSize& values) {
  std::printf("value size %zu B:\n", values.bytes);
  PrintRule();
  std::printf("%12s %16s %20s %14s\n", "kv pairs", "pir(ms/req)",
              "enclave-oram(ms/req)", "pir/oram");
  PrintRule();

  double first_pir = 0, last_pir = 0, first_oram = 0, last_oram = 0;
  for (const std::size_t n : values.counts) {
    // PIR.
    const int d = DomainBitsFor(n);
    const double pir_ms = [&] {
      const pir::BlobDatabase db = BuildShard(d, values.bytes, n);
      return MeasureRequests(db, d, 5).total_ms();
    }();

    // Enclave + ORAM.
    FilledEnclave enclave(n, values.bytes);
    Rng rng(3);
    constexpr int kAccesses = 50;
    Stopwatch timer;
    for (int i = 0; i < kAccesses; ++i) LW_CHECK(enclave.Access(rng).ok());
    const double oram_ms = timer.ElapsedMillis() / kAccesses;

    if (first_pir == 0) {
      first_pir = pir_ms;
      first_oram = oram_ms;
    }
    last_pir = pir_ms;
    last_oram = oram_ms;
    std::printf("%12zu %16.3f %20.3f %14.1f\n", n, pir_ms, oram_ms,
                pir_ms / oram_ms);
  }
  PrintRule();
  const double growth = static_cast<double>(values.counts.back()) /
                        static_cast<double>(values.counts.front());
  std::printf("shape checks (%zu -> %zu pairs, a %.0fx growth):\n",
              values.counts.front(), values.counts.back(), growth);
  std::printf("  PIR cost grew %.1fx (linear scan: expect ~%.0fx minus fixed "
              "overheads)\n",
              last_pir / first_pir, growth);
  std::printf("  ORAM cost grew %.1fx (polylog: expect small constant)\n\n",
              last_oram / first_oram);
}

void PrintReproductionTable() {
  std::printf("\n=== E8: §2.2 PIR vs enclave+ORAM server cost — ablation "
              "===\n");
  PrintTable(kSmallValues);
  PrintTable(kCodeBlobValues);
  std::printf("paper: \"the server-side linear scan ... limits performance\" "
              "vs \"polylogarithmic\" enclave mode\n\n");
}

}  // namespace
}  // namespace lw::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  lw::bench::PrintReproductionTable();
  return 0;
}
