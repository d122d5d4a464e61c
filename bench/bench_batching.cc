// E2 — §5.1 "Batching requests to increase throughput".
//
// Paper (1 GiB shard): batch of 16 → 2.6 s latency and 6 requests/s;
// batch of 1 → 0.51 s latency and 2 requests/s. Batching amortizes the
// data scan's memory traffic across co-batched queries, so throughput rises
// while latency (time to the whole batch's answers) rises too.
//
// We sweep batch sizes on a scaled shard and check the shape: monotone
// throughput gain and monotone latency growth, with a large (>2×)
// throughput win by batch 16. The pass is AnswerBatch's: it expands the
// batch's DPF keys bucket by bucket inside the sweep, and the grouped-table
// sweep makes one pass over the rows for the whole batch, each
// row XORed at most once per group of four queries, a block of rows one
// column slice at a time. B = 5 is paper_publish's 5-key page, whose
// derived slice is 1 KiB. --threads=N additionally shards rows across a
// pool.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_util.h"

namespace lw::bench {
namespace {

constexpr std::size_t kRecordSize = 4096;
constexpr int kDomainBits = 22;

BenchFlags g_flags;
JsonRecorder g_json;

std::size_t ShardRecords() {
  // 256 MiB keeps the sweep quick (the effect is per-byte-of-shard); the
  // smoke leg drops to 32 MiB.
  const std::size_t bytes = g_flags.smoke ? (32ull << 20) : (256ull << 20);
  return bytes / kRecordSize;
}

const pir::BlobDatabase& Shard() {
  // Leaky singleton: the shard is hundreds of MiB and shared across
  // benchmark registrations; freeing it during static destruction buys
  // nothing and slows exit. lwlint: allow(naked-new)
  static const pir::BlobDatabase* db = new pir::BlobDatabase(
      BuildShard(kDomainBits, kRecordSize, ShardRecords()));
  return *db;
}

ThreadPool* BenchPool() {
  static std::unique_ptr<ThreadPool> pool = MakeBenchPool(g_flags);
  return pool.get();
}

std::vector<dpf::SubtreeKey> MakeBatch(std::size_t batch, Rng& rng) {
  std::vector<dpf::SubtreeKey> keys;
  keys.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    const pir::QueryKeys q = pir::MakeIndexQuery(
        rng.UniformInt(std::uint64_t{1} << kDomainBits), kDomainBits);
    keys.push_back(dpf::SplitForShards(q.key0, 0).front());
  }
  return keys;
}

void BM_BatchedScan(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  const pir::BlobDatabase& db = Shard();
  Rng rng(7);
  const std::vector<dpf::SubtreeKey> keys = MakeBatch(batch, rng);
  std::vector<Bytes> answers;
  for (auto _ : state) {
    db.AnswerBatch(keys, answers, BenchPool());
    benchmark::DoNotOptimize(answers.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
  state.counters["batch"] = static_cast<double>(batch);
}
BENCHMARK(BM_BatchedScan)->Arg(1)->Arg(2)->Arg(4)->Arg(5)->Arg(8)->Arg(16)
    ->Arg(32)->Unit(benchmark::kMillisecond)->UseRealTime();

void PrintReproductionTable() {
  std::printf("\n=== E2: §5.1 batching — reproduction ===\n");
  std::printf("shard: %zu records x 4 KiB = %.0f MiB, domain 2^22, "
              "threads=%d\n",
              ShardRecords(),
              ShardRecords() * kRecordSize / (1024.0 * 1024.0),
              g_flags.threads);
  std::printf(
      "(latency here is one pass per batch, its DPF expansion included; the\n"
      " paper's 0.51 s / 2.6 s figures add queueing on a full 1 GiB shard —\n"
      " compare shapes, not milliseconds)\n");
  PrintRule();
  std::printf("%8s %14s %16s %18s\n", "batch", "latency(ms)",
              "ms/request", "throughput(req/s)");
  PrintRule();

  const pir::BlobDatabase& db = Shard();
  Rng rng(99);
  double t1 = 0, t16 = 0;
  const int rounds = g_flags.smoke ? 1 : 3;
  for (const std::size_t batch : {1u, 2u, 4u, 5u, 8u, 16u, 32u}) {
    const auto keys = MakeBatch(batch, rng);
    std::vector<Bytes> answers;
    // Warm once, then time a few rounds.
    db.AnswerBatch(keys, answers, BenchPool());
    Stopwatch timer;
    for (int r = 0; r < rounds; ++r) db.AnswerBatch(keys, answers, BenchPool());
    const double latency_ms = timer.ElapsedMillis() / rounds;
    const double per_request = latency_ms / static_cast<double>(batch);
    const double throughput = 1000.0 / per_request;
    if (batch == 1) t1 = throughput;
    if (batch == 16) t16 = throughput;
    g_json.Add("batching/batch=" + std::to_string(batch) +
                   "/threads=" + std::to_string(g_flags.threads),
               rounds, latency_ms * 1e6,
               static_cast<double>(db.stored_bytes()) / (latency_ms / 1e3));
    std::printf("%8zu %14.1f %16.2f %18.1f\n", batch, latency_ms,
                per_request, throughput);
  }
  PrintRule();
  std::printf("paper:   batch 1 -> 2 req/s @ 0.51 s;  batch 16 -> 6 req/s "
              "@ 2.6 s  (3.0x throughput)\n");
  std::printf("ours:    batch 16 / batch 1 throughput = %.2fx; latency "
              "grows with batch: %s\n\n",
              t16 / t1, t16 > 0 ? "yes" : "-");
}

}  // namespace
}  // namespace lw::bench

int main(int argc, char** argv) {
  lw::bench::g_flags = lw::bench::ParseBenchFlags(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  lw::bench::PrintReproductionTable();
  if (!lw::bench::g_flags.json_path.empty()) {
    if (!lw::bench::g_json.WriteTo(lw::bench::g_flags.json_path)) return 1;
    std::printf("wrote %s\n", lw::bench::g_flags.json_path.c_str());
  }
  return 0;
}
