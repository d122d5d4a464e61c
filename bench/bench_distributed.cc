// E6 — §5.2 "Distributing DPF evaluation".
//
// Paper: a front-end server evaluates the top of the client's DPF tree once
// and sends each data server its sub-tree root; "the cost for the data
// server of completing the DPF evaluation from that point is the same as
// the cost of evaluating the DPF key for the smaller domain."
//
// We verify that claim directly: per-data-server DPF time with S shards
// should equal a full evaluation over a domain 2^d / S, and the front-end's
// top-of-tree expansion should be cheap compared to the data servers' work.
// These rows time the reference evaluators (dpf::EvalSubtree, EvalFull),
// which write point-order bit vectors; a served pass evaluates leaves
// inside its sweep instead (E6b).
//
// E6b — a shard's co-riders. Every GET sends every shard one sub-tree
// query; the shard answers the queries queued behind a pass together, with
// ShardDataServer::AnswerBatch: one pass over the shard's records that
// expands the keys bucket by bucket as it sweeps (§5.1's batching inside
// §5.2's shard; the d = 20 shard has 2^4 buckets). The
// sweep prints the shard's cost per GET at B co-riders; --json archives it
// as shard_batch/B=<B>/threads=<N> rows whose ns_per_op is per GET.
// --smoke shrinks the 1 GiB shard (2^18 x 4 KiB) to 256 MiB.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "zltp/frontend.h"

namespace lw::bench {
namespace {

constexpr int kDomainBits = 22;
constexpr int kShardTopBits = 2;  // the shard is 1 of 4
constexpr std::size_t kRecordSize = 4096;

BenchFlags g_flags;
JsonRecorder g_json;

void BM_FrontEndSplit(benchmark::State& state) {
  const int top_bits = static_cast<int>(state.range(0));
  const dpf::KeyPair pair = dpf::Generate(99, kDomainBits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dpf::SplitForShards(pair.key0, top_bits));
  }
  state.counters["shards"] = static_cast<double>(1 << top_bits);
}
BENCHMARK(BM_FrontEndSplit)->Arg(0)->Arg(2)->Arg(4)->Arg(6)->Arg(8)
    ->Unit(benchmark::kMicrosecond);

void BM_DataServerSubtreeEval(benchmark::State& state) {
  const int top_bits = static_cast<int>(state.range(0));
  const dpf::KeyPair pair = dpf::Generate(99, kDomainBits);
  const auto shards = dpf::SplitForShards(pair.key0, top_bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dpf::EvalSubtree(shards[0]));
  }
  state.counters["per_server_leaves"] =
      static_cast<double>(std::uint64_t{1} << (kDomainBits - top_bits));
}
BENCHMARK(BM_DataServerSubtreeEval)->Arg(0)->Arg(2)->Arg(4)->Arg(6)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void PrintReproductionTable() {
  std::printf("\n=== E6: §5.2 distributed DPF evaluation — reproduction "
              "===\n");
  const dpf::KeyPair pair = dpf::Generate(4242, kDomainBits);

  // Reference: small-domain full evaluations to compare data-server cost
  // against (the paper's claim of equality).
  PrintRule();
  std::printf("%8s %14s %18s %22s\n", "shards", "frontend(ms)",
              "per-server(ms)", "small-domain ref(ms)");
  PrintRule();
  for (const int top : {0, 2, 4, 6, 8}) {
    Stopwatch split_timer;
    const auto shards = dpf::SplitForShards(pair.key0, top);
    const double frontend_ms = split_timer.ElapsedMillis();

    // Average a data server's sub-tree evaluation over a few shards.
    Stopwatch eval_timer;
    const int samples = std::min<int>(4, static_cast<int>(shards.size()));
    for (int s = 0; s < samples; ++s) {
      benchmark::DoNotOptimize(dpf::EvalSubtree(shards[static_cast<std::size_t>(s)]));
    }
    const double per_server_ms = eval_timer.ElapsedMillis() / samples;

    // Reference: full DPF evaluation over the equivalent smaller domain.
    const dpf::KeyPair small = dpf::Generate(1, kDomainBits - top);
    Stopwatch ref_timer;
    benchmark::DoNotOptimize(dpf::EvalFull(small.key0));
    const double ref_ms = ref_timer.ElapsedMillis();

    std::printf("%8d %14.2f %18.2f %22.2f\n", 1 << top, frontend_ms,
                per_server_ms, ref_ms);
  }
  PrintRule();
  std::printf(
      "claims: per-server cost tracks the small-domain reference (paper:\n"
      "\"the same as the cost of evaluating the DPF key for the smaller\n"
      "domain\"), and total DPF work stays ~constant while per-server work\n"
      "drops by the shard count.\n\n");
}

void PrintCoRiderTable() {
  zltp::ShardTopology topology;
  topology.domain_bits = kDomainBits;
  topology.top_bits = kShardTopBits;
  topology.record_size = kRecordSize;
  // The smoke shard still outgrows a large L3 (105 MiB on the 4-vCPU
  // Xeon), so both sizes time passes that stream from memory.
  const std::size_t records =
      (g_flags.smoke ? (256ull << 20) : (1ull << 30)) / kRecordSize;
  // Shard 0 holds the universe's indices ≡ 0 (mod 4): fill `records` of
  // its 2^20 local slots, chosen at random, with random records.
  zltp::ShardDataServer shard(topology, 0);
  Rng rng(66);
  std::vector<bool> used(std::size_t{1} << topology.shard_domain_bits());
  Bytes record(kRecordSize);
  for (std::size_t loaded = 0; loaded < records;) {
    const std::uint64_t local = rng.UniformInt(used.size());
    if (used[local]) continue;
    used[local] = true;
    rng.Fill(record);
    LW_CHECK(shard.Load(local << kShardTopBits, record).ok());
    ++loaded;
  }

  // One batch of sub-tree keys per batch size, each answered once to warm
  // up. The timed rounds then visit every batch size in turn, so a slow
  // spell of the host lands on all of them alike.
  const std::vector<std::size_t> sizes = {1, 2, 5, 8, 16};
  std::unique_ptr<ThreadPool> pool = MakeBenchPool(g_flags);
  std::vector<std::vector<dpf::SubtreeKey>> batches;
  for (const std::size_t batch : sizes) {
    std::vector<dpf::SubtreeKey>& keys = batches.emplace_back();
    for (std::size_t i = 0; i < batch; ++i) {
      const dpf::KeyPair pair = dpf::Generate(
          rng.UniformInt(std::uint64_t{1} << kDomainBits), kDomainBits);
      keys.push_back(dpf::SplitForShards(pair.key0, kShardTopBits)[0]);
    }
    LW_CHECK(shard.AnswerBatch(keys, pool.get()).ok());
  }
  const int rounds = g_flags.smoke ? 7 : 5;
  std::vector<std::vector<double>> round_ms(sizes.size());
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t b = 0; b < sizes.size(); ++b) {
      Stopwatch timer;
      LW_CHECK(shard.AnswerBatch(batches[b], pool.get()).ok());
      round_ms[b].push_back(timer.ElapsedMillis());
    }
  }

  std::printf("=== E6b: a shard's co-riders share one pass ===\n");
  std::printf("shard 0 of %zu: %zu records x 4 KiB = %.0f MiB, d=%d, "
              "threads=%d, median of %d passes\n",
              topology.shard_count(), records,
              records * kRecordSize / (1024.0 * 1024.0), kDomainBits,
              g_flags.threads, rounds);
  PrintRule();
  std::printf("%10s %16s %16s %14s\n", "co-riders", "pass (ms)",
              "per GET (ms)", "vs B = 1");
  PrintRule();
  double per_get_b1 = 0;
  for (std::size_t b = 0; b < sizes.size(); ++b) {
    std::sort(round_ms[b].begin(), round_ms[b].end());
    const double pass_ms = round_ms[b][round_ms[b].size() / 2];
    const double per_get_ms = pass_ms / static_cast<double>(sizes[b]);
    if (sizes[b] == 1) per_get_b1 = per_get_ms;
    g_json.Add("shard_batch/B=" + std::to_string(sizes[b]) +
                   "/threads=" + std::to_string(g_flags.threads),
               rounds, per_get_ms * 1e6,
               static_cast<double>(records * kRecordSize) /
                   (pass_ms / 1e3));
    std::printf("%10zu %16.2f %16.2f %13.2fx\n", sizes[b], pass_ms,
                per_get_ms, per_get_ms / per_get_b1);
  }
  PrintRule();
  std::printf(
      "claim: a shard's cost per GET falls as co-riders share its pass;\n"
      "one pass per sub-tree query would read 1.00x at every B.\n\n");
}

}  // namespace
}  // namespace lw::bench

int main(int argc, char** argv) {
  lw::bench::g_flags = lw::bench::ParseBenchFlags(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  lw::bench::PrintReproductionTable();
  lw::bench::PrintCoRiderTable();
  if (!lw::bench::g_flags.json_path.empty()) {
    if (!lw::bench::g_json.WriteTo(lw::bench::g_flags.json_path)) return 1;
    std::printf("wrote %s\n", lw::bench::g_flags.json_path.c_str());
  }
  return 0;
}
