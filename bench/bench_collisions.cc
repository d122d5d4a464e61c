// E9 — §5.1 keyword-collision ablation.
//
// Paper: "By setting the output domain to size 2^22, we guarantee that if
// there are roughly 2^20 key-value pairs ... the probability of collision
// is at most 1/4 when the ZLTP server is almost at capacity (if this
// happens, then the publisher can simply select another key name). We could
// decrease this probability by ... using cuckoo hashing and probing several
// locations per request."
//
// We measure (a) the empirical collision probability for a fresh key at
// several load factors — expected ≈ load factor, so ≤ 1/4 at the paper's
// capacity — and (b) how much further cuckoo hashing stretches capacity,
// at the price of 2 private-GETs per lookup. The served keyword store is
// direct hashing (zltp::PirStore); cuckoo hashing exists only as the model
// below.
//
// After the table, the binary checks the claim it prints and exits 1 if
// a cuckoo insert failed at any load in the table, or if a direct-hash
// collision rate strays more than 0.03 from its load. An unknown argument
// exits 2. `--benchmark_filter=^$` prints the table alone.
#include <benchmark/benchmark.h>

#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

#include "bench_util.h"
#include "crypto/hkdf.h"
#include "crypto/siphash.h"
#include "pir/keyword.h"

namespace lw::bench {
namespace {

// Two-choice cuckoo hashing, cut down to what E9 measures. Each key has two
// candidate slots, SipHash under two keys derived from the seed by HKDF. An
// insert that finds both taken evicts the occupant of its first slot and
// carries it to that key's other slot, for at most kMaxKicks evictions. A
// failed insert is not undone (the last evicted key is dropped): E9 only
// counts failures.
class CuckooTable {
 public:
  static constexpr int kMaxKicks = 500;

  CuckooTable(ByteSpan seed, int domain_bits)
      : seed1_(crypto::Hkdf(seed, {}, "lightweb/cuckoo-h1",
                            crypto::kSipHashKeySize)),
        seed2_(crypto::Hkdf(seed, {}, "lightweb/cuckoo-h2",
                            crypto::kSipHashKeySize)),
        domain_bits_(domain_bits) {}

  // False when the eviction chain runs past kMaxKicks.
  bool Insert(std::string key) {
    std::uint64_t target = Hash(key, seed1_);
    for (int kick = 0; kick <= kMaxKicks; ++kick) {
      const auto it = occupant_.find(target);
      if (it == occupant_.end()) {
        occupant_.emplace(target, std::move(key));
        return true;
      }
      // Try the carried key's other candidate before evicting.
      const std::uint64_t alt = Alternate(key, target);
      if (alt != target && !occupant_.contains(alt)) {
        occupant_.emplace(alt, std::move(key));
        return true;
      }
      std::swap(key, it->second);  // evict the occupant and carry it on
      target = Alternate(key, target);
    }
    return false;
  }

  double LoadFactor() const {
    return static_cast<double>(occupant_.size()) /
           static_cast<double>(std::uint64_t{1} << domain_bits_);
  }

 private:
  std::uint64_t Hash(std::string_view key, const Bytes& seed) const {
    return crypto::SipHash24(seed, ToBytes(key)) &
           ((std::uint64_t{1} << domain_bits_) - 1);
  }

  // The candidate of `key` that is not `current`.
  std::uint64_t Alternate(std::string_view key, std::uint64_t current) const {
    const std::uint64_t h1 = Hash(key, seed1_);
    return current == h1 ? Hash(key, seed2_) : h1;
  }

  Bytes seed1_;
  Bytes seed2_;
  int domain_bits_;
  std::unordered_map<std::uint64_t, std::string> occupant_;  // slot -> key
};

void BM_DirectRegister(benchmark::State& state) {
  const Bytes seed(16, 1);
  pir::KeywordRegistry reg(seed, 20);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.Register("key-" + std::to_string(i++)));
  }
}
BENCHMARK(BM_DirectRegister)->Unit(benchmark::kMicrosecond);

void BM_CuckooInsert(benchmark::State& state) {
  const Bytes seed(16, 1);
  CuckooTable cuckoo(seed, 20);
  int i = 0;
  for (auto _ : state) {
    if (cuckoo.LoadFactor() > 0.45) {
      // Stay below the 2-choice threshold: past ~0.5 every insert runs a
      // full failing eviction chain, which measures the failure path
      // rather than insertion.
      state.PauseTiming();
      cuckoo = CuckooTable(seed, 20);
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(cuckoo.Insert("key-" + std::to_string(i++)));
  }
}
BENCHMARK(BM_CuckooInsert)->Unit(benchmark::kMicrosecond);

// How far a direct-hash collision rate may stray from its load factor: at
// 2000 probes one standard deviation is at most ~0.011.
constexpr double kCollisionTolerance = 0.03;

// Prints the table; false if a row breaks the claim it states.
bool PrintReproductionTable() {
  std::printf("\n=== E9: §5.1 collision handling — ablation ===\n");
  constexpr int kDomainBits = 16;  // scaled from the paper's 2^22
  const std::uint64_t domain = 1u << kDomainBits;

  PrintRule();
  std::printf("%14s %24s %24s\n", "load factor", "direct: P[new key "
              "collides]", "cuckoo: insert failures");
  PrintRule();

  bool holds = true;
  for (const double load : {0.0625, 0.125, 0.25, 0.40, 0.49}) {
    const auto target = static_cast<std::uint64_t>(load * domain);

    // Direct hashing: fill to the load factor, then probe fresh keys.
    const Bytes seed(16, 0x33);
    pir::KeywordRegistry reg(seed, kDomainBits);
    std::uint64_t i = 0;
    while (reg.size() < target) {
      (void)reg.Register("fill-" + std::to_string(i++));
    }
    int collided = 0;
    constexpr int kProbes = 2000;
    for (int p = 0; p < kProbes; ++p) {
      // Non-mutating probe: would this fresh key land on an occupied slot?
      const std::uint64_t idx =
          reg.mapper().IndexOf("probe-" + std::to_string(p));
      if (reg.KeyAt(idx).ok()) ++collided;
    }
    const double p_collide = static_cast<double>(collided) / kProbes;

    // Cuckoo: insert the same number of keys and count failures.
    CuckooTable cuckoo(seed, kDomainBits);
    std::uint64_t failures = 0;
    for (std::uint64_t k = 0; k < target; ++k) {
      if (!cuckoo.Insert("fill-" + std::to_string(k))) ++failures;
    }

    std::printf("%14.3f %24.3f %21llu/%llu\n", load, p_collide,
                static_cast<unsigned long long>(failures),
                static_cast<unsigned long long>(target));
    holds = holds && failures == 0 &&
            std::fabs(p_collide - load) <= kCollisionTolerance;
  }
  PrintRule();
  std::printf(
      "paper claim at capacity (2^20 keys in 2^22 slots = load 0.25):\n"
      "  collision probability <= 1/4 — matches the direct-hash column;\n"
      "  cuckoo hashing eliminates publish-time failures up to ~0.5 load\n"
      "  at the cost of probing 2 locations per private-GET.\n\n");
  if (!holds) {
    std::fflush(stdout);
    std::fprintf(stderr,
                 "E9 claim broken: a cuckoo insert failed, or a direct-hash "
                 "collision rate is more than %.2f from its load\n",
                 kCollisionTolerance);
  }
  return holds;
}

}  // namespace
}  // namespace lw::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    std::fprintf(stderr, "usage: %s [--benchmark_* flags]\n", argv[0]);
    return 2;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return lw::bench::PrintReproductionTable() ? 0 : 1;
}
