// Shared helpers for the experiment benches.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "dpf/dpf.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pir/blob_db.h"
#include "pir/two_server.h"
#include "util/rand.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace lw::bench {

// Flags shared by every bench binary, parsed (and stripped) before the
// remaining argv goes to benchmark::Initialize:
//   --threads=N   worker threads for the parallel paths (1 = serial)
//   --smoke       shrink datasets/iterations for a CI smoke run
//   --json=PATH   write measured results as JSON for archiving
struct BenchFlags {
  int threads = 1;
  bool smoke = false;
  std::string json_path;
};

inline BenchFlags ParseBenchFlags(int* argc, char** argv) {
  BenchFlags flags;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threads=", 0) == 0) {
      flags.threads = std::atoi(arg.c_str() + std::strlen("--threads="));
      if (flags.threads < 0) flags.threads = 0;
    } else if (arg == "--smoke") {
      flags.smoke = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      flags.json_path = arg.substr(std::strlen("--json="));
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return flags;
}

// Makes a pool matching --threads, or null for a strictly serial run. The
// pool is what the server would own; benches pass it down the same APIs.
inline std::unique_ptr<ThreadPool> MakeBenchPool(const BenchFlags& flags) {
  if (flags.threads == 1) return nullptr;
  return std::make_unique<ThreadPool>(flags.threads);
}

// Accumulates measurement rows and writes them as a JSON document:
//   {"benchmarks":[{"name":...,"iters":...,"ns_per_op":...,"bytes_per_s":...}],
//    "metrics":{...}}
// The "metrics" object is the process's observability snapshot
// (obs::Registry::Default()) taken at write time, so archived bench
// artifacts carry the same counters an operator would scrape from a server
// (rows scanned, chunks stolen, expand/scan histograms — see
// docs/OBSERVABILITY.md). Rows are hand-rolled on purpose: the CI archive
// format must not pull in a JSON dependency. Names are ASCII identifiers
// chosen by the benches themselves, so escaping is limited to
// quote/backslash.
class JsonRecorder {
 public:
  void Add(const std::string& name, std::int64_t iters, double ns_per_op,
           double bytes_per_s) {
    entries_.push_back(Entry{name, iters, ns_per_op, bytes_per_s});
  }

  bool WriteTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot open %s for writing\n",
                   path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"benchmarks\": [\n");
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"iters\": %lld, "
                   "\"ns_per_op\": %.3f, \"bytes_per_s\": %.3f}%s\n",
                   Escaped(e.name).c_str(),
                   static_cast<long long>(e.iters), e.ns_per_op,
                   e.bytes_per_s, i + 1 < entries_.size() ? "," : "");
    }
    const std::string metrics =
        obs::ToJson(obs::Registry::Default().Snapshot());
    std::fprintf(f, "  ],\n  \"metrics\": %s\n}\n", metrics.c_str());
    std::fclose(f);
    return true;
  }

  bool empty() const { return entries_.empty(); }

 private:
  struct Entry {
    std::string name;
    std::int64_t iters;
    double ns_per_op;
    double bytes_per_s;
  };

  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::vector<Entry> entries_;
};

// Fills a blob database with `records` random fixed-size records at random
// distinct indices (dummy contents, as in the paper's microbenchmarks).
inline pir::BlobDatabase BuildShard(int domain_bits, std::size_t record_size,
                                    std::size_t records,
                                    std::uint64_t seed = 1) {
  pir::BlobDatabase db(domain_bits, record_size);
  Rng rng(seed);
  Bytes record(record_size);
  std::uint64_t inserted = 0;
  while (inserted < records) {
    const std::uint64_t index = rng.UniformInt(db.domain_size());
    if (db.Contains(index)) continue;
    rng.Fill(record);
    LW_CHECK(db.Insert(index, record).ok());
    ++inserted;
  }
  return db;
}

// One private-GET worth of server work: one pass over the shard, which
// expands the key inside the sweep (pir::BlobDatabase::AnswerBatch). A
// non-null `pool` runs the pass through the parallel path the server uses.
// dpf_ms is the pass's in-pass expansion, read from its stage sink; with a
// pool that sum over row shards is divided by the pool's threads, an
// estimate of its share of the wall time. scan_ms is the rest of the pass,
// so total_ms() is the pass's wall time.
struct RequestCost {
  double dpf_ms = 0;
  double scan_ms = 0;
  double total_ms() const { return dpf_ms + scan_ms; }
};

inline RequestCost MeasureOneRequest(const pir::BlobDatabase& db,
                                     int domain_bits, Rng& rng,
                                     ThreadPool* pool = nullptr) {
  const std::uint64_t target = rng.UniformInt(db.domain_size());
  const pir::QueryKeys q = pir::MakeIndexQuery(target, domain_bits);
  const std::vector<dpf::SubtreeKey> keys = dpf::SplitForShards(q.key0, 0);

  obs::StageTimings stages;
  std::vector<Bytes> answers;
  {
    const obs::ScopedStageSink sink(&stages);
    db.AnswerBatch(keys, answers, pool);
  }
  const double threads = pool == nullptr ? 1.0 : pool->thread_count();
  RequestCost cost;
  cost.dpf_ms = static_cast<double>(stages.expand_ns) / 1e6 / threads;
  cost.scan_ms = static_cast<double>(stages.scan_ns) / 1e6 - cost.dpf_ms;
  return cost;
}

// Averages several measured requests.
inline RequestCost MeasureRequests(const pir::BlobDatabase& db,
                                   int domain_bits, int iterations,
                                   std::uint64_t seed = 42,
                                   ThreadPool* pool = nullptr) {
  Rng rng(seed);
  RequestCost total;
  for (int i = 0; i < iterations; ++i) {
    const RequestCost c = MeasureOneRequest(db, domain_bits, rng, pool);
    total.dpf_ms += c.dpf_ms;
    total.scan_ms += c.scan_ms;
  }
  total.dpf_ms /= iterations;
  total.scan_ms /= iterations;
  return total;
}

inline void PrintRule() {
  std::printf(
      "--------------------------------------------------------------------"
      "----------\n");
}

}  // namespace lw::bench
