// PirStore: the content store behind a ZLTP PIR-mode server.
//
// Combines the keyword registry (key → DPF domain index, collision
// detection), record packing (fingerprint + padding to the universe's fixed
// blob size), and one or more blob-database shards. With shard_top_bits > 0
// the store models the paper's §5.2 deployment: the front-end expands the
// top of the client's DPF tree once and each shard evaluates only its
// sub-tree over its slice of the data.
//
// Thread-safe: queries take a shared lock, publishes an exclusive one — a
// CDN publishes new pages while serving private-GETs.
#pragma once

#include <memory>
#include <shared_mutex>
#include <string_view>
#include <vector>

#include "dpf/dpf.h"
#include "pir/blob_db.h"
#include "pir/keyword.h"
#include "util/bytes.h"
#include "util/status.h"

namespace lw {
class ThreadPool;
}

namespace lw::zltp {

struct PirStoreConfig {
  int domain_bits = 22;          // paper §5.1 default
  std::size_t record_size = 4096;  // paper's 4 KiB data blobs
  Bytes keyword_seed;            // 16 bytes; random if empty
  // 2^shard_top_bits data shards; at most dpf::TreeDepth(domain_bits).
  int shard_top_bits = 0;
};

class PirStore {
 public:
  explicit PirStore(PirStoreConfig config);

  const PirStoreConfig& config() const { return config_; }
  const pir::KeywordMapper& mapper() const { return registry_.mapper(); }
  int domain_bits() const { return config_.domain_bits; }
  std::size_t record_size() const { return config_.record_size; }
  std::size_t shard_count() const { return shards_.size(); }

  // Publishes (or re-publishes) a key's payload. COLLISION if a different
  // key occupies the same domain index; INVALID_ARGUMENT if the payload
  // does not fit the fixed record size.
  Status Publish(std::string_view key, ByteSpan payload);

  Status Unpublish(std::string_view key);

  bool Contains(std::string_view key) const;
  std::size_t record_count() const;
  std::size_t stored_bytes() const;

  // PROTOCOL_ERROR unless the DPF key's domain matches the universe's.
  // BatchScheduler checks every key here before it queues, so one
  // malformed query cannot fail its co-riders' batch.
  Status CheckKey(const dpf::DpfKey& key) const;

  // Answers one PIR query (full scan). The DPF key's domain must match.
  // A non-null pool parallelizes the data scan across its workers
  // (identical answers either way); the key expands serially.
  Result<Bytes> AnswerQuery(const dpf::DpfKey& key,
                            ThreadPool* pool = nullptr) const;

  // Answers a batch with one fused pass over each shard's data: ExpandBatch
  // followed by ScanBatch. zltp::BatchScheduler answers every batch here.
  Result<std::vector<Bytes>> AnswerBatch(const std::vector<dpf::DpfKey>& keys,
                                         ThreadPool* pool = nullptr) const;

  // A batch's DPF expansion, kept apart from its data scan so each stage
  // can be timed and replayed on its own (perfbench's layer table).
  struct ExpandedBatch {
    // shard_bits[s][q]: query q's selection bits over shard s's sub-domain.
    std::vector<std::vector<dpf::BitVector>> shard_bits;
    std::size_t query_count = 0;
  };

  // Stage 1: evaluates every key's DPF (full-domain, or per-shard sub-trees
  // when sharded), one key per pool task. Pure compute over immutable
  // config — takes no store lock, so publishes do not wait on it.
  Result<ExpandedBatch> ExpandBatch(const std::vector<dpf::DpfKey>& keys,
                                    ThreadPool* pool = nullptr) const;

  // Stage 2: one fused pass over each shard's records under the shared
  // lock, XOR-combining shard answers per query.
  Result<std::vector<Bytes>> ScanBatch(const ExpandedBatch& expanded,
                                       ThreadPool* pool = nullptr) const;

  // Non-private direct read (publisher tooling / tests).
  Result<Bytes> DirectLookup(std::string_view key) const;

  // Every published key (used by universe peering). Not cheap; exclusive of
  // serving hot paths.
  std::vector<std::string> Keys() const;

 private:
  struct ShardRef {
    std::size_t shard;
    std::uint64_t local_index;
  };
  ShardRef Locate(std::uint64_t global_index) const;

  PirStoreConfig config_;
  int shard_bits_;  // domain bits per shard
  mutable std::shared_mutex mu_;
  pir::KeywordRegistry registry_;
  std::vector<std::unique_ptr<pir::BlobDatabase>> shards_;
};

}  // namespace lw::zltp
