// PirStore: the content store behind a ZLTP PIR-mode server.
//
// Combines the keyword registry (key → DPF domain index, collision
// detection), record packing (fingerprint + padding to the universe's fixed
// blob size), and one blob database, whose scan expands each query's DPF
// key inside the pass (pir::BlobDatabase::AnswerBatch). The paper's §5.2
// deployment, where a front-end expands the top of the tree and each shard
// its sub-tree, is ShardDataServer and ShardFanout (zltp/frontend.h).
//
// Thread-safe: queries take a shared lock, publishes an exclusive one — a
// CDN publishes new pages while serving private-GETs.
#pragma once

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
};

class PirStore {
 public:
  explicit PirStore(PirStoreConfig config);

  const PirStoreConfig& config() const { return config_; }
  const pir::KeywordMapper& mapper() const { return registry_.mapper(); }
  int domain_bits() const { return config_.domain_bits; }
  std::size_t record_size() const { return config_.record_size; }

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
  // A non-null pool parallelizes the pass, its expansion included, across
  // its workers (identical answers either way).
  Result<Bytes> AnswerQuery(const dpf::DpfKey& key,
                            ThreadPool* pool = nullptr) const;

  // Answers a batch with one pass over the data: ExpandBatch followed by
  // ScanBatch. zltp::BatchScheduler answers every batch here.
  Result<std::vector<Bytes>> AnswerBatch(const std::vector<dpf::DpfKey>& keys,
                                         ThreadPool* pool = nullptr) const;

  // A batch's keys, checked and ready for the pass, kept apart from the
  // scan so each stage can be called on its own (perfbench's layer table).
  struct ExpandedBatch {
    // Each key as its root sub-tree key, the form the pass takes.
    std::vector<dpf::SubtreeKey> roots;
  };

  // Stage 1: checks every key's domain and makes its root sub-tree key.
  // Takes no store lock; the DPF expansion itself runs inside ScanBatch.
  Result<ExpandedBatch> ExpandBatch(const std::vector<dpf::DpfKey>& keys,
                                    ThreadPool* pool = nullptr) const;

  // Stage 2: one pass over the records under the shared lock, which
  // expands the keys bucket by bucket as it sweeps.
  Result<std::vector<Bytes>> ScanBatch(const ExpandedBatch& expanded,
                                       ThreadPool* pool = nullptr) const;

  // Non-private direct read (publisher tooling / tests).
  Result<Bytes> DirectLookup(std::string_view key) const;

  // Every published key (used by universe peering). Not cheap; exclusive of
  // serving hot paths.
  std::vector<std::string> Keys() const;

 private:
  PirStoreConfig config_;
  mutable std::shared_mutex mu_;
  pir::KeywordRegistry registry_;
  pir::BlobDatabase db_;
};

}  // namespace lw::zltp
