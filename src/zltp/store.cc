#include "zltp/store.h"

#include <chrono>
#include <mutex>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "pir/packing.h"
#include "util/check.h"
#include "util/rand.h"
#include "util/thread_pool.h"

namespace lw::zltp {
namespace {

PirStoreConfig Normalize(PirStoreConfig config) {
  if (config.keyword_seed.empty()) {
    config.keyword_seed = SecureRandom(16);
  }
  return config;
}

}  // namespace

PirStore::PirStore(PirStoreConfig config)
    : config_(Normalize(std::move(config))),
      shard_bits_(config_.domain_bits - config_.shard_top_bits),
      registry_(config_.keyword_seed, config_.domain_bits) {
  // Shards split the DPF tree, which ends dpf::kLeafBits above the domain.
  LW_CHECK_MSG(config_.shard_top_bits >= 0 &&
                   config_.shard_top_bits <=
                       dpf::TreeDepth(config_.domain_bits),
               "shard_top_bits out of range");
  LW_CHECK_MSG(config_.record_size > pir::kRecordHeaderSize,
               "record_size too small for packing header");
  const std::size_t shards = std::size_t{1} << config_.shard_top_bits;
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(
        std::make_unique<pir::BlobDatabase>(shard_bits_, config_.record_size));
  }
}

PirStore::ShardRef PirStore::Locate(std::uint64_t global_index) const {
  // Shards cover residue classes mod 2^shard_top_bits (matching the DPF
  // tree's LSB-first split; see dpf::SplitForShards).
  ShardRef ref;
  ref.shard = static_cast<std::size_t>(
      global_index & ((std::uint64_t{1} << config_.shard_top_bits) - 1));
  ref.local_index = global_index >> config_.shard_top_bits;
  return ref;
}

Status PirStore::Publish(std::string_view key, ByteSpan payload) {
  std::unique_lock lock(mu_);
  LW_ASSIGN_OR_RETURN(const std::uint64_t index, registry_.Register(key));
  auto packed = pir::PackRecord(registry_.mapper().Fingerprint(key), payload,
                                config_.record_size);
  if (!packed.ok()) {
    // Roll back the registration if the payload cannot be packed — unless
    // the key was already registered with earlier content.
    if (!shards_[Locate(index).shard]->Contains(Locate(index).local_index)) {
      (void)registry_.Unregister(key);
    }
    return packed.status();
  }
  const ShardRef ref = Locate(index);
  const bool existed = shards_[ref.shard]->Contains(ref.local_index);
  const Status s = shards_[ref.shard]->Upsert(ref.local_index, *packed);
  if (s.ok() && !existed) obs::M().store_records.Add(1);
  return s;
}

Status PirStore::Unpublish(std::string_view key) {
  std::unique_lock lock(mu_);
  if (!registry_.IsRegistered(key)) return NotFoundError("key not published");
  const std::uint64_t index = registry_.mapper().IndexOf(key);
  LW_RETURN_IF_ERROR(registry_.Unregister(key));
  const ShardRef ref = Locate(index);
  const Status s = shards_[ref.shard]->Remove(ref.local_index);
  if (s.ok()) obs::M().store_records.Add(-1);
  return s;
}

bool PirStore::Contains(std::string_view key) const {
  std::shared_lock lock(mu_);
  return registry_.IsRegistered(key);
}

std::size_t PirStore::record_count() const {
  std::shared_lock lock(mu_);
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->record_count();
  return n;
}

std::size_t PirStore::stored_bytes() const {
  std::shared_lock lock(mu_);
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->stored_bytes();
  return n;
}

Status PirStore::CheckKey(const dpf::DpfKey& key) const {
  if (key.domain_bits != config_.domain_bits) {
    return ProtocolError("DPF domain does not match universe domain");
  }
  return Status::Ok();
}

Result<Bytes> PirStore::AnswerQuery(const dpf::DpfKey& key,
                                    ThreadPool* pool) const {
  LW_RETURN_IF_ERROR(CheckKey(key));
  std::shared_lock lock(mu_);
  Bytes out(config_.record_size, 0);
  std::uint64_t expand_ns = 0;  // summed over shards, one sample per query
  if (shards_.size() == 1) {
    const auto t0 = obs::TraceNow();
    const dpf::BitVector bits = dpf::EvalFull(key);
    expand_ns = obs::ElapsedNs(t0);
    obs::M().dpf_expand_ns.Observe(expand_ns);
    obs::AddExpandNs(expand_ns);
    shards_[0]->Answer(bits, out, pool);
    return out;
  }
  // §5.2 path: expand the top of the tree once, then answer per shard and
  // XOR the shard answers (the front-end's combine step).
  const auto subkeys = dpf::SplitForShards(key, config_.shard_top_bits);
  Bytes shard_answer(config_.record_size);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const auto t0 = obs::TraceNow();
    const dpf::BitVector bits = dpf::EvalSubtree(subkeys[s]);
    expand_ns += obs::ElapsedNs(t0);
    shards_[s]->Answer(bits, shard_answer, pool);
    XorInto(out, shard_answer);
  }
  obs::M().dpf_expand_ns.Observe(expand_ns);
  obs::AddExpandNs(expand_ns);
  return out;
}

Result<std::vector<Bytes>> PirStore::AnswerBatch(
    const std::vector<dpf::DpfKey>& keys, ThreadPool* pool) const {
  LW_ASSIGN_OR_RETURN(const ExpandedBatch expanded, ExpandBatch(keys, pool));
  return ScanBatch(expanded, pool);
}

Result<PirStore::ExpandedBatch> PirStore::ExpandBatch(
    const std::vector<dpf::DpfKey>& keys, ThreadPool* pool) const {
  for (const dpf::DpfKey& k : keys) LW_RETURN_IF_ERROR(CheckKey(k));
  // No store lock: expansion reads only the keys and the immutable domain
  // geometry, so a publish waits only for the scan, not for expansion.
  const auto t0 = obs::TraceNow();
  ExpandedBatch out;
  out.query_count = keys.size();
  out.shard_bits.resize(shards_.size());
  for (auto& per_shard : out.shard_bits) per_shard.resize(keys.size());
  // One key per task: a key expands serially in L2-sized buffers, so the
  // batch's keys are the unit of parallelism.
  const auto expand_keys = [&](std::size_t q0, std::size_t q1) {
    for (std::size_t q = q0; q < q1; ++q) {
      if (shards_.size() == 1) {
        out.shard_bits[0][q] = dpf::EvalFull(keys[q]);
        continue;
      }
      // §5.2: expand the top of the tree once, then each shard's sub-tree.
      const auto subkeys =
          dpf::SplitForShards(keys[q], config_.shard_top_bits);
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        out.shard_bits[s][q] = dpf::EvalSubtree(subkeys[s]);
      }
    }
  };
  if (pool == nullptr) {
    expand_keys(0, keys.size());
  } else {
    pool->ParallelFor(0, keys.size(), 1, expand_keys);
  }
  const std::uint64_t expand_ns = obs::ElapsedNs(t0);
  obs::M().dpf_expand_ns.Observe(expand_ns);
  obs::AddExpandNs(expand_ns);
  return out;
}

Result<std::vector<Bytes>> PirStore::ScanBatch(const ExpandedBatch& expanded,
                                               ThreadPool* pool) const {
  if (expanded.shard_bits.size() != shards_.size()) {
    return InternalError("expanded batch shard count mismatch");
  }
  std::shared_lock lock(mu_);
  std::vector<Bytes> out(expanded.query_count,
                         Bytes(config_.record_size, 0));
  std::vector<Bytes> shard_answers;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->AnswerBatch(expanded.shard_bits[s], shard_answers, pool);
    for (std::size_t q = 0; q < expanded.query_count; ++q) {
      XorInto(out[q], shard_answers[q]);
    }
  }
  return out;
}

Result<Bytes> PirStore::DirectLookup(std::string_view key) const {
  std::shared_lock lock(mu_);
  if (!registry_.IsRegistered(key)) return NotFoundError("key not published");
  const ShardRef ref = Locate(registry_.mapper().IndexOf(key));
  LW_ASSIGN_OR_RETURN(Bytes record, shards_[ref.shard]->Get(ref.local_index));
  LW_ASSIGN_OR_RETURN(pir::UnpackedRecord un, pir::UnpackRecord(record));
  return un.payload;
}

std::vector<std::string> PirStore::Keys() const {
  std::shared_lock lock(mu_);
  return registry_.AllKeys();
}

}  // namespace lw::zltp
