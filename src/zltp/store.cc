#include "zltp/store.h"

#include <mutex>

#include "obs/metrics.h"
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
      registry_(config_.keyword_seed, config_.domain_bits),
      db_(config_.domain_bits, config_.record_size) {
  LW_CHECK_MSG(config_.record_size > pir::kRecordHeaderSize,
               "record_size too small for packing header");
}

Status PirStore::Publish(std::string_view key, ByteSpan payload) {
  std::unique_lock lock(mu_);
  LW_ASSIGN_OR_RETURN(const std::uint64_t index, registry_.Register(key));
  auto packed = pir::PackRecord(registry_.mapper().Fingerprint(key), payload,
                                config_.record_size);
  const bool existed = db_.Contains(index);
  if (!packed.ok()) {
    // Roll back the registration if the payload cannot be packed — unless
    // the key was already registered with earlier content.
    if (!existed) (void)registry_.Unregister(key);
    return packed.status();
  }
  const Status s = db_.Upsert(index, *packed);
  if (s.ok() && !existed) obs::M().store_records.Add(1);
  return s;
}

Status PirStore::Unpublish(std::string_view key) {
  std::unique_lock lock(mu_);
  if (!registry_.IsRegistered(key)) return NotFoundError("key not published");
  const std::uint64_t index = registry_.mapper().IndexOf(key);
  LW_RETURN_IF_ERROR(registry_.Unregister(key));
  const Status s = db_.Remove(index);
  if (s.ok()) obs::M().store_records.Add(-1);
  return s;
}

bool PirStore::Contains(std::string_view key) const {
  std::shared_lock lock(mu_);
  return registry_.IsRegistered(key);
}

std::size_t PirStore::record_count() const {
  std::shared_lock lock(mu_);
  return db_.record_count();
}

std::size_t PirStore::stored_bytes() const {
  std::shared_lock lock(mu_);
  return db_.stored_bytes();
}

Status PirStore::CheckKey(const dpf::DpfKey& key) const {
  if (key.domain_bits != config_.domain_bits) {
    return ProtocolError("DPF domain does not match universe domain");
  }
  return Status::Ok();
}

Result<Bytes> PirStore::AnswerQuery(const dpf::DpfKey& key,
                                    ThreadPool* pool) const {
  LW_ASSIGN_OR_RETURN(std::vector<Bytes> answers, AnswerBatch({key}, pool));
  return std::move(answers.front());
}

Result<std::vector<Bytes>> PirStore::AnswerBatch(
    const std::vector<dpf::DpfKey>& keys, ThreadPool* pool) const {
  LW_ASSIGN_OR_RETURN(const ExpandedBatch expanded, ExpandBatch(keys, pool));
  return ScanBatch(expanded, pool);
}

Result<PirStore::ExpandedBatch> PirStore::ExpandBatch(
    const std::vector<dpf::DpfKey>& keys, ThreadPool* /*pool*/) const {
  ExpandedBatch out;
  out.roots.reserve(keys.size());
  for (const dpf::DpfKey& key : keys) {
    LW_RETURN_IF_ERROR(CheckKey(key));
    out.roots.push_back(std::move(dpf::SplitForShards(key, 0).front()));
  }
  return out;
}

Result<std::vector<Bytes>> PirStore::ScanBatch(const ExpandedBatch& expanded,
                                               ThreadPool* pool) const {
  std::shared_lock lock(mu_);
  std::vector<Bytes> out;
  db_.AnswerBatch(expanded.roots, out, pool);
  return out;
}

Result<Bytes> PirStore::DirectLookup(std::string_view key) const {
  std::shared_lock lock(mu_);
  if (!registry_.IsRegistered(key)) return NotFoundError("key not published");
  LW_ASSIGN_OR_RETURN(Bytes record,
                      db_.Get(registry_.mapper().IndexOf(key)));
  LW_ASSIGN_OR_RETURN(pir::UnpackedRecord un, pir::UnpackRecord(record));
  return un.payload;
}

std::vector<std::string> PirStore::Keys() const {
  std::shared_lock lock(mu_);
  return registry_.AllKeys();
}

}  // namespace lw::zltp
