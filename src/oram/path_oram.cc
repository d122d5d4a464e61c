#include "oram/path_oram.h"

#include <cstring>

#include "crypto/aead.h"
#include "crypto/ct.h"
#include "util/check.h"

namespace lw::oram {
namespace {

constexpr std::size_t kSlotHeader = 9;  // u8 occupied + u64 block id

int LevelsForCapacity(std::uint64_t capacity) {
  // Leaves = smallest power of two >= capacity (>= 2).
  std::uint64_t leaves = 2;
  int levels = 2;
  while (leaves < capacity) {
    leaves <<= 1;
    ++levels;
  }
  return levels;
}

std::uint64_t RandomLeaf(std::uint64_t leaf_count) {
  // leaf_count is a power of two; mask keeps the draw uniform. Leaves must
  // be unpredictable to the host, so this draws from the secure RNG.
  std::uint8_t buf[8];
  SecureRandomBytes(MutableByteSpan(buf, 8));
  return LoadLE64(buf) & (leaf_count - 1);
}

}  // namespace

std::size_t RequiredBucketCount(const PathOramConfig& config) {
  const int levels = LevelsForCapacity(config.capacity);
  return (std::size_t{1} << levels) - 1;
}

PathOram::PathOram(const PathOramConfig& config, UntrustedStorage& storage,
                   ByteSpan encryption_key)
    : config_(config),
      storage_(storage),
      key_(encryption_key.begin(), encryption_key.end()),
      levels_(LevelsForCapacity(config.capacity)),
      seal_buf_(crypto::kAeadNonceSize +
                static_cast<std::size_t>(config.bucket_capacity) *
                    (kSlotHeader + config.block_size) +
                crypto::kAeadTagSize) {
  LW_CHECK_MSG(config.capacity > 0, "capacity must be positive");
  LW_CHECK_MSG(config.block_size > 0, "block_size must be positive");
  LW_CHECK_MSG(config.bucket_capacity >= 1, "bucket_capacity must be >= 1");
  LW_CHECK_MSG(key_.size() == crypto::kAeadKeySize,
               "encryption key must be 32 bytes");
  LW_CHECK_MSG(storage.bucket_count() >= RequiredBucketCount(config),
               "storage too small for ORAM tree");
  position_.resize(config.capacity);
  for (auto& p : position_) p = RandomLeaf(leaf_count());
}

std::size_t PathOram::BucketIndex(int level, std::uint64_t leaf) const {
  // Root is bucket 0; level l holds 2^l buckets; the path to `leaf` passes
  // through node (leaf >> (levels-1-l)) of that level.
  return ((std::size_t{1} << level) - 1) +
         static_cast<std::size_t>(leaf >> (levels_ - 1 - level));
}

void PathOram::SealBucket(int level, std::size_t bucket) {
  const std::size_t z = static_cast<std::size_t>(config_.bucket_capacity);
  const std::size_t slot_size = kSlotHeader + config_.block_size;
  std::uint8_t* const slots = seal_buf_.data() + crypto::kAeadNonceSize;
  std::size_t used = 0;
  for (auto it = stash_.begin(); it != stash_.end() && used < z;) {
    const std::uint64_t p = position_[it->first];
    if (BucketIndex(level, p) == bucket) {
      std::uint8_t* slot = slots + used * slot_size;
      slot[0] = 1;
      StoreLE64(slot + 1, it->first);
      LW_CHECK(it->second.size() == config_.block_size);
      std::memcpy(slot + kSlotHeader, it->second.data(), config_.block_size);
      ++used;
      it = stash_.erase(it);
    } else {
      ++it;
    }
  }
  // Empty slots seal as zeros.
  std::memset(slots + used * slot_size, 0, (z - used) * slot_size);
  const MutableByteSpan nonce(seal_buf_.data(), crypto::kAeadNonceSize);
  SecureRandomBytes(nonce);
  crypto::AeadSealInPlace(
      key_, nonce, ToBytes("oram-bucket"),
      MutableByteSpan(seal_buf_).subspan(crypto::kAeadNonceSize));
  storage_.WriteBucket(bucket, seal_buf_);
}

void PathOram::OpenBucket(Bytes sealed) {
  // A never-written bucket reads empty.
  if (sealed.size() < crypto::kAeadNonceSize) return;
  const MutableByteSpan buf(sealed);
  // ZLTP does not promise integrity/availability against a malicious host
  // (paper §2.1 non-goals); a tampered bucket is treated as empty.
  if (!crypto::AeadOpenInPlace(key_, buf.first(crypto::kAeadNonceSize),
                               ToBytes("oram-bucket"),
                               buf.subspan(crypto::kAeadNonceSize))
           .ok()) {
    return;
  }
  const std::size_t slot_size = kSlotHeader + config_.block_size;
  const std::size_t plain_size =
      sealed.size() - crypto::kAeadNonceSize - crypto::kAeadTagSize;
  const std::uint8_t* const plain = sealed.data() + crypto::kAeadNonceSize;
  for (std::size_t off = 0; off + slot_size <= plain_size; off += slot_size) {
    const std::uint8_t* slot = plain + off;
    if (slot[0] != 1) continue;
    stash_.try_emplace(LoadLE64(slot + 1), slot + kSlotHeader,
                       slot + slot_size);
  }
}

Result<Bytes> PathOram::Access(Op op, LW_SECRET std::uint64_t block_id,
                               ByteSpan new_data) {
  std::uint64_t leaf;
  if (op == Op::kDummy) {
    leaf = RandomLeaf(leaf_count());
  } else {
    LW_CHECK_MSG(block_id < config_.capacity, "block id out of range");
    // The position map lives in enclave-private memory (see class comment),
    // and the leaf it yields is deliberately declassified: it is a uniform
    // random value, independent of block_id, consumed exactly once — the
    // path the host is about to watch us read and rewrite IS this value.
    // lwlint: allow(secret-taint-index, secret-taint)
    leaf = position_[block_id];
    position_[block_id] =        // lwlint: allow(secret-taint-index)
        RandomLeaf(leaf_count());
  }

  // Read the whole path into the stash.
  for (int level = 0; level < levels_; ++level) {
    OpenBucket(storage_.ReadBucket(BucketIndex(level, leaf)));
  }

  Result<Bytes> result = NotFoundError("block never written");
  if (op != Op::kDummy) {
    if (op == Op::kRead) {
      // Constant-time stash selection (CtStashScan): touch every block
      // pulled from the path and pick the target with masks, so which slot
      // held the requested block is not observable through the access
      // pattern or timing of this scan (the path itself is already
      // randomized). A block that was never written is in no bucket and no
      // stash entry, so the mask stays zero and the read reports NOT_FOUND
      // with the exact same scan.
      Bytes found(config_.block_size, 0);
      const std::uint64_t found_mask = CtStashScan(stash_, block_id, found);
      // Hit/miss is deliberately revealed to the in-enclave caller as a
      // status; the host-visible access pattern above is identical for both
      // outcomes. lwlint: allow(secret-taint-branch)
      if (found_mask != 0) result = std::move(found);
    }
    if (op == Op::kWrite) {
      // The stash is an enclave-private map; this keyed insert is not
      // host-visible (the write-back below touches the whole path).
      stash_[block_id] =  // lwlint: allow(secret-taint-index)
          Bytes(new_data.begin(), new_data.end());
      result = Bytes{};
    }
  } else {
    result = Bytes{};
  }

  // Write the path back, evicting stash blocks as deep as their (new)
  // positions allow.
  for (int level = levels_ - 1; level >= 0; --level) {
    SealBucket(level, BucketIndex(level, leaf));
  }
  return result;
}

std::uint64_t CtStashScan(const std::unordered_map<std::uint64_t, Bytes>& stash,
                          LW_SECRET std::uint64_t block_id,
                          MutableByteSpan out) {
  std::uint64_t found_mask = 0;
  for (const auto& [id, data] : stash) {
    const std::uint64_t m = crypto::ct::EqMask(id, block_id);
    crypto::ct::CondAssign(m, out, data);
    found_mask |= m;
  }
  return found_mask;
}

Result<Bytes> PathOram::Read(LW_SECRET std::uint64_t block_id) {
  return Access(Op::kRead, block_id, {});
}

Status PathOram::Write(LW_SECRET std::uint64_t block_id, ByteSpan data) {
  if (data.size() != config_.block_size) {
    return InvalidArgumentError("block size mismatch");
  }
  auto r = Access(Op::kWrite, block_id, data);
  if (!r.ok()) return r.status();
  return Status::Ok();
}

void PathOram::DummyAccess() { Access(Op::kDummy, 0, {}).ok(); }

}  // namespace lw::oram
