// Path ORAM (Stefanov et al., CCS'13) over untrusted bucket storage.
//
// The enclave-mode ZLTP server keeps its key-value store in a Path ORAM so
// that the host-visible access pattern is a uniformly random tree path per
// logical access, independent of which key a client requested (paper §2.2).
// Buckets are AEAD-encrypted and re-randomized on every write-back, so the
// adversary learns bucket indices and timing only. Position map and stash
// live inside the enclave's private memory (position-map recursion is
// unnecessary when the map fits in enclave memory; see DESIGN.md).
//
// Costs are polylogarithmic per access — (Z)·(log N) bucket transfers —
// which is the "appealingly low server-side computational cost" the paper
// contrasts against the PIR mode's linear scan.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crypto/secret.h"
#include "oram/storage.h"
#include "util/bytes.h"
#include "util/rand.h"
#include "util/status.h"

namespace lw::oram {

struct PathOramConfig {
  // Maximum number of logical blocks (block ids are 0..capacity-1).
  std::uint64_t capacity = 0;
  // Every logical block is exactly this many bytes.
  std::size_t block_size = 0;
  // Blocks per bucket (Z). 4 keeps stash small w.h.p. (the paper the
  // construction comes from recommends Z >= 4).
  int bucket_capacity = 4;
};

// Number of buckets a PathOram with this config needs its storage to have.
std::size_t RequiredBucketCount(const PathOramConfig& config);

class PathOram {
 public:
  // `storage` must outlive the ORAM and have at least
  // RequiredBucketCount(config) buckets. `encryption_key` (32 bytes) seals
  // buckets; it lives inside the enclave.
  PathOram(const PathOramConfig& config, UntrustedStorage& storage,
           ByteSpan encryption_key);

  // Reads a logical block. NOT_FOUND if never written — but the untrusted
  // access pattern is identical to a successful read (a full path is read
  // and rewritten either way). The block id names WHICH record the client
  // wants, i.e. the very thing ORAM exists to hide.
  Result<Bytes> Read(LW_SECRET std::uint64_t block_id);

  // Writes a logical block (data must be exactly block_size bytes).
  Status Write(LW_SECRET std::uint64_t block_id, ByteSpan data);

  // Performs an access indistinguishable from Read/Write without touching
  // any real block: used by the enclave to mask absent keys and to pad
  // fixed-rate access schedules.
  void DummyAccess();

  std::size_t stash_size() const { return stash_.size(); }
  int tree_levels() const { return levels_; }
  std::uint64_t leaf_count() const { return std::uint64_t{1} << (levels_ - 1); }

 private:
  enum class Op { kRead, kWrite, kDummy };
  Result<Bytes> Access(Op op, LW_SECRET std::uint64_t block_id,
                       ByteSpan new_data);

  std::size_t BucketIndex(int level, std::uint64_t leaf) const;
  // Opens a bucket read from storage in place and copies its blocks into
  // the stash; a never-written or tampered bucket adds nothing.
  void OpenBucket(Bytes sealed);
  // Moves up to Z stash blocks whose paths pass through `bucket` (at
  // `level` of the path being written back) into seal_buf_, seals it and
  // writes the bucket to storage.
  void SealBucket(int level, std::size_t bucket);

  PathOramConfig config_;
  UntrustedStorage& storage_;
  Bytes key_;          // bucket AEAD key (enclave-private)
  int levels_;         // tree levels; leaves = 2^(levels_-1)
  // Enclave-private state: position map (block -> leaf) and stash.
  std::vector<std::uint64_t> position_;
  std::unordered_map<std::uint64_t, Bytes> stash_;
  // nonce || Z slots || tag: the enclave-private buffer every bucket is
  // built and sealed in before one copy into storage.
  Bytes seal_buf_;
};

// Constant-time stash selection (the data-oblivious core of PathOram::Read,
// exposed as a free function so tools/ctcheck can time it in isolation):
// touches every entry of `stash` and copies the block whose id equals
// `block_id` into `out` with masks. `out` must be pre-sized to the block
// size. Returns the all-ones mask if the block was present, 0 otherwise;
// runtime depends only on the stash size and block size, never on which
// entry (if any) matched.
std::uint64_t CtStashScan(const std::unordered_map<std::uint64_t, Bytes>& stash,
                          LW_SECRET std::uint64_t block_id,
                          MutableByteSpan out);

}  // namespace lw::oram
