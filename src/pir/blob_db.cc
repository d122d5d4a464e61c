#include "pir/blob_db.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace lw::pir {
namespace {

// Queries per table group of the batch scan. A group of G queries needs
// 2^G table entries and costs a row at most one XOR, so G trades XOR work
// (≤ ⌈B/G⌉ per row) against table space (⌈B/G⌉·2^G rows per shard). At
// G = 4 a 16-query batch's tables take 64 entries, 260 KiB at 4 KiB
// records (entries sit 4160 B apart, see kTableSkew), and stay in L2. G = 8 scanned a 16-query batch no faster on a Xeon with
// 2 MiB of L2 per core, and its tables filled that whole L2.
constexpr std::size_t kGroupSize = 4;
constexpr std::size_t kGroupEntries = std::size_t{1} << kGroupSize;

// Table rows a batch of nq ≥ 2 queries needs: group g's pattern p lives at
// entry g·kGroupEntries + p, and a last group of m queries only reaches
// patterns below 2^m.
std::size_t TableEntries(std::size_t nq) {
  const std::size_t last = (nq - 1) / kGroupSize;
  return last * kGroupEntries +
         (std::size_t{1} << (nq - last * kGroupSize));
}

// Row chunks per shard of a parallel scan pass. The shards claim chunks as
// they go, so one chunk bounds how long a shard can trail the others: at
// 16, a chunk of a 1 GiB store over two shards is 32 MiB, a few ms.
constexpr std::size_t kChunksPerShard = 16;

// The grouped scan sweeps a chunk in blocks of kBlockRows rows, one column
// slice at a time: slice c of every row of a block is XORed into slice c
// of its table entries before slice c + 1 starts. Row-major, a 16-query
// batch read-modify-writes ~3.75 whole 4 KiB entries per row, out of
// 256 KiB of tables that live in L2. Blocked, the slice of the tables a
// block XORs into stays in L1 (kL1TableBudget bytes) for all its rows,
// while the block's row slices come from L2, where the previous block
// prefetched them.
constexpr std::size_t kBlockRows = 32;
constexpr std::size_t kL1TableBudget = 32 * 1024;
// The narrowest slice: one four-lane block of the AVX-512 kernel.
constexpr std::size_t kMinSliceBytes = 256;
// Table entries sit a cache line more than a row stride apart. At a 4 KiB
// stride, the same slice of every entry maps to the same L1 sets, and a
// 16-query batch's 64 entries compete for the 12 ways of a 48 KiB L1d;
// skewed by a line, the slices spread over the sets.
constexpr std::size_t kTableSkew = kCacheLineSize;

// Widest power-of-two slice, from kMinSliceBytes up to the record size,
// whose slices of all `entries` table entries fit kL1TableBudget: 512 B at
// B = 16 and 4 KiB records, the whole record at B <= 3. It depends only on
// the batch size and the record size.
std::size_t SliceBytes(std::size_t entries, std::size_t record_size) {
  std::size_t slice = kMinSliceBytes;
  while (slice * 2 <= record_size && slice * 2 * entries <= kL1TableBudget) {
    slice *= 2;
  }
  return slice;
}

// Rows ahead of the current one that a single-query scan pulls into cache.
// It reads only the rows its query selects, so it fetches a row's first
// cache line. Selection bits need no prefetch: every pass reads them from
// row-order planes, sequentially (see AnswerBatch).
constexpr std::size_t kPrefetchRows = 4;

// A bucket's sub-tree covers 2^kBucketDomainBits points: its leaves take
// 2^(kBucketDomainBits - 3) bytes per query, 8 KiB, and a 16-query batch's
// 128 KiB stay in L2 while the bucket is swept.
constexpr int kBucketDomainBits = 16;

// Bytes a slab reserves: one hugepage, or one row if a row is larger.
constexpr std::size_t kSlabBytes = kHugePageSize;

// A run of rows one shard claims: rows [begin, end) of one bucket.
struct Chunk {
  std::size_t bucket;
  std::size_t begin;
  std::size_t end;
};

inline void Prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace

int BucketBits(int domain_bits) {
  return std::clamp(domain_bits - kBucketDomainBits, 0,
                    dpf::TreeDepth(domain_bits));
}

BlobDatabase::BlobDatabase(int domain_bits, std::size_t record_size)
    : domain_bits_(domain_bits),
      bucket_bits_(BucketBits(domain_bits)),
      record_size_(record_size),
      row_stride_(AlignUp(record_size, kCacheLineSize)),
      rows_per_slab_(std::max<std::size_t>(1, kSlabBytes / row_stride_)),
      table_stride_(row_stride_ + kTableSkew) {
  LW_CHECK_MSG(domain_bits >= 1 && domain_bits <= dpf::kMaxDomainBits,
               "domain_bits out of range");
  LW_CHECK_MSG(record_size > 0, "record_size must be positive");
  buckets_.resize(std::size_t{1} << bucket_bits_);
}

std::uint8_t* BlobDatabase::MutableRow(Bucket& bucket, std::size_t row) {
  return bucket.slabs[row / rows_per_slab_].data() +
         (row % rows_per_slab_) * row_stride_;
}

const std::uint8_t* BlobDatabase::row_data(std::uint64_t index) const {
  const auto it = index_of_.find(index);
  if (it == index_of_.end()) return nullptr;
  const Bucket& bucket = buckets_[index & (buckets_.size() - 1)];
  return bucket.slabs[it->second / rows_per_slab_].data() +
         (it->second % rows_per_slab_) * row_stride_;
}

Status BlobDatabase::Insert(std::uint64_t index, ByteSpan record) {
  if (index >= domain_size()) {
    return InvalidArgumentError("index outside DPF domain");
  }
  if (record.size() != record_size_) {
    return InvalidArgumentError("record size mismatch");
  }
  if (index_of_.contains(index)) {
    return CollisionError("domain index already occupied");
  }
  Bucket& bucket = buckets_[index & (buckets_.size() - 1)];
  const std::size_t row = bucket.points.size();
  if (row % rows_per_slab_ == 0) {
    // Reserved once: appending a row never moves the slab's rows.
    bucket.slabs.emplace_back().reserve(
        std::max(kSlabBytes, rows_per_slab_ * row_stride_));
  }
  HugeBytes& slab = bucket.slabs.back();
  slab.resize(slab.size() + row_stride_, 0);  // zero row + padding
  std::memcpy(slab.data() + slab.size() - row_stride_, record.data(),
              record_size_);
  bucket.points.push_back(index >> bucket_bits_);
  index_of_.emplace(index, row);
  return Status::Ok();
}

Status BlobDatabase::Update(std::uint64_t index, ByteSpan record) {
  if (record.size() != record_size_) {
    return InvalidArgumentError("record size mismatch");
  }
  const auto it = index_of_.find(index);
  if (it == index_of_.end()) return NotFoundError("no record at index");
  std::memcpy(MutableRow(buckets_[index & (buckets_.size() - 1)], it->second),
              record.data(), record_size_);
  return Status::Ok();
}

Status BlobDatabase::Upsert(std::uint64_t index, ByteSpan record) {
  if (Contains(index)) return Update(index, record);
  return Insert(index, record);
}

Status BlobDatabase::Remove(std::uint64_t index) {
  const auto it = index_of_.find(index);
  if (it == index_of_.end()) return NotFoundError("no record at index");
  const std::uint64_t residue = index & (buckets_.size() - 1);
  Bucket& bucket = buckets_[residue];
  const std::size_t row = it->second;
  const std::size_t last = bucket.points.size() - 1;
  if (row != last) {
    // Swap-remove keeps the bucket dense for the linear scan.
    std::memcpy(MutableRow(bucket, row), MutableRow(bucket, last),
                row_stride_);
    bucket.points[row] = bucket.points[last];
    index_of_[(bucket.points[row] << bucket_bits_) | residue] = row;
  }
  HugeBytes& slab = bucket.slabs.back();
  slab.resize(slab.size() - row_stride_);
  if (slab.empty()) bucket.slabs.pop_back();
  bucket.points.pop_back();
  index_of_.erase(it);
  return Status::Ok();
}

bool BlobDatabase::Contains(std::uint64_t index) const {
  return index_of_.contains(index);
}

Result<Bytes> BlobDatabase::Get(std::uint64_t index) const {
  const std::uint8_t* p = row_data(index);
  if (p == nullptr) return NotFoundError("no record at index");
  return Bytes(p, p + record_size_);
}

std::size_t BlobDatabase::ScanShards(ThreadPool* pool) const {
  if (pool == nullptr || pool->thread_count() <= 1) return 1;
  // At least ~256 rows per shard: below that, accumulator setup and the
  // reduction dwarf the scan itself.
  const std::size_t by_rows = record_count() / 256;
  return std::max<std::size_t>(
      1, std::min(static_cast<std::size_t>(pool->thread_count()), by_rows));
}

std::uint64_t BlobDatabase::ScanRows(const std::uint64_t* plane,
                                     const Run& run,
                                     std::uint8_t* acc) const {
  std::uint64_t row_xors = 0;
  for (std::size_t i = 0; i < run.count; ++i) {
    if (i + kPrefetchRows < run.count) {
      Prefetch(run.rows + (i + kPrefetchRows) * row_stride_);
    } else if (i + kPrefetchRows - run.count < run.next_count) {
      Prefetch(run.next + (i + kPrefetchRows - run.count) * row_stride_);
    }
    const std::size_t bit = run.first + i;
    if ((plane[bit >> 6] >> (bit & 63)) & 1) {
      XorBytes(acc, run.rows + i * row_stride_, record_size_);
      ++row_xors;
    }
  }
  return row_xors;
}

std::uint64_t BlobDatabase::ScanRowsGrouped(const std::uint64_t* planes,
                                            std::size_t plane_words,
                                            std::size_t nq, const Run& run,
                                            std::uint8_t* tables) const {
  const std::size_t groups = (nq + kGroupSize - 1) / kGroupSize;
  const std::size_t slice = SliceBytes(TableEntries(nq), record_size_);
  const std::size_t slices = (record_size_ + slice - 1) / slice;
  // A block's table-entry offsets, at most one per group and row; hoisted
  // so the block loop never allocates.
  std::size_t dst_begin[kBlockRows + 1] = {};
  std::vector<std::size_t> offsets(kBlockRows * groups);
  std::uint64_t row_xors = 0;
  for (std::size_t block = 0; block < run.count; block += kBlockRows) {
    const std::size_t block_end = std::min(run.count, block + kBlockRows);
    // Each row's selection bits, four queries at a time, index one table
    // entry per group: whichever of the group's queries select the row,
    // the row is XORed once (the Method of Four Russians).
    std::size_t k = 0;
    for (std::size_t row = block; row < block_end; ++row) {
      const std::size_t word = (run.first + row) >> 6;
      const std::size_t shift = (run.first + row) & 63;
      for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t q0 = g * kGroupSize;
        const std::size_t q1 = std::min(nq, q0 + kGroupSize);
        std::size_t pattern = 0;
        for (std::size_t q = q0; q < q1; ++q) {
          pattern |= static_cast<std::size_t>(
                         (planes[q * plane_words + word] >> shift) & 1)
                     << (q - q0);
        }
        if (pattern != 0) {
          offsets[k++] = (g * kGroupEntries + pattern) * table_stride_;
        }
      }
      dst_begin[row - block + 1] = k;
    }
    row_xors += k;
    // The next block of this chunk goes to L2 while this one is swept,
    // spread evenly over the block's (slice, row) steps: a 4 KiB record
    // is a 4 KiB page, where the hardware streamer stops. At the end of a
    // slab the next block is the first of the chunk's next slab.
    const std::size_t rows = block_end - block;
    const std::uint8_t* next = run.rows + block_end * row_stride_;
    std::size_t next_rows = std::min(run.count, block_end + kBlockRows) -
                            block_end;
    if (block_end == run.count) {
      next = run.next;
      next_rows = std::min(kBlockRows, run.next_count);
    }
    const std::size_t next_lines = next_rows * row_stride_ / kCacheLineSize;
    L2Prefetch prefetch{next, next_lines,
                        (next_lines + slices * rows - 1) / (slices * rows)};
    const XorRows block_rows{run.rows + block * row_stride_,
                             row_stride_,
                             rows,
                             dst_begin,
                             offsets.data(),
                             tables};
    for (std::size_t c = 0; c < record_size_; c += slice) {
      XorSliceMulti(block_rows, c, std::min(slice, record_size_ - c),
                    prefetch);
    }
  }
  return row_xors;
}
void BlobDatabase::FoldTables(std::size_t nq, const std::uint8_t* tables,
                              std::uint8_t* accs) const {
  const std::size_t groups = (nq + kGroupSize - 1) / kGroupSize;
  // Query j of group g selected exactly the rows XORed into the entries
  // whose pattern has bit j set: the group's entries 1..2^m - 1 are the
  // rows of one XorSliceMulti call, and each one's destinations are the
  // accumulators of the queries its pattern selects.
  std::size_t dst_begin[kGroupEntries];
  std::size_t offsets[kGroupEntries * kGroupSize];
  L2Prefetch no_prefetch;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t q0 = g * kGroupSize;
    const std::size_t members = std::min(nq - q0, kGroupSize);
    const std::size_t patterns = std::size_t{1} << members;
    std::size_t k = 0;
    dst_begin[0] = 0;
    for (std::size_t pattern = 1; pattern < patterns; ++pattern) {
      for (std::size_t j = 0; j < members; ++j) {
        if ((pattern >> j) & 1) offsets[k++] = (q0 + j) * row_stride_;
      }
      dst_begin[pattern] = k;
    }
    const XorRows entries{tables + (g * kGroupEntries + 1) * table_stride_,
                          table_stride_,
                          patterns - 1,
                          dst_begin,
                          offsets,
                          accs};
    XorSliceMulti(entries, 0, record_size_, no_prefetch);
  }
}

void BlobDatabase::AnswerBatch(const std::vector<dpf::SubtreeKey>& keys,
                               std::vector<Bytes>& answers,
                               ThreadPool* pool) const {
  const std::size_t nq = keys.size();
  answers.assign(nq, Bytes(record_size_, 0));
  if (nq == 0) return;
  const auto scan_start = std::chrono::steady_clock::now();
  for (const dpf::SubtreeKey& key : keys) {
    LW_CHECK_MSG(key.domain_bits == domain_bits_ &&
                     key.correction_words.size() ==
                         static_cast<std::size_t>(dpf::TreeDepth(domain_bits_)),
                 "sub-tree key does not match the database's domain");
  }
  // Every key's bucket roots, bucket_bits_ levels below its root.
  std::vector<dpf::SplitRoots> roots;
  roots.reserve(nq);
  for (const dpf::SubtreeKey& key : keys) {
    roots.push_back(dpf::ExpandRoots(key, bucket_bits_));
  }
  const std::uint64_t roots_ns = obs::ElapsedNs(scan_start);

  const std::size_t n = record_count();
  const std::size_t shards = ScanShards(pool);
  // Chunks never span a bucket. Each shard claims chunks from a shared
  // cursor until none are left, so a worker that starts late or runs slow
  // (a descheduled vCPU, a busier core) leaves its rows to the others
  // instead of holding up the pass. A bucket larger than the target chunk
  // splits on slab boundaries; a lone shard takes each bucket whole.
  const std::size_t target_chunks = shards == 1 ? 1 : shards * kChunksPerShard;
  const std::size_t target_rows =
      std::max<std::size_t>(1, (n + target_chunks - 1) / target_chunks);
  const std::size_t chunk_rows =
      std::max<std::size_t>(1, target_rows / rows_per_slab_) * rows_per_slab_;
  std::vector<Chunk> chunks;
  std::size_t max_chunk = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::size_t rows = buckets_[b].points.size();
    const std::size_t step = rows <= target_rows ? rows : chunk_rows;
    for (std::size_t begin = 0; begin < rows; begin += step) {
      chunks.push_back({b, begin, std::min(rows, begin + step)});
      max_chunk = std::max(max_chunk, chunks.back().end - begin);
    }
  }

  // Per shard, one aligned accumulator per query, row_stride_ apart, then
  // that shard's tables, table_stride_ apart (a single query needs none).
  const std::size_t acc_block = nq * row_stride_;
  const std::size_t shard_block =
      acc_block + (nq == 1 ? 0 : TableEntries(nq) * table_stride_);
  AlignedBytes scratch(shards * shard_block, 0);
  std::vector<std::uint64_t> expand_ns(shards, 0), project_ns(shards, 0);
  const int levels = dpf::TreeDepth(domain_bits_) - bucket_bits_;
  const std::size_t leaf_words = std::size_t{2} << levels;
  const std::size_t plane_words = (max_chunk + 63) / 64;
  std::atomic<std::size_t> next_chunk{0};
  // A single query XORs each selected row straight into its accumulator:
  // routed through the tables, its cache-cold shard scans ran ~13 % slower.
  const auto scan_shard = [&](std::size_t w) {
    std::uint8_t* block = scratch.data() + w * shard_block;
    // The leaves of the bucket this shard expanded last, leaf_words per
    // query, and its current chunk's rows' leaf bit indices and row-order
    // selection planes.
    std::vector<std::uint64_t> leaves(nq * leaf_words);
    std::vector<std::uint64_t> planes(nq * plane_words);
    std::vector<std::uint64_t> bit_at(max_chunk);
    std::size_t expanded = buckets_.size();
    std::uint64_t row_xors = 0;
    for (;;) {
      const std::size_t c = next_chunk.fetch_add(1);
      if (c >= chunks.size()) break;
      const Chunk& chunk = chunks[c];
      const Bucket& bucket = buckets_[chunk.bucket];
      if (chunk.bucket != expanded) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t q = 0; q < nq; ++q) {
          dpf::EvalLeaves(keys[q], bucket_bits_,
                          roots[q].seeds.data() + chunk.bucket * dpf::kSeedSize,
                          roots[q].ts[chunk.bucket],
                          leaves.data() + q * leaf_words);
        }
        expanded = chunk.bucket;
        expand_ns[w] += obs::ElapsedNs(t0);
      }
      // The sweep reads its selection bits in row order. Rows sit at
      // random points of the bucket, so the gather reads each row's leaf
      // bit per query here, while the leaves are in L2, into a packed
      // plane per query: bit i of plane q selects the chunk's row
      // begin + i.
      const auto t0 = std::chrono::steady_clock::now();
      const std::size_t rows = chunk.end - chunk.begin;
      for (std::size_t i = 0; i < rows; ++i) {
        bit_at[i] = dpf::LeafBitIndex(levels, bucket.points[chunk.begin + i]);
      }
      for (std::size_t q = 0; q < nq; ++q) {
        const std::uint64_t* leaf = leaves.data() + q * leaf_words;
        std::uint64_t* plane = planes.data() + q * plane_words;
        for (std::size_t base = 0; base < rows; base += 64) {
          const std::size_t end = std::min(rows, base + 64);
          std::uint64_t word = 0;
          for (std::size_t i = base; i < end; ++i) {
            word |= ((leaf[bit_at[i] >> 6] >> (bit_at[i] & 63)) & 1)
                    << (i - base);
          }
          plane[base / 64] = word;
        }
      }
      project_ns[w] += obs::ElapsedNs(t0);
      // One run per slab; the chunk starts on a slab boundary.
      for (std::size_t r = chunk.begin; r < chunk.end; r += rows_per_slab_) {
        const std::size_t s = r / rows_per_slab_;
        const std::size_t next = r + rows_per_slab_;
        const Run run{bucket.slabs[s].data(),
                      std::min(chunk.end, next) - r,
                      r - chunk.begin,
                      next < chunk.end ? bucket.slabs[s + 1].data() : nullptr,
                      next < chunk.end
                          ? std::min(chunk.end, next + rows_per_slab_) - next
                          : 0};
        row_xors += nq == 1 ? ScanRows(planes.data(), run, block)
                            : ScanRowsGrouped(planes.data(), plane_words, nq,
                                              run, block + acc_block);
      }
    }
    if (nq > 1) FoldTables(nq, block + acc_block, block);
    obs::M().scan_row_xors.Inc(row_xors);
  };
  if (shards <= 1) {
    scan_shard(0);
  } else {
    pool->Run(shards, scan_shard);
    // Tree reduction across shards; a whole accumulator block (all B
    // answers) is combined per XOR, padding XORs zero into zero.
    for (std::size_t step = 1; step < shards; step <<= 1) {
      for (std::size_t i = 0; i + step < shards; i += 2 * step) {
        XorBytes(scratch.data() + i * shard_block,
                 scratch.data() + (i + step) * shard_block, acc_block);
      }
    }
  }
  for (std::size_t q = 0; q < nq; ++q) {
    std::memcpy(answers[q].data(), scratch.data() + q * row_stride_,
                record_size_);
  }
  // The expansion ran inside the pass, on its shards: report its sum once,
  // from the calling thread, whose request trace this pass serves.
  std::uint64_t expand_total = roots_ns, project_total = 0;
  for (std::size_t w = 0; w < shards; ++w) {
    expand_total += expand_ns[w];
    project_total += project_ns[w];
  }
  obs::M().dpf_expand_ns.Observe(expand_total);
  obs::AddExpandNs(expand_total);
  obs::M().scan_project_ns.Inc(project_total);
  const std::uint64_t scan_ns = obs::ElapsedNs(scan_start);
  obs::M().scan_pass_ns.Observe(scan_ns);
  obs::M().scan_busy_ns.Inc(scan_ns);
  // One pass reads each row once no matter how many queries ride it.
  obs::M().scan_rows_scanned.Inc(n);
  obs::M().scan_passes.Inc();
  obs::AddScanNs(scan_ns);
}

}  // namespace lw::pir
