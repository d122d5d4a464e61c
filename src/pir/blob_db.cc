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
// row-order planes, sequentially (see Scan).
constexpr std::size_t kPrefetchRows = 4;

inline void Prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

}  // namespace

BlobDatabase::BlobDatabase(int domain_bits, std::size_t record_size)
    : domain_bits_(domain_bits),
      record_size_(record_size),
      row_stride_(AlignUp(record_size, kCacheLineSize)),
      table_stride_(row_stride_ + kTableSkew) {
  LW_CHECK_MSG(domain_bits >= 1 && domain_bits <= dpf::kMaxDomainBits,
               "domain_bits out of range");
  LW_CHECK_MSG(record_size > 0, "record_size must be positive");
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
  index_of_.emplace(index, slot_index_.size());
  slot_index_.push_back(index);
  records_.resize(records_.size() + row_stride_, 0);  // zero row + padding
  std::memcpy(records_.data() + records_.size() - row_stride_, record.data(),
              record_size_);
  return Status::Ok();
}

Status BlobDatabase::Update(std::uint64_t index, ByteSpan record) {
  if (record.size() != record_size_) {
    return InvalidArgumentError("record size mismatch");
  }
  const auto it = index_of_.find(index);
  if (it == index_of_.end()) return NotFoundError("no record at index");
  std::memcpy(records_.data() + it->second * row_stride_, record.data(),
              record_size_);
  return Status::Ok();
}

Status BlobDatabase::Upsert(std::uint64_t index, ByteSpan record) {
  if (Contains(index)) return Update(index, record);
  return Insert(index, record);
}

Status BlobDatabase::Remove(std::uint64_t index) {
  const auto it = index_of_.find(index);
  if (it == index_of_.end()) return NotFoundError("no record at index");
  const std::size_t row = it->second;
  const std::size_t last = slot_index_.size() - 1;
  if (row != last) {
    // Swap-remove keeps storage dense for the linear scan.
    std::memcpy(records_.data() + row * row_stride_,
                records_.data() + last * row_stride_, row_stride_);
    slot_index_[row] = slot_index_[last];
    index_of_[slot_index_[row]] = row;
  }
  records_.resize(last * row_stride_);
  slot_index_.pop_back();
  index_of_.erase(it);
  return Status::Ok();
}

bool BlobDatabase::Contains(std::uint64_t index) const {
  return index_of_.contains(index);
}

Result<Bytes> BlobDatabase::Get(std::uint64_t index) const {
  const auto it = index_of_.find(index);
  if (it == index_of_.end()) return NotFoundError("no record at index");
  const std::uint8_t* p = records_.data() + it->second * row_stride_;
  return Bytes(p, p + record_size_);
}

std::size_t BlobDatabase::ScanShards(ThreadPool* pool) const {
  if (pool == nullptr || pool->thread_count() <= 1) return 1;
  // At least ~256 rows per shard: below that, accumulator setup and the
  // reduction dwarf the scan itself.
  const std::size_t by_rows = slot_index_.size() / 256;
  return std::max<std::size_t>(
      1, std::min(static_cast<std::size_t>(pool->thread_count()), by_rows));
}

std::uint64_t BlobDatabase::ScanRows(const std::uint64_t* plane,
                                     std::size_t row_begin,
                                     std::size_t row_end,
                                     std::uint8_t* acc) const {
  std::uint64_t row_xors = 0;
  for (std::size_t row = row_begin; row < row_end; ++row) {
    if (row + kPrefetchRows < row_end) {
      Prefetch(records_.data() + (row + kPrefetchRows) * row_stride_);
    }
    if ((plane[row >> 6] >> (row & 63)) & 1) {
      XorBytes(acc, records_.data() + row * row_stride_, record_size_);
      ++row_xors;
    }
  }
  return row_xors;
}

void BlobDatabase::Project(const std::uint64_t* bits,
                           std::uint64_t* plane) const {
  const std::size_t n = slot_index_.size();
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t end = std::min(n, base + 64);
    std::uint64_t word = 0;
    for (std::size_t row = base; row < end; ++row) {
      const std::uint64_t index = slot_index_[row];
      word |= ((bits[index >> 6] >> (index & 63)) & 1) << (row - base);
    }
    plane[base / 64] = word;
  }
}

std::uint64_t BlobDatabase::ScanRowsGrouped(const std::uint64_t* planes,
                                            std::size_t plane_words,
                                            std::size_t nq,
                                            std::size_t row_begin,
                                            std::size_t row_end,
                                            std::uint8_t* tables) const {
  const std::size_t groups = (nq + kGroupSize - 1) / kGroupSize;
  const std::size_t slice = SliceBytes(TableEntries(nq), record_size_);
  const std::size_t slices = (record_size_ + slice - 1) / slice;
  // A block's table-entry offsets, at most one per group and row; hoisted
  // so the block loop never allocates.
  std::size_t dst_begin[kBlockRows + 1] = {};
  std::vector<std::size_t> offsets(kBlockRows * groups);
  std::uint64_t row_xors = 0;
  for (std::size_t block = row_begin; block < row_end; block += kBlockRows) {
    const std::size_t block_end = std::min(row_end, block + kBlockRows);
    // Each row's selection bits, four queries at a time, index one table
    // entry per group: whichever of the group's queries select the row,
    // the row is XORed once (the Method of Four Russians).
    std::size_t k = 0;
    for (std::size_t row = block; row < block_end; ++row) {
      const std::size_t word = row >> 6;
      const std::size_t shift = row & 63;
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
    // is a 4 KiB page, where the hardware streamer stops.
    const std::size_t rows = block_end - block;
    const std::size_t next_end = std::min(row_end, block_end + kBlockRows);
    const std::size_t next_lines =
        (next_end - block_end) * row_stride_ / kCacheLineSize;
    L2Prefetch prefetch{records_.data() + block_end * row_stride_, next_lines,
                        (next_lines + slices * rows - 1) / (slices * rows)};
    const XorRows block_rows{records_.data() + block * row_stride_,
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

void BlobDatabase::Scan(const std::uint64_t* const* bits,
                        std::uint8_t* const* outs, std::size_t nq,
                        ThreadPool* pool) const {
  const auto scan_start = std::chrono::steady_clock::now();
  const std::size_t n = slot_index_.size();
  const std::size_t shards = ScanShards(pool);
  // Per shard, one aligned accumulator per query, row_stride_ apart, then
  // that shard's tables, table_stride_ apart (a single query needs none).
  const std::size_t acc_block = nq * row_stride_;
  const std::size_t shard_block =
      acc_block + (nq == 1 ? 0 : TableEntries(nq) * table_stride_);
  AlignedBytes scratch(shards * shard_block, 0);
  // Each shard claims row chunks from a shared cursor until none are left,
  // so a worker that starts late or runs slow (a descheduled vCPU, a busier
  // core) leaves its rows to the others instead of holding up the pass. A
  // lone shard has no one to share with and scans its rows as one chunk.
  const std::size_t target_chunks = shards == 1 ? 1 : shards * kChunksPerShard;
  const std::size_t chunk_rows =
      std::max<std::size_t>(1, (n + target_chunks - 1) / target_chunks);
  const std::size_t chunks = (n + chunk_rows - 1) / chunk_rows;
  // The sweep reads its selection bits in row order. Rows sit at random
  // domain indices, so reading bit slot_index_[row] of each query's domain
  // vector per row would be B random reads into B·2^d/8 bytes beside the
  // row stream. Instead, one task per query first gathers that query's
  // bits into a packed plane of ⌈n/64⌉ words (bit r of plane q selects row
  // r), which the sweep then reads sequentially. The projection runs
  // inside the pass, so it sees the same row layout as the sweep.
  const auto project_start = std::chrono::steady_clock::now();
  const std::size_t plane_words = (n + 63) / 64;
  std::vector<std::uint64_t> planes(nq * plane_words);
  const auto project = [&](std::size_t q0, std::size_t q1) {
    for (std::size_t q = q0; q < q1; ++q) {
      Project(bits[q], planes.data() + q * plane_words);
    }
  };
  if (shards <= 1) {
    project(0, nq);
  } else {
    pool->ParallelFor(0, nq, 1, project);
  }
  obs::M().scan_project_ns.Inc(obs::ElapsedNs(project_start));
  std::atomic<std::size_t> next_chunk{0};
  // A single query XORs each selected row straight into its accumulator:
  // routed through the tables, its cache-cold shard scans ran ~13 % slower.
  const auto scan_shard = [&](std::uint8_t* block) {
    std::uint64_t row_xors = 0;
    for (;;) {
      const std::size_t c = next_chunk.fetch_add(1);
      if (c >= chunks) break;
      const std::size_t row_begin = c * chunk_rows;
      const std::size_t row_end = std::min(n, row_begin + chunk_rows);
      row_xors += nq == 1
                      ? ScanRows(planes.data(), row_begin, row_end, block)
                      : ScanRowsGrouped(planes.data(), plane_words, nq,
                                        row_begin, row_end, block + acc_block);
    }
    if (nq > 1) FoldTables(nq, block + acc_block, block);
    obs::M().scan_row_xors.Inc(row_xors);
  };
  if (shards <= 1) {
    scan_shard(scratch.data());
  } else {
    pool->ParallelFor(0, shards, 1, [&](std::size_t w0, std::size_t w1) {
      for (std::size_t w = w0; w < w1; ++w) {
        scan_shard(scratch.data() + w * shard_block);
      }
    });
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
    std::memcpy(outs[q], scratch.data() + q * row_stride_, record_size_);
  }
  const std::uint64_t scan_ns = obs::ElapsedNs(scan_start);
  obs::M().scan_pass_ns.Observe(scan_ns);
  obs::M().scan_busy_ns.Inc(scan_ns);
  // One pass reads each row once no matter how many queries ride it.
  obs::M().scan_rows_scanned.Inc(n);
  obs::M().scan_passes.Inc();
  obs::AddScanNs(scan_ns);
}

void BlobDatabase::Answer(const dpf::BitVector& bits, MutableByteSpan out,
                          ThreadPool* pool) const {
  LW_CHECK_MSG(out.size() == record_size_, "answer buffer size mismatch");
  LW_CHECK_MSG(bits.size() * 64 >= domain_size(), "bit vector too small");
  const std::uint64_t* words = bits.data();
  std::uint8_t* dst = out.data();
  Scan(&words, &dst, 1, pool);
}

void BlobDatabase::AnswerBatch(const std::vector<dpf::BitVector>& queries,
                               std::vector<Bytes>& answers,
                               ThreadPool* pool) const {
  answers.assign(queries.size(), Bytes(record_size_, 0));
  if (queries.empty()) return;
  std::vector<const std::uint64_t*> words;
  std::vector<std::uint8_t*> outs;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    LW_CHECK_MSG(queries[q].size() * 64 >= domain_size(),
                 "bit vector too small");
    words.push_back(queries[q].data());
    outs.push_back(answers[q].data());
  }
  Scan(words.data(), outs.data(), queries.size(), pool);
}

}  // namespace lw::pir
