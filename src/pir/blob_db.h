// Fixed-size-record blob database with DPF-selected XOR scans.
//
// This is the data structure a ZLTP data server scans per request (paper
// §5.1): records live at sparse indices of the DPF output domain 2^d; an
// answer XORs every record whose DPF evaluation bit is set into a single
// record-sized accumulator. Batched answering amortizes the scan: one pass
// over the data serves B queries, which is exactly the latency/throughput
// trade the paper's batching microbenchmark measures.
//
// The pass takes DPF sub-tree keys and evaluates them inside the scan. The
// DPF tree consumes the point's bits LSB-first, so the sub-tree t levels
// below the root covers one residue class mod 2^t. The rows are stored
// bucket-major by the low t = bucket_bits() bits of their domain index,
// where t = clamp(d - 16, 0, TreeDepth(d)): a bucket's sub-tree covers
// 2^16 points, whose leaves take 8 KiB per query (128 KiB at B = 16) and
// stay in L2. For each bucket, a row shard expands the batch's B sub-trees
// (dpf::EvalLeaves), gathers its rows' selection bits from the leaves into
// row-order planes, and sweeps the bucket's rows.
//
// Storage is cache-line friendly: rows are padded to a 64-byte stride and
// a bucket keeps its rows in 2 MiB slabs (hugepage-advised, see
// util/alloc.h), reserved once and never regrown, so every row starts on a
// cache line, rows stay contiguous a slab at a time, and the
// runtime-dispatched XOR kernels (scalar/AVX2/AVX-512, see
// pir/xor_kernel.h) run on aligned addresses.
//
// A batch of B ≥ 2 queries runs a grouped-table scan: the queries split
// into groups of four, and a row is XORed once per group into the table
// entry its four selection bits name (the Method of Four Russians), so a
// row costs at most ⌈B/4⌉ XORs however many queries select it. The sweep
// takes the rows in blocks of 32 and each block one column slice at a
// time, so the slice of the tables it XORs into stays in L1; the slice
// width follows from the batch and record sizes alone. Each query's
// answer is then the XOR of its group's entries whose pattern selects it.
// A single query XORs its selected rows straight into one accumulator.
// With a ThreadPool the scan runs up to one row shard per pool thread, each
// with private tables and accumulators; the shards claim row chunks (never
// spanning a bucket) from a shared cursor, so a slow thread's rows go to
// the others, and a tree reduction combines the shards (the multi-core
// server of §5.1).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dpf/dpf.h"
#include "pir/xor_kernel.h"
#include "util/alloc.h"
#include "util/bytes.h"
#include "util/status.h"

namespace lw {
class ThreadPool;
}

namespace lw::pir {

// Bucket bits of a 2^domain_bits database: clamp(d - 16, 0,
// dpf::TreeDepth(d)), so a bucket's DPF sub-tree covers 2^16 points.
int BucketBits(int domain_bits);

class BlobDatabase {
 public:
  // domain_bits: DPF output domain is 2^domain_bits.
  // record_size: every stored record is exactly this many bytes (ZLTP serves
  // fixed-length blobs; the lightweb layer pads — paper §3.1).
  BlobDatabase(int domain_bits, std::size_t record_size);

  int domain_bits() const { return domain_bits_; }
  std::uint64_t domain_size() const {
    return std::uint64_t{1} << domain_bits_;
  }
  std::size_t record_size() const { return record_size_; }
  std::size_t record_count() const { return index_of_.size(); }
  // Total payload bytes stored (the "1 GiB shard" knob of §5.1).
  std::size_t stored_bytes() const { return record_count() * record_size_; }

  // Bytes between consecutive row starts: record_size rounded up to a
  // 64-byte cache line (padding is zero and never scanned into answers).
  std::size_t row_stride() const { return row_stride_; }
  // The rows sit in 2^bucket_bits() buckets by the low BucketBits(d) bits
  // of their domain index.
  int bucket_bits() const { return bucket_bits_; }
  // Rows per 2 MiB slab (at least one).
  std::size_t rows_per_slab() const { return rows_per_slab_; }
  // Start of the row that holds a stored index, or nullptr; always 64-byte
  // aligned (tests/benches assert this to keep the XOR kernel on its
  // aligned path).
  const std::uint8_t* row_data(std::uint64_t index) const;

  // Inserts a record at a domain index. Fails with COLLISION if the index is
  // occupied (the paper: "the publisher can simply select another key name").
  // `record` must be exactly record_size bytes.
  Status Insert(std::uint64_t index, ByteSpan record);

  // Replaces the record at an occupied index (publisher content updates).
  Status Update(std::uint64_t index, ByteSpan record);

  // Inserts or replaces.
  Status Upsert(std::uint64_t index, ByteSpan record);

  // Swap-removes inside the row's bucket and frees a slab it empties.
  Status Remove(std::uint64_t index);
  bool Contains(std::uint64_t index) const;

  // Direct (non-private) read, used by tests and the publisher pipeline.
  Result<Bytes> Get(std::uint64_t index) const;

  // PIR answers for a batch of DPF sub-tree keys over this database's
  // domain (key.domain_bits == domain_bits(); a PIR server passes each
  // DpfKey as its root sub-tree): answers[q] is the XOR of every record
  // whose evaluation bit under keys[q] is set, record_size bytes,
  // (re)initialized by the callee. One pass expands the keys bucket by
  // bucket and walks the records once for all of them (B answers for one
  // sweep of memory traffic — §5.1's batching win). With a pool, row
  // shards each keep private leaves, tables and B accumulators,
  // tree-reduced at the end; the answers are identical either way.
  void AnswerBatch(const std::vector<dpf::SubtreeKey>& keys,
                   std::vector<Bytes>& answers,
                   ThreadPool* pool = nullptr) const;

 private:
  // A bucket's rows: rows_per_slab_ rows to a slab, in row order;
  // points[r] is row r's point in the bucket's sub-tree (its domain index
  // >> bucket_bits_).
  struct Bucket {
    std::vector<HugeBytes> slabs;
    std::vector<std::uint64_t> points;
  };
  // Rows of one slab that a chunk sweeps: rows[i * row_stride_] for i in
  // [0, count), whose selection bits start at bit `first` of the chunk's
  // planes. The sweep's prefetch runs on into `next` (next_count rows of
  // the chunk's next slab; none at the chunk's end).
  struct Run {
    const std::uint8_t* rows;
    std::size_t count;
    std::size_t first;
    const std::uint8_t* next;
    std::size_t next_count;
  };

  std::uint8_t* MutableRow(Bucket& bucket, std::size_t row);
  // XORs the run's rows selected by the chunk-order `plane` into acc
  // (record_size bytes). Returns the row XORs issued.
  std::uint64_t ScanRows(const std::uint64_t* plane, const Run& run,
                         std::uint8_t* acc) const;
  // Grouped-table scan of a run for nq ≥ 2 queries, whose chunk-order
  // planes lie plane_words apart in `planes`: XORs each row into its
  // groups' entries of `tables` (table_stride_ apart, zeroed by the caller
  // before a shard's first chunk), a block of rows and one column slice
  // per kernel call. Returns the row XORs issued.
  std::uint64_t ScanRowsGrouped(const std::uint64_t* planes,
                                std::size_t plane_words, std::size_t nq,
                                const Run& run, std::uint8_t* tables) const;
  // Folds a shard's tables into accs + q * row_stride() per query q, once
  // after the shard's last chunk.
  void FoldTables(std::size_t nq, const std::uint8_t* tables,
                  std::uint8_t* accs) const;
  // How many row shards a parallel scan should use (1 = serial).
  std::size_t ScanShards(ThreadPool* pool) const;

  int domain_bits_;
  int bucket_bits_;
  std::size_t record_size_;
  std::size_t row_stride_;
  std::size_t rows_per_slab_;
  // Bytes between the grouped scan's table entries: a row stride plus one
  // cache line (see kTableSkew in blob_db.cc).
  std::size_t table_stride_;
  std::vector<Bucket> buckets_;  // 2^bucket_bits_
  // index -> its row within bucket index mod 2^bucket_bits_
  std::unordered_map<std::uint64_t, std::size_t> index_of_;
};

// XorBytes / XorSliceMulti (the paper's "AVX ... accelerate the scan") live in
// pir/xor_kernel.h, re-exported here for the benches and tests that predate
// the runtime-dispatched tiers.

}  // namespace lw::pir
