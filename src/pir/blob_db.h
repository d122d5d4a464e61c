// Fixed-size-record blob database with DPF-selected XOR scans.
//
// This is the data structure a ZLTP data server scans per request (paper
// §5.1): records live at sparse indices of the DPF output domain 2^d; an
// answer XORs every record whose DPF evaluation bit is set into a single
// record-sized accumulator. Batched answering amortizes the scan: one pass
// over the data serves B queries, which is exactly the latency/throughput
// trade the paper's batching microbenchmark measures.
//
// Storage is cache-line friendly: rows are padded to a 64-byte stride in a
// 64-byte-aligned (hugepage-advised above 2 MiB) arena, so every row starts
// on a cache line and the runtime-dispatched XOR kernels (scalar/AVX2/
// AVX-512, see pir/xor_kernel.h) run on aligned addresses.
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
// Either way, a pass first projects each query's DPF bits onto the stored
// rows, one pool task per query: rows sit at random domain indices, and
// the sweep then reads the bits in row order from packed planes instead
// of making a random read per query and row. With a ThreadPool the scan
// runs one shard per worker, each with private tables and accumulators;
// the shards claim row chunks from a shared cursor, so a slow worker's
// rows go to the others, and a tree reduction combines the shards (the
// multi-core server of §5.1).
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
  // Start of a stored row; always 64-byte aligned (tests/benches assert
  // this to keep the XOR kernel on its aligned path).
  const std::uint8_t* row_data(std::size_t row) const {
    return records_.data() + row * row_stride_;
  }

  // Inserts a record at a domain index. Fails with COLLISION if the index is
  // occupied (the paper: "the publisher can simply select another key name").
  // `record` must be exactly record_size bytes.
  Status Insert(std::uint64_t index, ByteSpan record);

  // Replaces the record at an occupied index (publisher content updates).
  Status Update(std::uint64_t index, ByteSpan record);

  // Inserts or replaces.
  Status Upsert(std::uint64_t index, ByteSpan record);

  Status Remove(std::uint64_t index);
  bool Contains(std::uint64_t index) const;

  // Direct (non-private) read, used by tests and the publisher pipeline.
  Result<Bytes> Get(std::uint64_t index) const;

  // PIR answer: XOR of all records whose bit is set in `bits` (a packed
  // 2^domain_bits bit vector from dpf::EvalFull). `out` must be
  // record_size bytes and is overwritten. With a pool, the row range is
  // sharded across workers (identical output — XOR is associative).
  void Answer(const dpf::BitVector& bits, MutableByteSpan out,
              ThreadPool* pool = nullptr) const;

  // Batched PIR answer: a single pass walks the records once and applies
  // every query's selection bit per record (B answers for one sweep of
  // memory traffic — §5.1's batching win). answers[q] are each
  // record_size bytes, (re)initialized by the callee. With a pool, row
  // shards each keep private tables and B accumulators, tree-reduced at
  // the end.
  void AnswerBatch(const std::vector<dpf::BitVector>& queries,
                   std::vector<Bytes>& answers,
                   ThreadPool* pool = nullptr) const;

 private:
  // One scan pass for nq ≥ 1 queries: bits[q] is query q's packed
  // selection vector, and its answer (record_size bytes) lands at outs[q].
  // The pass first projects every query's bits onto the rows (Project);
  // then row shards claim row chunks and run ScanRows on them for one
  // query, ScanRowsGrouped for more.
  void Scan(const std::uint64_t* const* bits, std::uint8_t* const* outs,
            std::size_t nq, ThreadPool* pool) const;
  // Writes bit slot_index_[r] of the domain vector `bits` to bit r of
  // `plane` for every stored row r, in row order: ⌈record_count/64⌉
  // words, the last one zero-padded.
  void Project(const std::uint64_t* bits, std::uint64_t* plane) const;
  // XORs rows [row_begin, row_end) selected by the row-order `plane` into
  // acc (record_size bytes). Returns the row XORs issued.
  std::uint64_t ScanRows(const std::uint64_t* plane, std::size_t row_begin,
                         std::size_t row_end, std::uint8_t* acc) const;
  // Grouped-table scan of rows [row_begin, row_end) for nq ≥ 2 queries,
  // whose row-order planes lie plane_words apart in `planes`: XORs each
  // row into its groups' entries of `tables` (table_stride_ apart, zeroed
  // by the caller before a shard's first chunk), a block of rows and one
  // column slice per kernel call. Returns the row XORs issued.
  std::uint64_t ScanRowsGrouped(const std::uint64_t* planes,
                                std::size_t plane_words, std::size_t nq,
                                std::size_t row_begin, std::size_t row_end,
                                std::uint8_t* tables) const;
  // Folds a shard's tables into accs + q * row_stride() per query q, once
  // after the shard's last chunk.
  void FoldTables(std::size_t nq, const std::uint8_t* tables,
                  std::uint8_t* accs) const;
  // How many row shards a parallel scan should use (1 = serial).
  std::size_t ScanShards(ThreadPool* pool) const;

  int domain_bits_;
  std::size_t record_size_;
  std::size_t row_stride_;
  // Bytes between the grouped scan's table entries: a row stride plus one
  // cache line (see kTableSkew in blob_db.cc).
  std::size_t table_stride_;
  // Dense row storage: records_ holds record_count rows back to back in
  // insertion order (64-byte aligned, row_stride_ apart); slot_index_[row]
  // is the domain index of that row. Arenas ≥ 2 MiB are hugepage-advised
  // (see util/alloc.h) so a full-shard scan stays TLB-cheap.
  HugeBytes records_;
  std::vector<std::uint64_t> slot_index_;
  std::unordered_map<std::uint64_t, std::size_t> index_of_;  // index -> row
};

// XorBytes / XorSliceMulti (the paper's "AVX ... accelerate the scan") live in
// pir/xor_kernel.h, re-exported here for the benches and tests that predate
// the runtime-dispatched tiers.

}  // namespace lw::pir
