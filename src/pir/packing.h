// Record packing for fixed-size ZLTP blobs.
//
// Layout: [u64 key-fingerprint][u32 payload length][payload][zero padding],
// total exactly record_size bytes. The fingerprint lets a client verify it
// received the record for the key it asked for (detecting hash collisions
// and absences — an all-zero record unpacks to fingerprint 0, length 0).
#pragma once

#include <cstdint>

#include "util/bytes.h"
#include "util/status.h"

namespace lw::pir {

inline constexpr std::size_t kRecordHeaderSize = 12;

// Maximum payload a record of `record_size` can carry.
inline std::size_t MaxPayloadSize(std::size_t record_size) {
  return record_size > kRecordHeaderSize ? record_size - kRecordHeaderSize : 0;
}

// Packs a payload into a record of exactly `record_size` bytes.
// Fails if the payload does not fit.
Result<Bytes> PackRecord(std::uint64_t fingerprint, ByteSpan payload,
                         std::size_t record_size);

struct UnpackedRecord {
  std::uint64_t fingerprint = 0;
  Bytes payload;
};

// Unpacks a record. Fails on malformed length fields (e.g. a corrupted XOR
// reconstruction after an undetected collision).
Result<UnpackedRecord> UnpackRecord(ByteSpan record);

// Client-side reading of the record a keyword GET reconstructed: an empty
// slot (an all-zero record: fingerprint 0, length 0) is NOT_FOUND, a record
// carrying another key's fingerprint is COLLISION, and otherwise the payload
// is returned.
Result<Bytes> InterpretRecord(ByteSpan record,
                              std::uint64_t expected_fingerprint);

}  // namespace lw::pir
