#include "pir/packing.h"

#include "util/io.h"

namespace lw::pir {

Result<Bytes> PackRecord(std::uint64_t fingerprint, ByteSpan payload,
                         std::size_t record_size) {
  if (record_size < kRecordHeaderSize) {
    return InvalidArgumentError("record_size smaller than header");
  }
  if (payload.size() > MaxPayloadSize(record_size)) {
    return InvalidArgumentError(
        "payload of " + std::to_string(payload.size()) +
        " bytes does not fit in record of " + std::to_string(record_size));
  }
  Bytes out(record_size, 0);
  StoreLE64(out.data(), fingerprint);
  StoreLE32(out.data() + 8, static_cast<std::uint32_t>(payload.size()));
  std::copy(payload.begin(), payload.end(),
            out.begin() + static_cast<std::ptrdiff_t>(kRecordHeaderSize));
  return out;
}

Result<UnpackedRecord> UnpackRecord(ByteSpan record) {
  if (record.size() < kRecordHeaderSize) {
    return ProtocolError("record shorter than header");
  }
  UnpackedRecord out;
  out.fingerprint = LoadLE64(record.data());
  const std::uint32_t len = LoadLE32(record.data() + 8);
  if (len > record.size() - kRecordHeaderSize) {
    return ProtocolError("record payload length exceeds record size");
  }
  out.payload.assign(record.begin() + kRecordHeaderSize,
                     record.begin() + kRecordHeaderSize + len);
  return out;
}

Result<Bytes> InterpretRecord(ByteSpan record,
                              std::uint64_t expected_fingerprint) {
  LW_ASSIGN_OR_RETURN(UnpackedRecord un, UnpackRecord(record));
  if (un.fingerprint == 0 && un.payload.empty()) {
    return NotFoundError("key not published in this universe");
  }
  if (un.fingerprint != expected_fingerprint) {
    return CollisionError(
        "record at this index belongs to a different key (hash collision)");
  }
  return std::move(un.payload);
}

}  // namespace lw::pir
