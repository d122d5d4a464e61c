#include "lightweb/channel.h"

#include "pir/keyword.h"
#include "pir/packing.h"
#include "pir/two_server.h"
#include "util/rand.h"

namespace lw::lightweb {

Result<std::vector<Result<Bytes>>> BlobChannel::FetchPage(
    const std::vector<std::string>& keys, int dummies) {
  std::vector<Result<Bytes>> out;
  out.reserve(keys.size());
  for (const std::string& key : keys) {
    out.push_back(PrivateGet(key));
  }
  for (int i = 0; i < dummies; ++i) {
    LW_RETURN_IF_ERROR(DummyGet());
  }
  return out;
}

// -------------------------------------------------- InProcessPirChannel

InProcessPirChannel::InProcessPirChannel(const zltp::PirStore& store)
    : store_(store) {}

Result<Bytes> InProcessPirChannel::GetIndex(std::uint64_t index,
                                            Bytes* out_record) {
  ++queries_;
  const pir::QueryKeys q = pir::MakeIndexQuery(index, store_.domain_bits());
  // Both logical servers answer (the second replica is the same store).
  LW_ASSIGN_OR_RETURN(const Bytes a0, store_.AnswerQuery(q.key0));
  LW_ASSIGN_OR_RETURN(const Bytes a1, store_.AnswerQuery(q.key1));
  LW_ASSIGN_OR_RETURN(*out_record, pir::CombineAnswers(a0, a1));
  return *out_record;
}

Result<Bytes> InProcessPirChannel::PrivateGet(std::string_view key) {
  const std::uint64_t index = store_.mapper().IndexOf(key);
  Bytes record;
  LW_RETURN_IF_ERROR(GetIndex(index, &record).status());
  return pir::InterpretRecord(record, store_.mapper().Fingerprint(key));
}

Status InProcessPirChannel::DummyGet() {
  std::uint8_t buf[8];
  SecureRandomBytes(MutableByteSpan(buf, 8));
  const std::uint64_t index =
      LoadLE64(buf) & ((std::uint64_t{1} << store_.domain_bits()) - 1);
  Bytes record;
  auto r = GetIndex(index, &record);
  if (!r.ok()) return r.status();
  return Status::Ok();
}

std::size_t InProcessPirChannel::record_size() const {
  return store_.record_size();
}

// ---------------------------------------------------------- ZltpChannel

ZltpChannel::ZltpChannel(std::unique_ptr<zltp::Session> session)
    : session_(std::move(session)) {}

Result<Bytes> ZltpChannel::PrivateGet(std::string_view key) {
  return session_->PrivateGet(key);
}

Status ZltpChannel::DummyGet() { return session_->DummyGet(); }

std::size_t ZltpChannel::record_size() const {
  return session_->record_size();
}

std::uint64_t ZltpChannel::observed_queries() const {
  return session_->traffic().requests;
}

Result<std::vector<Result<Bytes>>> ZltpChannel::FetchPage(
    const std::vector<std::string>& keys, int dummies) {
  return session_->PrivateGetBatch(keys, dummies);
}

}  // namespace lw::lightweb
