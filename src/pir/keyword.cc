#include "pir/keyword.h"

#include "crypto/hkdf.h"
#include "crypto/siphash.h"
#include "util/check.h"

namespace lw::pir {

KeywordMapper::KeywordMapper(ByteSpan seed, int domain_bits)
    : seed_(seed.begin(), seed.end()), domain_bits_(domain_bits) {
  LW_CHECK_MSG(seed.size() == crypto::kSipHashKeySize,
               "keyword seed must be 16 bytes");
  LW_CHECK_MSG(domain_bits >= 1 && domain_bits <= 63,
               "domain_bits out of range");
  fp_seed_ = crypto::Hkdf(seed_, /*salt=*/{}, "lightweb/keyword-fingerprint",
                          crypto::kSipHashKeySize);
}

std::uint64_t KeywordMapper::IndexOf(std::string_view key) const {
  const std::uint64_t h = crypto::SipHash24(seed_, ToBytes(key));
  return h & ((std::uint64_t{1} << domain_bits_) - 1);
}

std::uint64_t KeywordMapper::Fingerprint(std::string_view key) const {
  return crypto::SipHash24(fp_seed_, ToBytes(key));
}

KeywordRegistry::KeywordRegistry(ByteSpan seed, int domain_bits)
    : mapper_(seed, domain_bits) {}

Result<std::uint64_t> KeywordRegistry::Register(std::string_view key) {
  const std::uint64_t index = mapper_.IndexOf(key);
  const auto it = owner_.find(index);
  if (it != owner_.end()) {
    if (it->second == key) return index;  // idempotent
    return CollisionError("keys '" + it->second + "' and '" +
                          std::string(key) + "' hash to the same index");
  }
  owner_.emplace(index, std::string(key));
  return index;
}

Status KeywordRegistry::Unregister(std::string_view key) {
  const std::uint64_t index = mapper_.IndexOf(key);
  const auto it = owner_.find(index);
  if (it == owner_.end() || it->second != key) {
    return NotFoundError("key not registered");
  }
  owner_.erase(it);
  return Status::Ok();
}

Result<std::string> KeywordRegistry::KeyAt(std::uint64_t index) const {
  const auto it = owner_.find(index);
  if (it == owner_.end()) return NotFoundError("index unoccupied");
  return it->second;
}

bool KeywordRegistry::IsRegistered(std::string_view key) const {
  const auto it = owner_.find(mapper_.IndexOf(key));
  return it != owner_.end() && it->second == key;
}

std::vector<std::string> KeywordRegistry::AllKeys() const {
  std::vector<std::string> keys;
  keys.reserve(owner_.size());
  for (const auto& [index, key] : owner_) keys.push_back(key);
  return keys;
}

}  // namespace lw::pir
