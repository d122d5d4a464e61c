// Keyword-to-index mapping for keyword PIR.
//
// ZLTP keys are arbitrary strings (lightweb paths); the DPF works over a
// dense domain 2^d. A universe-wide SipHash seed maps every key to a domain
// index (paper §5.1 sets d = 22 so that ~2^20 keys collide with probability
// ≤ 1/4 at capacity). The server-side registry detects collisions at publish
// time and rejects them, matching the paper's "the publisher can simply
// select another key name".
//
// A second, independently derived SipHash key produces a 64-bit fingerprint
// stored inside each record so the client can detect silent collisions or
// absent keys without trusting the server.
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/bytes.h"
#include "util/status.h"

namespace lw::pir {

class KeywordMapper {
 public:
  // `seed` is the 16-byte universe seed (distributed in the ServerHello).
  KeywordMapper(ByteSpan seed, int domain_bits);

  int domain_bits() const { return domain_bits_; }
  const Bytes& seed() const { return seed_; }

  // Domain index of a key: SipHash(seed, key) reduced mod 2^d.
  std::uint64_t IndexOf(std::string_view key) const;

  // 64-bit fingerprint embedded in packed records (independent SipHash key).
  std::uint64_t Fingerprint(std::string_view key) const;

 private:
  Bytes seed_;      // 16 bytes, index hashing
  Bytes fp_seed_;   // 16 bytes, fingerprint hashing (derived)
  int domain_bits_;
};

// Server-side registry tracking which key owns which index, to reject
// collisions at publish time.
class KeywordRegistry {
 public:
  KeywordRegistry(ByteSpan seed, int domain_bits);

  const KeywordMapper& mapper() const { return mapper_; }

  // Registers a key; returns its index, or COLLISION if a *different* key
  // already occupies that index (re-registering the same key is idempotent).
  Result<std::uint64_t> Register(std::string_view key);

  Status Unregister(std::string_view key);

  // The key occupying an index, if any.
  Result<std::string> KeyAt(std::uint64_t index) const;

  bool IsRegistered(std::string_view key) const;
  std::size_t size() const { return owner_.size(); }

  // Every registered key (order unspecified). Used by universe peering.
  std::vector<std::string> AllKeys() const;

 private:
  KeywordMapper mapper_;
  std::unordered_map<std::uint64_t, std::string> owner_;  // index -> key
};

}  // namespace lw::pir
