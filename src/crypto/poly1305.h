// Poly1305 one-time authenticator (RFC 8439).
#pragma once

#include <cstdint>

#include "crypto/secret.h"
#include "util/bytes.h"

namespace lw::crypto {

inline constexpr std::size_t kPoly1305KeySize = 32;
inline constexpr std::size_t kPoly1305TagSize = 16;

// Computes the Poly1305 tag of `msg` under a 32-byte one-time key.
void Poly1305(LW_SECRET ByteSpan key, ByteSpan msg,
              std::uint8_t tag[kPoly1305TagSize]);

// Incremental interface (the AEAD feeds AAD, ciphertext, and lengths).
class Poly1305State {
 public:
  explicit Poly1305State(LW_SECRET ByteSpan key);
  void Update(ByteSpan data);
  void Finish(std::uint8_t tag[kPoly1305TagSize]);

 private:
  // Limbs of 44, 44 and 42 bits: x = x[0] + x[1]·2^44 + x[2]·2^88.
  std::uint64_t r_[3];
  std::uint64_t h_[3] = {0, 0, 0};
  std::uint64_t pad_[2];
  std::uint8_t buf_[16];
  std::size_t buffered_ = 0;
};

}  // namespace lw::crypto
