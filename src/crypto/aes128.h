// AES-128 block cipher (encryption direction only).
//
// The DPF pseudorandom generator and the MMO hash below need raw single-block
// AES with a fixed key evaluated millions of times per query, so this class
// exposes a batch interface that pipelines AES-NI rounds across independent
// blocks. A portable software implementation is selected at runtime on CPUs
// without AES-NI.
//
// This is NOT a general-purpose encryption API — use crypto/aead.h for
// authenticated encryption of actual data.
#pragma once

#include <cstdint>

#include "util/bytes.h"

namespace lw::crypto {

inline constexpr std::size_t kAesBlockSize = 16;
inline constexpr std::size_t kAes128KeySize = 16;

class Aes128 {
 public:
  // `key` must be exactly 16 bytes.
  explicit Aes128(ByteSpan key);

  // out = AES(key, in). `in` and `out` may alias.
  void EncryptBlock(const std::uint8_t in[kAesBlockSize],
                    std::uint8_t out[kAesBlockSize]) const;

  // Encrypts `n` independent blocks (pipelined when AES-NI is available).
  // in/out are n*16 bytes and may alias element-wise.
  void EncryptBlocks(const std::uint8_t* in, std::uint8_t* out,
                     std::size_t n) const;

  // Matyas–Meyer–Oseas one-way compression: out[i] = AES(key, in[i]) ^ in[i].
  // This is the PRG expansion step used by the DPF layer (fixed-key AES is a
  // correlation-robust hash under standard assumptions).
  void MmoBlocks(const std::uint8_t* in, std::uint8_t* out,
                 std::size_t n) const;

  // True when the fast AES-NI path is in use (for diagnostics/benchmarks).
  static bool HasHardwareSupport();

  // The expanded key schedule, for kernels that run their own AES-NI
  // rounds (the DPF level kernel, crypto/prg.cc).
  const std::uint8_t (&round_keys() const)[11][kAesBlockSize] {
    return round_keys_;
  }

 private:
  alignas(16) std::uint8_t round_keys_[11][kAesBlockSize];
};

}  // namespace lw::crypto
