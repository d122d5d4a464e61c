// Length-doubling PRG used by the DPF tree construction.
//
// G(s) -> (s_L, t_L, s_R, t_R): each 16-byte seed expands into a left and a
// right 16-byte child seed plus one control bit per side. Expansion is
// fixed-key AES-128 in Matyas–Meyer–Oseas mode with two distinct public keys
// (one per side); the child's low bit becomes the control bit and is cleared
// from the seed. A third public key converts an early-terminated tree's leaf
// seeds into 128 output bits each. Fixed-key AES-MMO is the standard
// high-throughput choice for FSS implementations (it is correlation-robust
// under the ideal-cipher heuristic), and is what makes the per-query linear
// scan in the paper's §5.1 microbenchmark feasible.
#pragma once

#include <cstdint>

#include "crypto/aes128.h"
#include "util/bytes.h"

namespace lw::crypto {

inline constexpr std::size_t kPrgSeedSize = 16;

class DpfPrg {
 public:
  DpfPrg();

  // Expands n seeds: left[i] / right[i] receive the child seeds with control
  // bits already cleared; the bits land in t_left/t_right (one byte each,
  // value 0 or 1). Buffers are n*16 bytes (seeds may not alias outputs).
  void ExpandBatch(const std::uint8_t* seeds, std::size_t n,
                   std::uint8_t* left, std::uint8_t* right,
                   std::uint8_t* t_left, std::uint8_t* t_right) const;

  // Single-seed convenience wrapper.
  void Expand(const std::uint8_t seed[kPrgSeedSize],
              std::uint8_t left[kPrgSeedSize],
              std::uint8_t right[kPrgSeedSize], std::uint8_t* t_left,
              std::uint8_t* t_right) const;

  // Leaf conversion: out[i] receives 128 pseudorandom output bits derived
  // from seeds[i] (AES-MMO under a key independent of the expansion keys).
  // Buffers are n*16 bytes.
  void ConvertBatch(const std::uint8_t* seeds, std::size_t n,
                    std::uint8_t* out) const;

  // One DPF tree level in one pass: n parent seeds and control bits ts
  // become 2n children, laid out [left || right] in next (2n*16 bytes) and
  // next_t (2n bytes). A child is its side's AES-MMO of the parent with the
  // control bit split off, XORed with cw_seed and its side's cw_t bit
  // wherever the parent's control bit is set. On AES-NI four parents' two
  // sides run as eight blocks in flight; the correction is branch-free.
  void ExpandLevel(const std::uint8_t* seeds, const std::uint8_t* ts,
                   std::size_t n, const std::uint8_t cw_seed[kPrgSeedSize],
                   std::uint8_t cw_t_left, std::uint8_t cw_t_right,
                   std::uint8_t* next, std::uint8_t* next_t) const;

  // Leaf conversion with the output correction, in one pass: leaf i's 128
  // output bits, XORed with output_cw wherever ts[i] is set, land as two
  // little-endian words at out[2i] (bits 0-63) and out[2i + 1] (bits
  // 64-127).
  void ConvertLeaves(const std::uint8_t* seeds, const std::uint8_t* ts,
                     std::size_t n, const std::uint8_t output_cw[kPrgSeedSize],
                     std::uint64_t* out) const;

  // The three fixed-key ciphers, for the portable kernels
  // (crypto/portable.h).
  const Aes128& left_cipher() const { return aes_left_; }
  const Aes128& right_cipher() const { return aes_right_; }
  const Aes128& convert_cipher() const { return aes_convert_; }

 private:
  Aes128 aes_left_;
  Aes128 aes_right_;
  Aes128 aes_convert_;
};

// Process-wide PRG instance (the keys are fixed public constants, so one
// instance serves every DPF in the process).
const DpfPrg& SharedDpfPrg();

}  // namespace lw::crypto
