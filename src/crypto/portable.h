// Portable bodies of the crypto kernels that have an accelerated path.
//
// Each dispatcher (Aes128, DpfPrg, ChaCha20Xor) picks its vector kernel
// from the CPU once per process and calls the function here when the CPU
// lacks the feature. The functions are public so that tests can run them
// on an accelerated host and check that both paths compute the same bytes;
// nothing else should call them. They are plain C++: no intrinsics, no
// secret-dependent branch or index.
#pragma once

#include <cstdint>

#include "crypto/aes128.h"
#include "crypto/prg.h"
#include "crypto/secret.h"
#include "util/bytes.h"

namespace lw::crypto::portable {

// Aes128::EncryptBlocks and Aes128::MmoBlocks in software rounds.
void AesEncryptBlocks(const Aes128& aes, const std::uint8_t* in,
                      std::uint8_t* out, std::size_t n);
void AesMmoBlocks(const Aes128& aes, const std::uint8_t* in,
                  std::uint8_t* out, std::size_t n);

// DpfPrg::ExpandLevel and DpfPrg::ConvertLeaves on the software AES above.
void DpfExpandLevel(const DpfPrg& prg, const std::uint8_t* seeds,
                    const std::uint8_t* ts, std::size_t n,
                    const std::uint8_t cw_seed[kPrgSeedSize],
                    std::uint8_t cw_t_left, std::uint8_t cw_t_right,
                    std::uint8_t* next, std::uint8_t* next_t);
void DpfConvertLeaves(const DpfPrg& prg, const std::uint8_t* seeds,
                      const std::uint8_t* ts, std::size_t n,
                      const std::uint8_t output_cw[kPrgSeedSize],
                      std::uint64_t* out);

// ChaCha20Xor one 64-byte block at a time (the block counter wraps mod
// 2^32, as in the vector path).
void ChaCha20Xor(LW_SECRET ByteSpan key, ByteSpan nonce,
                 std::uint32_t counter, MutableByteSpan data);

}  // namespace lw::crypto::portable
