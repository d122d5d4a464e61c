#include "crypto/aead.h"

#include <algorithm>

#include "crypto/chacha20.h"
#include "crypto/ct.h"
#include "crypto/poly1305.h"
#include "util/check.h"

namespace lw::crypto {
namespace {

constexpr std::uint8_t kZeros[16] = {0};

void ComputeTag(LW_SECRET ByteSpan key, ByteSpan nonce, ByteSpan aad,
                ByteSpan ct, std::uint8_t tag[16]) {
  // The one-time Poly1305 key is the first half of keystream block 0.
  std::uint8_t block[64];
  ChaCha20Block(key, nonce, 0, block);
  Poly1305State mac(ByteSpan(block, kPoly1305KeySize));
  mac.Update(aad);
  if (aad.size() % 16 != 0) {
    mac.Update(ByteSpan(kZeros, 16 - aad.size() % 16));
  }
  mac.Update(ct);
  if (ct.size() % 16 != 0) {
    mac.Update(ByteSpan(kZeros, 16 - ct.size() % 16));
  }
  std::uint8_t lengths[16];
  lw::StoreLE64(lengths, aad.size());
  lw::StoreLE64(lengths + 8, ct.size());
  mac.Update(ByteSpan(lengths, 16));
  mac.Finish(tag);
}

}  // namespace

void AeadSealInPlace(ByteSpan key, ByteSpan nonce, ByteSpan aad,
                     MutableByteSpan buffer) {
  LW_CHECK(key.size() == kAeadKeySize);
  LW_CHECK(nonce.size() == kAeadNonceSize);
  LW_CHECK(buffer.size() >= kAeadTagSize);
  const MutableByteSpan text = buffer.first(buffer.size() - kAeadTagSize);
  ChaCha20Xor(key, nonce, 1, text);
  ComputeTag(key, nonce, aad, text, buffer.last(kAeadTagSize).data());
}

Status AeadOpenInPlace(ByteSpan key, ByteSpan nonce, ByteSpan aad,
                       MutableByteSpan buffer) {
  LW_CHECK(key.size() == kAeadKeySize);
  LW_CHECK(nonce.size() == kAeadNonceSize);
  if (buffer.size() < kAeadTagSize) {
    return PermissionDeniedError("ciphertext shorter than tag");
  }
  const MutableByteSpan text = buffer.first(buffer.size() - kAeadTagSize);
  std::uint8_t expected[16];
  ComputeTag(key, nonce, aad, text, expected);
  // Verify before decrypting: a forged buffer is never touched.
  if (!ct::Eq(ByteSpan(expected, 16), buffer.last(kAeadTagSize))) {
    return PermissionDeniedError("AEAD tag mismatch");
  }
  ChaCha20Xor(key, nonce, 1, text);
  return Status::Ok();
}

Bytes AeadSeal(ByteSpan key, ByteSpan nonce, ByteSpan aad,
               ByteSpan plaintext) {
  Bytes out(plaintext.size() + kAeadTagSize);
  std::copy(plaintext.begin(), plaintext.end(), out.begin());
  AeadSealInPlace(key, nonce, aad, out);
  return out;
}

Result<Bytes> AeadOpen(ByteSpan key, ByteSpan nonce, ByteSpan aad,
                       ByteSpan ciphertext_and_tag) {
  Bytes out(ciphertext_and_tag.begin(), ciphertext_and_tag.end());
  LW_RETURN_IF_ERROR(AeadOpenInPlace(key, nonce, aad, out));
  out.resize(out.size() - kAeadTagSize);
  return out;
}

}  // namespace lw::crypto
