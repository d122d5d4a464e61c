// ChaCha20-Poly1305 AEAD (RFC 8439).
//
// Used for (a) access-controlled lightweb content: publishers encrypt data
// blobs under per-epoch keys so the CDN stores only ciphertext (§3.3 of the
// paper), and (b) the enclave-mode ZLTP query channel.
#pragma once

#include <cstdint>

#include "crypto/secret.h"
#include "util/bytes.h"
#include "util/status.h"

namespace lw::crypto {

inline constexpr std::size_t kAeadKeySize = 32;
inline constexpr std::size_t kAeadNonceSize = 12;
inline constexpr std::size_t kAeadTagSize = 16;

// The in-place primitives work on a caller's buffer laid out as
// text || 16-byte tag (buffer.size() >= 16).
//
// Encrypts the buffer's first size - 16 bytes and writes their tag into
// the last 16.
void AeadSealInPlace(LW_SECRET ByteSpan key, ByteSpan nonce, ByteSpan aad,
                     MutableByteSpan buffer);

// Checks the tag in the buffer's last 16 bytes, then decrypts the rest in
// place. On a mismatch (or a buffer shorter than a tag) it returns
// PERMISSION_DENIED and leaves the buffer untouched.
Status AeadOpenInPlace(LW_SECRET ByteSpan key, ByteSpan nonce, ByteSpan aad,
                       MutableByteSpan buffer);

// Returns ciphertext || 16-byte tag (size = plaintext.size() + 16).
Bytes AeadSeal(LW_SECRET ByteSpan key, ByteSpan nonce, ByteSpan aad,
               ByteSpan plaintext);

// Verifies and decrypts; fails with PERMISSION_DENIED on tag mismatch.
Result<Bytes> AeadOpen(LW_SECRET ByteSpan key, ByteSpan nonce, ByteSpan aad,
                       ByteSpan ciphertext_and_tag);

}  // namespace lw::crypto
