#include "oram/enclave.h"

#include <cstring>

#include "crypto/aead.h"
#include "crypto/hkdf.h"
#include "crypto/secret.h"
#include "crypto/x25519.h"
#include "util/check.h"
#include "util/rand.h"

namespace lw::oram {
namespace {

constexpr char kChannelInfo[] = "zltp/enclave-channel";
constexpr char kRequestAad[] = "zltp-enclave-get";
constexpr char kResponseAad[] = "zltp-enclave-resp";

Bytes DeriveChannelKey(ByteSpan shared_secret) {
  return crypto::Hkdf(shared_secret, /*salt=*/{}, kChannelInfo,
                      crypto::kAeadKeySize);
}

// ORAM block layout: [u32 value length][value][zero pad].
std::size_t BlockSizeFor(std::size_t value_size) { return 4 + value_size; }

}  // namespace

// ------------------------------------------------------------- client

EnclaveClient::EnclaveClient(ByteSpan enclave_public_key)
    : enclave_public_(enclave_public_key.begin(), enclave_public_key.end()) {
  LW_CHECK_MSG(enclave_public_.size() == crypto::kX25519KeySize,
               "enclave public key must be 32 bytes");
}

Bytes EnclaveClient::SealGetRequest(std::string_view key) {
  const crypto::X25519KeyPair eph = crypto::X25519Generate();
  const Bytes shared =
      crypto::X25519SharedSecret(eph.private_key, enclave_public_);
  last_channel_key_ = DeriveChannelKey(shared);

  const Bytes nonce = SecureRandom(crypto::kAeadNonceSize);
  Bytes out = eph.public_key;
  out.insert(out.end(), nonce.begin(), nonce.end());
  const Bytes ct = crypto::AeadSeal(last_channel_key_, nonce,
                                    ToBytes(kRequestAad), ToBytes(key));
  out.insert(out.end(), ct.begin(), ct.end());
  return out;
}

Result<Bytes> EnclaveClient::OpenResponse(ByteSpan response) {
  if (last_channel_key_.empty()) {
    return FailedPreconditionError("no request in flight");
  }
  if (response.size() < crypto::kAeadNonceSize) {
    return ProtocolError("enclave response too short");
  }
  const ByteSpan nonce = response.first(crypto::kAeadNonceSize);
  Bytes plain(response.begin() + crypto::kAeadNonceSize, response.end());
  LW_RETURN_IF_ERROR(crypto::AeadOpenInPlace(
      last_channel_key_, nonce, ToBytes(kResponseAad), plain));
  // plain is status || u32 length || value || pad || tag.
  if (plain.size() < 5 + crypto::kAeadTagSize) {
    return ProtocolError("malformed enclave response");
  }
  const std::uint8_t status = plain[0];
  if (status == 0) return NotFoundError("key not present in enclave store");
  const std::uint32_t len = LoadLE32(plain.data() + 1);
  if (len > plain.size() - 5 - crypto::kAeadTagSize) {
    return ProtocolError("enclave response length field corrupt");
  }
  plain.erase(plain.begin(), plain.begin() + 5);
  plain.resize(len);
  return plain;
}

// ------------------------------------------------------------- enclave

std::size_t KvEnclave::RequiredStorageBuckets(const EnclaveConfig& config) {
  PathOramConfig oc;
  oc.capacity = config.capacity;
  oc.block_size = BlockSizeFor(config.value_size);
  return RequiredBucketCount(oc);
}

KvEnclave::KvEnclave(const EnclaveConfig& config, UntrustedStorage& storage)
    : config_(config),
      oram_key_(SecureRandom(crypto::kAeadKeySize)),
      oram_(PathOramConfig{config.capacity, BlockSizeFor(config.value_size), 4},
            storage, oram_key_) {
  const crypto::X25519KeyPair kp = crypto::X25519Generate();
  private_key_ = kp.private_key;
  public_key_ = kp.public_key;
}

Status KvEnclave::Put(LW_SECRET std::string_view key, ByteSpan value) {
  if (value.size() > config_.value_size) {
    return InvalidArgumentError("value exceeds fixed blob size");
  }
  std::uint64_t block;
  // The key->block map is enclave-private and update-vs-insert is masked
  // downstream: both paths perform exactly one ORAM write, so the host
  // learns nothing from this lookup's outcome.
  // lwlint: allow(secret-taint-call, secret-taint)
  const auto it = block_of_.find(std::string(key));
  if (it != block_of_.end()) {
    block = it->second;
  } else {
    if (next_block_ >= config_.capacity) {
      return ResourceExhaustedError("enclave store full");
    }
    block = next_block_++;
    block_of_.emplace(std::string(key), block);
  }
  Bytes padded(BlockSizeFor(config_.value_size), 0);
  StoreLE32(padded.data(), static_cast<std::uint32_t>(value.size()));
  std::copy(value.begin(), value.end(), padded.begin() + 4);
  return oram_.Write(block, padded);
}

Result<Bytes> KvEnclave::LookupInsideEnclave(LW_SECRET std::string_view key) {
  // Enclave-private map lookup; a miss is masked by the dummy ORAM access
  // below and a fixed-size response, so the outcome is deliberately
  // declassified inside the enclave.
  // lwlint: allow(secret-taint-call, secret-taint)
  const auto it = block_of_.find(std::string(key));
  if (it == block_of_.end()) {
    // Miss: perform a dummy ORAM access so the host-visible pattern is
    // identical to a hit.
    oram_.DummyAccess();
    return NotFoundError("no such key");
  }
  return oram_.Read(it->second);
}

Result<Bytes> KvEnclave::HandleEncryptedRequest(ByteSpan request) {
  if (request.size() < crypto::kX25519KeySize + crypto::kAeadNonceSize) {
    return ProtocolError("enclave request too short");
  }
  const ByteSpan client_pub = request.first(crypto::kX25519KeySize);
  const ByteSpan nonce =
      request.subspan(crypto::kX25519KeySize, crypto::kAeadNonceSize);
  const Bytes shared = crypto::X25519SharedSecret(private_key_, client_pub);
  const Bytes channel_key = DeriveChannelKey(shared);

  LW_ASSIGN_OR_RETURN(
      LW_SECRET Bytes key_bytes,
      crypto::AeadOpen(channel_key, nonce, ToBytes(kRequestAad),
                       request.subspan(crypto::kX25519KeySize +
                                       crypto::kAeadNonceSize)));
  const std::string key = ToString(key_bytes);

  // Fixed-size response regardless of hit/miss, so the host cannot
  // distinguish outcomes by length: nonce || status || u32 length || value
  // || zero pad || tag, sealed in place.
  constexpr std::size_t kHeader = crypto::kAeadNonceSize + 5;
  Bytes out(kHeader + config_.value_size + crypto::kAeadTagSize, 0);
  auto looked_up = LookupInsideEnclave(key);
  if (looked_up.ok()) {
    out[crypto::kAeadNonceSize] = 1;
    const std::uint32_t len = LoadLE32(looked_up->data());
    StoreLE32(out.data() + crypto::kAeadNonceSize + 1, len);
    std::copy(looked_up->begin() + 4, looked_up->end(),
              out.begin() + kHeader);
    // Hit/miss steers only the contents of the fixed-size encrypted
    // response, which the host cannot read. lwlint: allow(secret-taint-branch)
  } else if (looked_up.status().code() != StatusCode::kNotFound) {
    return looked_up.status();
  }

  const MutableByteSpan buf(out);
  const MutableByteSpan resp_nonce = buf.first(crypto::kAeadNonceSize);
  SecureRandomBytes(resp_nonce);
  crypto::AeadSealInPlace(channel_key, resp_nonce, ToBytes(kResponseAad),
                          buf.subspan(crypto::kAeadNonceSize));
  return out;
}

}  // namespace lw::oram
