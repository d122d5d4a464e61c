// Crypto substrate tests against published test vectors (FIPS 197,
// RFC 8439, RFC 4231, RFC 5869, RFC 7748, SipHash reference vectors)
// plus structural/property tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "crypto/aead.h"
#include "crypto/aes128.h"
#include "crypto/chacha20.h"
#include "crypto/ct.h"
#include "crypto/hkdf.h"
#include "crypto/poly1305.h"
#include "crypto/portable.h"
#include "crypto/prg.h"
#include "crypto/sha256.h"
#include "crypto/siphash.h"
#include "crypto/x25519.h"
#include "util/hex.h"
#include "util/rand.h"

namespace lw::crypto {
namespace {

Bytes FromHex(std::string_view h) {
  auto r = HexDecode(h);
  EXPECT_TRUE(r.ok()) << h;
  return *r;
}

// ----------------------------------------------------- constant-time ops

TEST(Ct, Masks) {
  EXPECT_EQ(ct::NonzeroMask(0), 0u);
  EXPECT_EQ(ct::NonzeroMask(1), ~std::uint64_t{0});
  EXPECT_EQ(ct::NonzeroMask(~std::uint64_t{0}), ~std::uint64_t{0});
  EXPECT_EQ(ct::ZeroMask(0), ~std::uint64_t{0});
  EXPECT_EQ(ct::ZeroMask(42), 0u);
  EXPECT_EQ(ct::EqMask(7, 7), ~std::uint64_t{0});
  EXPECT_EQ(ct::EqMask(7, 8), 0u);
  EXPECT_EQ(ct::MaskFromBit32(0), 0u);
  EXPECT_EQ(ct::MaskFromBit32(1), ~std::uint32_t{0});
}

TEST(Ct, Select) {
  EXPECT_EQ(ct::Select(~std::uint64_t{0}, 11, 22), 11u);
  EXPECT_EQ(ct::Select(0, 11, 22), 22u);
  EXPECT_EQ(ct::Select32(~std::uint32_t{0}, 11, 22), 11u);
  EXPECT_EQ(ct::Select32(0, 11, 22), 22u);
}

TEST(Ct, Eq) {
  EXPECT_TRUE(ct::Eq(ToBytes("abc"), ToBytes("abc")));
  EXPECT_FALSE(ct::Eq(ToBytes("abc"), ToBytes("abd")));
  EXPECT_FALSE(ct::Eq(ToBytes("abc"), ToBytes("abcd")));
  EXPECT_TRUE(ct::Eq({}, {}));
  // Differences in any position are caught (no early-exit shortcuts).
  for (std::size_t i = 0; i < 32; ++i) {
    Bytes a(32, 0x5a), b(32, 0x5a);
    b[i] ^= 0x01;
    EXPECT_FALSE(ct::Eq(a, b)) << i;
    EXPECT_EQ(ct::EqBytesMask(a, b), 0u) << i;
  }
}

TEST(Ct, CondAssign) {
  Bytes dst = ToBytes("xxxx");
  ct::CondAssign(0, dst, ToBytes("yyyy"));
  EXPECT_EQ(ToString(dst), "xxxx");
  ct::CondAssign(~std::uint64_t{0}, dst, ToBytes("yyyy"));
  EXPECT_EQ(ToString(dst), "yyyy");
}

TEST(Ct, CondSwap) {
  Bytes a = ToBytes("left"), b = ToBytes("rite");
  ct::CondSwap(0, a, b);
  EXPECT_EQ(ToString(a), "left");
  ct::CondSwap(~std::uint64_t{0}, a, b);
  EXPECT_EQ(ToString(a), "rite");
  EXPECT_EQ(ToString(b), "left");
}

// ---------------------------------------------------------------- AES-128

TEST(Aes128, Fips197Vector) {
  const Bytes key = FromHex("000102030405060708090a0b0c0d0e0f");
  const Bytes pt = FromHex("00112233445566778899aabbccddeeff");
  Aes128 aes(key);
  std::uint8_t ct[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(ByteSpan(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, NistSp800_38aVector) {
  const Bytes key = FromHex("2b7e151628aed2a6abf7158809cf4f3c");
  const Bytes pt = FromHex("6bc1bee22e409f96e93d7e117393172a");
  Aes128 aes(key);
  std::uint8_t ct[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(ByteSpan(ct, 16)), "3ad77bb40d7a3660a89ecaf32466ef97");
}

TEST(Aes128, BatchMatchesSingle) {
  const Bytes key = SecureRandom(16);
  Aes128 aes(key);
  constexpr std::size_t kN = 37;  // not a multiple of the pipeline width
  Bytes in = SecureRandom(kN * 16);
  Bytes batch(kN * 16);
  aes.EncryptBlocks(in.data(), batch.data(), kN);
  for (std::size_t i = 0; i < kN; ++i) {
    std::uint8_t one[16];
    aes.EncryptBlock(in.data() + i * 16, one);
    EXPECT_EQ(0, std::memcmp(one, batch.data() + i * 16, 16)) << "block " << i;
  }
}

TEST(Aes128, MmoIsEncryptXorInput) {
  const Bytes key = SecureRandom(16);
  Aes128 aes(key);
  Bytes in = SecureRandom(16 * 9);
  Bytes mmo(16 * 9);
  aes.MmoBlocks(in.data(), mmo.data(), 9);
  Bytes enc(16 * 9);
  aes.EncryptBlocks(in.data(), enc.data(), 9);
  for (std::size_t i = 0; i < enc.size(); ++i) {
    EXPECT_EQ(mmo[i], enc[i] ^ in[i]);
  }
}

TEST(Aes128, EncryptInPlace) {
  const Bytes key = FromHex("000102030405060708090a0b0c0d0e0f");
  Aes128 aes(key);
  Bytes buf = FromHex("00112233445566778899aabbccddeeff");
  aes.EncryptBlocks(buf.data(), buf.data(), 1);
  EXPECT_EQ(HexEncode(buf), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, PortableRoundsMatchDispatchedPath) {
  // On an AES-NI host the dispatched path runs the hardware rounds; the
  // portable rounds must give the same bytes.
  Rng rng(1197);
  for (std::size_t n = 0; n <= 37; ++n) {
    Bytes key(16);
    rng.Fill(key);
    const Aes128 aes(key);
    Bytes in(n * 16);
    rng.Fill(in);
    Bytes want(in.size()), got(in.size());
    aes.EncryptBlocks(in.data(), want.data(), n);
    portable::AesEncryptBlocks(aes, in.data(), got.data(), n);
    EXPECT_EQ(got, want) << "EncryptBlocks n=" << n;
    aes.MmoBlocks(in.data(), want.data(), n);
    portable::AesMmoBlocks(aes, in.data(), got.data(), n);
    EXPECT_EQ(got, want) << "MmoBlocks n=" << n;
  }
}

// ---------------------------------------------------------------- ChaCha20

TEST(ChaCha20, Rfc8439BlockFunction) {
  // RFC 8439 §2.3.2.
  const Bytes key =
      FromHex("000102030405060708090a0b0c0d0e0f"
              "101112131415161718191a1b1c1d1e1f");
  const Bytes nonce = FromHex("000000090000004a00000000");
  std::uint8_t block[64];
  ChaCha20Block(key, nonce, 1, block);
  EXPECT_EQ(HexEncode(ByteSpan(block, 64)),
            "10f1e7e4d13b5915500fdd1fa32071c4"
            "c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2"
            "b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439Encryption) {
  // RFC 8439 §2.4.2.
  const Bytes key =
      FromHex("000102030405060708090a0b0c0d0e0f"
              "101112131415161718191a1b1c1d1e1f");
  const Bytes nonce = FromHex("000000000000004a00000000");
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  Bytes buf = ToBytes(plaintext);
  ChaCha20Xor(key, nonce, 1, buf);
  EXPECT_EQ(HexEncode(ByteSpan(buf.data(), 16)),
            "6e2e359a2568f98041ba0728dd0d6981");
  // Decryption is the same operation.
  ChaCha20Xor(key, nonce, 1, buf);
  EXPECT_EQ(ToString(buf), plaintext);
}

TEST(ChaCha20, CounterAdvancesAcrossBlocks) {
  const Bytes key = SecureRandom(32);
  const Bytes nonce = SecureRandom(12);
  Bytes long_buf(150, 0);
  ChaCha20Xor(key, nonce, 0, long_buf);
  // Keystream for the second block should equal XORing starting at counter 1.
  Bytes second(64, 0);
  ChaCha20Xor(key, nonce, 1, second);
  EXPECT_TRUE(std::equal(second.begin(), second.end(), long_buf.begin() + 64));
}

// ChaCha20Xor over `len` bytes must equal the XOR with consecutive
// ChaCha20Block outputs from `counter` (wrapping mod 2^32), whichever
// step (eight blocks or one) produced them.
void ExpectXorMatchesBlocks(ByteSpan key, ByteSpan nonce, std::uint32_t counter,
                            std::size_t len, std::size_t offset, Rng& rng) {
  Bytes buf(offset + len + 64);
  rng.Fill(buf);
  const Bytes before = buf;
  ChaCha20Xor(key, nonce, counter,
              MutableByteSpan(buf.data() + offset, len));
  Bytes want = before;
  std::uint8_t block[64];
  for (std::size_t off = 0; off < len; off += 64) {
    ChaCha20Block(key, nonce, static_cast<std::uint32_t>(counter + off / 64),
                  block);
    for (std::size_t i = 0; i < 64 && off + i < len; ++i) {
      want[offset + off + i] ^= block[i];
    }
  }
  ASSERT_EQ(buf, want) << "len=" << len << " offset=" << offset
                       << " counter=" << counter;
}

TEST(ChaCha20, EveryLengthMatchesBlockFunction) {
  Rng rng(8439);
  Bytes key(32), nonce(12);
  rng.Fill(key);
  rng.Fill(nonce);
  // 2^32 - 3: the counter wraps inside the first eight-block step.
  for (const std::uint32_t counter : {1u, 0xfffffffdu}) {
    for (std::size_t len = 0; len <= 2112; ++len) {
      ExpectXorMatchesBlocks(key, nonce, counter, len, 0, rng);
    }
  }
}

TEST(ChaCha20, UnalignedBuffersMatchBlockFunction) {
  Rng rng(8440);
  Bytes key(32), nonce(12);
  rng.Fill(key);
  rng.Fill(nonce);
  for (const std::uint32_t counter : {1u, 0xfffffffdu}) {
    for (std::size_t offset = 1; offset <= 63; ++offset) {
      for (const std::size_t len : {std::size_t{512}, std::size_t{1100}}) {
        ExpectXorMatchesBlocks(key, nonce, counter, len, offset, rng);
      }
    }
  }
}

TEST(ChaCha20, PortableMatchesDispatchedPath) {
  Rng rng(8441);
  for (std::size_t len = 0; len <= 1600; len += 37) {
    Bytes key(32), nonce(12), data(len);
    rng.Fill(key);
    rng.Fill(nonce);
    rng.Fill(data);
    const auto counter = static_cast<std::uint32_t>(rng.Next());
    Bytes want = data;
    ChaCha20Xor(key, nonce, counter, want);
    portable::ChaCha20Xor(key, nonce, counter, data);
    EXPECT_EQ(data, want) << "len=" << len << " counter=" << counter;
  }
}

// ---------------------------------------------------------------- Poly1305

TEST(Poly1305, Rfc8439Vector) {
  // RFC 8439 §2.5.2.
  const Bytes key =
      FromHex("85d6be7857556d337f4452fe42d506a8"
              "0103808afb0db2fd4abff6af4149f51b");
  const Bytes msg = ToBytes("Cryptographic Forum Research Group");
  std::uint8_t tag[16];
  Poly1305(key, msg, tag);
  EXPECT_EQ(HexEncode(ByteSpan(tag, 16)), "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305, IncrementalMatchesOneShot) {
  const Bytes key = SecureRandom(32);
  const Bytes msg = SecureRandom(123);
  std::uint8_t one_shot[16];
  Poly1305(key, msg, one_shot);

  Poly1305State st(key);
  st.Update(ByteSpan(msg.data(), 7));
  st.Update(ByteSpan(msg.data() + 7, 50));
  st.Update(ByteSpan(msg.data() + 57, 66));
  std::uint8_t incremental[16];
  st.Finish(incremental);
  EXPECT_EQ(0, std::memcmp(one_shot, incremental, 16));
}

TEST(Poly1305, EmptyMessage) {
  const Bytes key = SecureRandom(32);
  std::uint8_t tag[16];
  Poly1305(key, {}, tag);  // must not crash; tag is just the pad
  std::uint8_t expected[16];
  std::memcpy(expected, key.data() + 16, 16);
  EXPECT_EQ(0, std::memcmp(tag, expected, 16));
}

// The 26-bit-limb Poly1305 ("donna-32", one block per multiply chain) the
// library used before its 44-bit, four-block form: the reference the
// library's tags must equal.
void ReferencePoly1305(ByteSpan key, ByteSpan msg, std::uint8_t tag[16]) {
  using U32 = std::uint32_t;
  using U64 = std::uint64_t;
  const std::uint8_t* k = key.data();
  const U32 r0 = LoadLE32(k + 0) & 0x3ffffff;
  const U32 r1 = (LoadLE32(k + 3) >> 2) & 0x3ffff03;
  const U32 r2 = (LoadLE32(k + 6) >> 4) & 0x3ffc0ff;
  const U32 r3 = (LoadLE32(k + 9) >> 6) & 0x3f03fff;
  const U32 r4 = (LoadLE32(k + 12) >> 8) & 0x00fffff;
  const U32 s1 = r1 * 5, s2 = r2 * 5, s3 = r3 * 5, s4 = r4 * 5;
  U32 h0 = 0, h1 = 0, h2 = 0, h3 = 0, h4 = 0;
  for (std::size_t off = 0; off < msg.size(); off += 16) {
    std::uint8_t m[16] = {0};
    const std::size_t n = std::min<std::size_t>(16, msg.size() - off);
    std::memcpy(m, msg.data() + off, n);
    U32 hibit = 1;
    if (n < 16) {
      m[n] = 1;
      hibit = 0;
    }
    h0 += LoadLE32(m + 0) & 0x3ffffff;
    h1 += (LoadLE32(m + 3) >> 2) & 0x3ffffff;
    h2 += (LoadLE32(m + 6) >> 4) & 0x3ffffff;
    h3 += (LoadLE32(m + 9) >> 6) & 0x3ffffff;
    h4 += (LoadLE32(m + 12) >> 8) | (hibit << 24);
    const U64 d0 = U64(h0) * r0 + U64(h1) * s4 + U64(h2) * s3 +
                   U64(h3) * s2 + U64(h4) * s1;
    U64 d1 = U64(h0) * r1 + U64(h1) * r0 + U64(h2) * s4 + U64(h3) * s3 +
             U64(h4) * s2;
    U64 d2 = U64(h0) * r2 + U64(h1) * r1 + U64(h2) * r0 + U64(h3) * s4 +
             U64(h4) * s3;
    U64 d3 = U64(h0) * r3 + U64(h1) * r2 + U64(h2) * r1 + U64(h3) * r0 +
             U64(h4) * s4;
    U64 d4 = U64(h0) * r4 + U64(h1) * r3 + U64(h2) * r2 + U64(h3) * r1 +
             U64(h4) * r0;
    U64 c = d0 >> 26;
    h0 = U32(d0) & 0x3ffffff;
    d1 += c; c = d1 >> 26; h1 = U32(d1) & 0x3ffffff;
    d2 += c; c = d2 >> 26; h2 = U32(d2) & 0x3ffffff;
    d3 += c; c = d3 >> 26; h3 = U32(d3) & 0x3ffffff;
    d4 += c; c = d4 >> 26; h4 = U32(d4) & 0x3ffffff;
    h0 += U32(c) * 5;
    h1 += h0 >> 26;
    h0 &= 0x3ffffff;
  }
  U32 c;
  c = h1 >> 26; h1 &= 0x3ffffff; h2 += c;
  c = h2 >> 26; h2 &= 0x3ffffff; h3 += c;
  c = h3 >> 26; h3 &= 0x3ffffff; h4 += c;
  c = h4 >> 26; h4 &= 0x3ffffff; h0 += c * 5;
  c = h0 >> 26; h0 &= 0x3ffffff; h1 += c;
  U32 g0 = h0 + 5;
  c = g0 >> 26; g0 &= 0x3ffffff;
  U32 g1 = h1 + c;
  c = g1 >> 26; g1 &= 0x3ffffff;
  U32 g2 = h2 + c;
  c = g2 >> 26; g2 &= 0x3ffffff;
  U32 g3 = h3 + c;
  c = g3 >> 26; g3 &= 0x3ffffff;
  const U32 g4 = h4 + c - (1u << 26);
  if ((g4 >> 31) == 0) {  // h >= p: take h - p
    h0 = g0; h1 = g1; h2 = g2; h3 = g3; h4 = g4;
  }
  const U32 f[4] = {h0 | (h1 << 26), (h1 >> 6) | (h2 << 20),
                    (h2 >> 12) | (h3 << 14), (h3 >> 18) | (h4 << 8)};
  U64 acc = 0;
  for (int i = 0; i < 4; ++i) {
    acc = (acc >> 32) + f[i] + LoadLE32(k + 16 + 4 * i);
    StoreLE32(tag + 4 * i, static_cast<U32>(acc));
  }
}

TEST(Poly1305, EveryLengthMatchesReference) {
  Rng rng(1305);
  const Bytes ones(2048, 0xff);
  Bytes random_key(32), random_msg(2048);
  rng.Fill(random_key);
  rng.Fill(random_msg);
  const Bytes* const keys[] = {&random_key, &ones};
  const Bytes* const msgs[] = {&random_msg, &ones};
  for (const Bytes* key : keys) {
    for (const Bytes* msg : msgs) {
      for (std::size_t len = 0; len <= 2048; ++len) {
        const ByteSpan m(msg->data(), len);
        const ByteSpan k(key->data(), 32);
        std::uint8_t want[16], got[16];
        ReferencePoly1305(k, m, want);
        Poly1305(k, m, got);
        ASSERT_EQ(HexEncode(ByteSpan(got, 16)), HexEncode(ByteSpan(want, 16)))
            << "len=" << len << " key 0xff=" << (key == &ones)
            << " msg 0xff=" << (msg == &ones);
      }
    }
  }
}

TEST(Poly1305, EveryTwoWaySplitMatchesReference) {
  // Splits at 1..15 leave bytes buffered before a four-block step; splits
  // past 64 fall between steps or inside one.
  Rng rng(1306);
  Bytes key(32), msg(200);
  rng.Fill(key);
  rng.Fill(msg);
  std::uint8_t want[16];
  ReferencePoly1305(key, msg, want);
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Poly1305State st(key);
    st.Update(ByteSpan(msg.data(), split));
    st.Update(ByteSpan(msg.data() + split, msg.size() - split));
    std::uint8_t got[16];
    st.Finish(got);
    EXPECT_EQ(HexEncode(ByteSpan(got, 16)), HexEncode(ByteSpan(want, 16)))
        << "split=" << split;
  }
}

// ---------------------------------------------------------------- AEAD

TEST(Aead, Rfc8439Vector) {
  // RFC 8439 §2.8.2.
  const Bytes key =
      FromHex("808182838485868788898a8b8c8d8e8f"
              "909192939495969798999a9b9c9d9e9f");
  const Bytes nonce = FromHex("070000004041424344454647");
  const Bytes aad = FromHex("50515253c0c1c2c3c4c5c6c7");
  const std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";

  const Bytes sealed = AeadSeal(key, nonce, aad, ToBytes(plaintext));
  ASSERT_EQ(sealed.size(), plaintext.size() + 16);
  EXPECT_EQ(HexEncode(ByteSpan(sealed.data(), 16)),
            "d31a8d34648e60db7b86afbc53ef7ec2");
  EXPECT_EQ(HexEncode(ByteSpan(sealed.data() + plaintext.size(), 16)),
            "1ae10b594f09e26a7e902ecbd0600691");

  auto opened = AeadOpen(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(ToString(*opened), plaintext);
}

TEST(Aead, RoundTripRandom) {
  const Bytes key = SecureRandom(32);
  const Bytes nonce = SecureRandom(12);
  const Bytes aad = SecureRandom(20);
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 1000u}) {
    const Bytes pt = SecureRandom(len);
    const Bytes ct = AeadSeal(key, nonce, aad, pt);
    auto opened = AeadOpen(key, nonce, aad, ct);
    ASSERT_TRUE(opened.ok()) << "len=" << len;
    EXPECT_EQ(*opened, pt);
  }
}

TEST(Aead, TamperedCiphertextRejected) {
  const Bytes key = SecureRandom(32);
  const Bytes nonce = SecureRandom(12);
  Bytes ct = AeadSeal(key, nonce, {}, ToBytes("attack at dawn"));
  ct[3] ^= 1;
  auto opened = AeadOpen(key, nonce, {}, ct);
  EXPECT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kPermissionDenied);
}

TEST(Aead, TamperedTagRejected) {
  const Bytes key = SecureRandom(32);
  const Bytes nonce = SecureRandom(12);
  Bytes ct = AeadSeal(key, nonce, {}, ToBytes("attack at dawn"));
  ct.back() ^= 0x80;
  EXPECT_FALSE(AeadOpen(key, nonce, {}, ct).ok());
}

TEST(Aead, WrongAadRejected) {
  const Bytes key = SecureRandom(32);
  const Bytes nonce = SecureRandom(12);
  const Bytes ct = AeadSeal(key, nonce, ToBytes("aad-1"), ToBytes("msg"));
  EXPECT_FALSE(AeadOpen(key, nonce, ToBytes("aad-2"), ct).ok());
  EXPECT_TRUE(AeadOpen(key, nonce, ToBytes("aad-1"), ct).ok());
}

TEST(Aead, WrongKeyRejected) {
  const Bytes key = SecureRandom(32);
  const Bytes nonce = SecureRandom(12);
  const Bytes ct = AeadSeal(key, nonce, {}, ToBytes("msg"));
  const Bytes other = SecureRandom(32);
  EXPECT_FALSE(AeadOpen(other, nonce, {}, ct).ok());
}

TEST(Aead, TruncatedCiphertextRejected) {
  const Bytes key = SecureRandom(32);
  const Bytes nonce = SecureRandom(12);
  EXPECT_FALSE(AeadOpen(key, nonce, {}, Bytes(5)).ok());
}

TEST(Aead, InPlaceSealMatchesAeadSeal) {
  Rng rng(8442);
  for (const std::size_t len : {0u, 1u, 16u, 511u, 512u, 513u, 4100u}) {
    Bytes key(32), nonce(12), aad(13), pt(len);
    rng.Fill(key);
    rng.Fill(nonce);
    rng.Fill(aad);
    rng.Fill(pt);
    Bytes buf = pt;
    buf.resize(len + kAeadTagSize);
    AeadSealInPlace(key, nonce, aad, buf);
    EXPECT_EQ(buf, AeadSeal(key, nonce, aad, pt)) << "len=" << len;
    ASSERT_TRUE(AeadOpenInPlace(key, nonce, aad, buf).ok());
    buf.resize(len);
    EXPECT_EQ(buf, pt);
  }
}

TEST(Aead, FailedInPlaceOpenLeavesBufferUnchanged) {
  Rng rng(8443);
  Bytes key(32), nonce(12), pt(1000);
  rng.Fill(key);
  rng.Fill(nonce);
  rng.Fill(pt);
  const Bytes sealed = AeadSeal(key, nonce, ToBytes("aad"), pt);
  Bytes other_key = key;
  other_key[0] ^= 1;
  for (const std::size_t flip : {std::size_t{0}, std::size_t{600},
                                 sealed.size() - 1}) {
    Bytes buf = sealed;
    buf[flip] ^= 0x40;
    const Bytes forged = buf;
    const Status s = AeadOpenInPlace(key, nonce, ToBytes("aad"), buf);
    EXPECT_EQ(s.code(), StatusCode::kPermissionDenied) << "flip=" << flip;
    EXPECT_EQ(buf, forged) << "flip=" << flip;
  }
  Bytes buf = sealed;
  EXPECT_FALSE(AeadOpenInPlace(key, nonce, ToBytes("other"), buf).ok());
  EXPECT_EQ(buf, sealed);
  EXPECT_FALSE(AeadOpenInPlace(other_key, nonce, ToBytes("aad"), buf).ok());
  EXPECT_EQ(buf, sealed);
  Bytes short_buf(kAeadTagSize - 1, 0x33);
  EXPECT_FALSE(AeadOpenInPlace(key, nonce, {}, short_buf).ok());
  EXPECT_EQ(short_buf, Bytes(kAeadTagSize - 1, 0x33));
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, EmptyString) {
  EXPECT_EQ(HexEncode(Sha256Digest({})),
            "e3b0c44298fc1c149afbf4c8996fb924"
            "27ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(HexEncode(Sha256Digest(ToBytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223"
            "b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(HexEncode(Sha256Digest(ToBytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039"
            "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  Bytes digest(kSha256DigestSize);
  h.Finish(digest.data());
  EXPECT_EQ(HexEncode(digest),
            "cdc76e5c9914fb9281a1c7e284d73e67"
            "f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes msg = SecureRandom(300);
  Sha256 h;
  h.Update(ByteSpan(msg.data(), 63));
  h.Update(ByteSpan(msg.data() + 63, 65));
  h.Update(ByteSpan(msg.data() + 128, 172));
  Bytes digest(kSha256DigestSize);
  h.Finish(digest.data());
  EXPECT_EQ(digest, Sha256Digest(msg));
}

// ---------------------------------------------------------------- HMAC/HKDF

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(HexEncode(HmacSha256(key, ToBytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b"
            "881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(
      HexEncode(HmacSha256(ToBytes("Jefe"),
                           ToBytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c7"
      "5a003f089d2739839dec58b964ec3843");
}

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = FromHex("000102030405060708090a0b0c");
  const Bytes info = FromHex("f0f1f2f3f4f5f6f7f8f9");
  const Bytes okm =
      Hkdf(ikm, salt, std::string_view(reinterpret_cast<const char*>(
                          info.data()), info.size()), 42);
  EXPECT_EQ(HexEncode(okm),
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, DistinctInfoGivesDistinctKeys) {
  const Bytes ikm = SecureRandom(32);
  const Bytes a = Hkdf(ikm, {}, "context-a", 32);
  const Bytes b = Hkdf(ikm, {}, "context-b", 32);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.size(), 32u);
}

TEST(Hkdf, LongOutput) {
  const Bytes okm = Hkdf(ToBytes("ikm"), ToBytes("salt"), "info", 100);
  EXPECT_EQ(okm.size(), 100u);
  // Prefix property: shorter outputs are prefixes of longer ones.
  const Bytes short_okm = Hkdf(ToBytes("ikm"), ToBytes("salt"), "info", 40);
  EXPECT_TRUE(std::equal(short_okm.begin(), short_okm.end(), okm.begin()));
}

// ---------------------------------------------------------------- SipHash

TEST(SipHash, ReferenceVectors) {
  // Reference vectors from the SipHash paper / reference implementation:
  // key = 000102...0f, message = first n bytes of 00 01 02 ...
  const Bytes key = FromHex("000102030405060708090a0b0c0d0e0f");
  const std::uint64_t expected[] = {
      0x726fdb47dd0e0e31ULL, 0x74f839c593dc67fdULL, 0x0d6c8009d9a94f5aULL,
      0x85676696d7fb7e2dULL, 0xcf2794e0277187b7ULL, 0x18765564cd99a68dULL,
      0xcbc9466e58fee3ceULL, 0xab0200f58b01d137ULL, 0x93f5f5799a932462ULL,
  };
  Bytes msg;
  for (std::size_t n = 0; n < std::size(expected); ++n) {
    EXPECT_EQ(SipHash24(key, msg), expected[n]) << "n=" << n;
    msg.push_back(static_cast<std::uint8_t>(n));
  }
}

TEST(SipHash, KeyedHashesDiffer) {
  const Bytes k1 = SecureRandom(16);
  const Bytes k2 = SecureRandom(16);
  EXPECT_NE(SipHash24(k1, ToBytes("lightweb")),
            SipHash24(k2, ToBytes("lightweb")));
}

// ---------------------------------------------------------------- X25519

TEST(X25519, Rfc7748Vector1) {
  const Bytes scalar = FromHex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  const Bytes point = FromHex(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  std::uint8_t out[32];
  X25519(scalar.data(), point.data(), out);
  EXPECT_EQ(HexEncode(ByteSpan(out, 32)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748DiffieHellman) {
  const Bytes alice_priv = FromHex(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  const Bytes bob_priv = FromHex(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");

  std::uint8_t alice_pub[32], bob_pub[32];
  X25519BasePoint(alice_priv.data(), alice_pub);
  X25519BasePoint(bob_priv.data(), bob_pub);
  EXPECT_EQ(HexEncode(ByteSpan(alice_pub, 32)),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(HexEncode(ByteSpan(bob_pub, 32)),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");

  const Bytes s1 = X25519SharedSecret(alice_priv, ByteSpan(bob_pub, 32));
  const Bytes s2 = X25519SharedSecret(bob_priv, ByteSpan(alice_pub, 32));
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(HexEncode(s1),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

TEST(X25519, Rfc7748IteratedVector) {
  // RFC 7748 §5.2 iterated test: k = u = basepoint; repeat
  // (k, u) <- (X25519(k, u), k). Checked after 1 and 1000 iterations.
  std::uint8_t k[32] = {9};
  std::uint8_t u[32] = {9};
  std::uint8_t out[32];
  X25519(k, u, out);
  EXPECT_EQ(HexEncode(ByteSpan(out, 32)),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
  std::memcpy(u, k, 32);
  std::memcpy(k, out, 32);
  for (int i = 1; i < 1000; ++i) {
    X25519(k, u, out);
    std::memcpy(u, k, 32);
    std::memcpy(k, out, 32);
  }
  EXPECT_EQ(HexEncode(ByteSpan(k, 32)),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

TEST(X25519, GeneratedKeyPairsAgree) {
  const auto a = X25519Generate();
  const auto b = X25519Generate();
  EXPECT_EQ(X25519SharedSecret(a.private_key, b.public_key),
            X25519SharedSecret(b.private_key, a.public_key));
}

// ---------------------------------------------------------------- DPF PRG

TEST(DpfPrg, Deterministic) {
  const DpfPrg& prg = SharedDpfPrg();
  const Bytes seed = SecureRandom(16);
  std::uint8_t l1[16], r1[16], l2[16], r2[16];
  std::uint8_t tl1, tr1, tl2, tr2;
  prg.Expand(seed.data(), l1, r1, &tl1, &tr1);
  prg.Expand(seed.data(), l2, r2, &tl2, &tr2);
  EXPECT_EQ(0, std::memcmp(l1, l2, 16));
  EXPECT_EQ(0, std::memcmp(r1, r2, 16));
  EXPECT_EQ(tl1, tl2);
  EXPECT_EQ(tr1, tr2);
}

TEST(DpfPrg, LeftRightIndependent) {
  const DpfPrg& prg = SharedDpfPrg();
  const Bytes seed = SecureRandom(16);
  std::uint8_t l[16], r[16];
  std::uint8_t tl, tr;
  prg.Expand(seed.data(), l, r, &tl, &tr);
  EXPECT_NE(0, std::memcmp(l, r, 16));
}

TEST(DpfPrg, ControlBitsClearedFromSeeds) {
  const DpfPrg& prg = SharedDpfPrg();
  for (int i = 0; i < 32; ++i) {
    const Bytes seed = SecureRandom(16);
    std::uint8_t l[16], r[16];
    std::uint8_t tl, tr;
    prg.Expand(seed.data(), l, r, &tl, &tr);
    EXPECT_EQ(l[0] & 1, 0);
    EXPECT_EQ(r[0] & 1, 0);
    EXPECT_LE(tl, 1);
    EXPECT_LE(tr, 1);
  }
}

TEST(DpfPrg, BatchMatchesSingle) {
  const DpfPrg& prg = SharedDpfPrg();
  constexpr std::size_t kN = 21;
  const Bytes seeds = SecureRandom(kN * 16);
  Bytes bl(kN * 16), br(kN * 16);
  Bytes btl(kN), btr(kN);
  prg.ExpandBatch(seeds.data(), kN, bl.data(), br.data(), btl.data(),
                  btr.data());
  for (std::size_t i = 0; i < kN; ++i) {
    std::uint8_t l[16], r[16];
    std::uint8_t tl, tr;
    prg.Expand(seeds.data() + i * 16, l, r, &tl, &tr);
    EXPECT_EQ(0, std::memcmp(l, bl.data() + i * 16, 16));
    EXPECT_EQ(0, std::memcmp(r, br.data() + i * 16, 16));
    EXPECT_EQ(tl, btl[i]);
    EXPECT_EQ(tr, btr[i]);
  }
}

TEST(DpfPrg, ControlBitBalance) {
  // Rough statistical sanity: the control bits should be near-uniform.
  const DpfPrg& prg = SharedDpfPrg();
  constexpr std::size_t kN = 4096;
  const Bytes seeds = SecureRandom(kN * 16);
  Bytes l(kN * 16), r(kN * 16), tl(kN), tr(kN);
  prg.ExpandBatch(seeds.data(), kN, l.data(), r.data(), tl.data(), tr.data());
  int ones = 0;
  for (std::size_t i = 0; i < kN; ++i) ones += tl[i] + tr[i];
  EXPECT_GT(ones, static_cast<int>(kN) * 2 * 40 / 100);
  EXPECT_LT(ones, static_cast<int>(kN) * 2 * 60 / 100);
}

}  // namespace
}  // namespace lw::crypto
