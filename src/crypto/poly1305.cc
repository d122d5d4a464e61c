#include "crypto/poly1305.h"

#include <cstring>

#include "crypto/ct.h"
#include "util/check.h"

namespace lw::crypto {
namespace {

// Arithmetic mod p = 2^130 - 5 on three 64-bit limbs of 44, 44 and 42 bits
// (the "donna-64" formulation), with products summed in 128 bits. Every
// step runs the same instructions whatever the key and message words: no
// branch or index depends on them.
using U64 = std::uint64_t;
using U128 = unsigned __int128;

constexpr U64 kMask44 = (U64{1} << 44) - 1;
constexpr U64 kMask42 = (U64{1} << 42) - 1;
// The 2^128 bit of a full 16-byte block, as a bit of limb 2.
constexpr U64 kFullBlockBit = U64{1} << 40;

// A multiplier's limbs with 20 times limbs 1 and 2: 2^132 = 4·2^130 ≡ 20
// (mod p), so a product term that lands at 2^132 or 2^176 folds back down
// with these.
struct Multiplier {
  U64 l[3];
  U64 s1, s2;
};

Multiplier MakeMultiplier(const U64 l[3]) {
  return {{l[0], l[1], l[2]}, l[1] * 20, l[2] * 20};
}

// Unreduced product sums.
struct Product {
  U128 d0 = 0, d1 = 0, d2 = 0;
};

void MulAdd(Product& p, const U64 a[3], const Multiplier& b) {
  p.d0 += U128(a[0]) * b.l[0] + U128(a[1]) * b.s2 + U128(a[2]) * b.s1;
  p.d1 += U128(a[0]) * b.l[1] + U128(a[1]) * b.l[0] + U128(a[2]) * b.s2;
  p.d2 += U128(a[0]) * b.l[2] + U128(a[1]) * b.l[1] + U128(a[2]) * b.l[0];
}

// One carry chain: the sums back to limbs below 2^44, 2^44 + 2^16 and
// 2^42, small enough to multiply again.
void Reduce(const Product& p, U64 h[3]) {
  U128 d1 = p.d1, d2 = p.d2;
  U64 c = static_cast<U64>(p.d0 >> 44);
  h[0] = static_cast<U64>(p.d0) & kMask44;
  d1 += c;
  c = static_cast<U64>(d1 >> 44);
  h[1] = static_cast<U64>(d1) & kMask44;
  d2 += c;
  c = static_cast<U64>(d2 >> 42);
  h[2] = static_cast<U64>(d2) & kMask42;
  h[0] += c * 5;
  c = h[0] >> 44;
  h[0] &= kMask44;
  h[1] += c;
}

// out <- a · b.
void Mul(const U64 a[3], const Multiplier& b, U64 out[3]) {
  Product p;
  MulAdd(p, a, b);
  Reduce(p, out);
}

void LoadBlock(const std::uint8_t m[16], U64 hibit, U64 out[3]) {
  const U64 t0 = LoadLE64(m);
  const U64 t1 = LoadLE64(m + 8);
  out[0] = t0 & kMask44;
  out[1] = ((t0 >> 44) | (t1 << 20)) & kMask44;
  out[2] = ((t1 >> 24) & kMask42) | hibit;
}

// h <- (h + m) · r.
void ProcessBlock(U64 h[3], const Multiplier& r, const std::uint8_t m[16],
                  U64 hibit) {
  U64 a[3];
  LoadBlock(m, hibit, a);
  for (int i = 0; i < 3; ++i) a[i] += h[i];
  Mul(a, r, h);
}

// Four full blocks in one step: h <- (h + m1)·r^4 + m2·r^3 + m3·r^2 + m4·r,
// the same value as four one-block steps, but the four products are
// independent and share one carry chain. powers[k] holds r^(4-k).
void ProcessFourBlocks(U64 h[3], const Multiplier powers[4],
                       const std::uint8_t m[64]) {
  U64 a[3];
  LoadBlock(m, kFullBlockBit, a);
  for (int i = 0; i < 3; ++i) a[i] += h[i];
  Product p;
  MulAdd(p, a, powers[0]);
  for (int k = 1; k < 4; ++k) {
    LoadBlock(m + 16 * k, kFullBlockBit, a);
    MulAdd(p, a, powers[k]);
  }
  Reduce(p, h);
}

}  // namespace

Poly1305State::Poly1305State(ByteSpan key) {
  LW_CHECK_MSG(key.size() == kPoly1305KeySize,
               "Poly1305 key must be 32 bytes");
  // r is clamped (RFC 8439 §2.5) as it is split into limbs.
  const U64 t0 = LoadLE64(key.data());
  const U64 t1 = LoadLE64(key.data() + 8);
  r_[0] = t0 & 0xffc0fffffff;
  r_[1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffff;
  r_[2] = (t1 >> 24) & 0x00ffffffc0f;
  pad_[0] = LoadLE64(key.data() + 16);
  pad_[1] = LoadLE64(key.data() + 24);
}

void Poly1305State::Update(ByteSpan data) {
  const Multiplier r = MakeMultiplier(r_);
  const std::uint8_t* const in = data.data();
  std::size_t off = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min<std::size_t>(16 - buffered_, data.size());
    std::memcpy(buf_ + buffered_, in, take);
    buffered_ += take;
    off += take;
    if (buffered_ == 16) {
      ProcessBlock(h_, r, buf_, kFullBlockBit);
      buffered_ = 0;
    }
  }
  if (data.size() - off >= 64) {
    U64 r2[3], r3[3], r4[3];
    Mul(r_, r, r2);
    Mul(r2, r, r3);
    Mul(r2, MakeMultiplier(r2), r4);
    const Multiplier powers[4] = {MakeMultiplier(r4), MakeMultiplier(r3),
                                  MakeMultiplier(r2), r};
    for (; off + 64 <= data.size(); off += 64) {
      ProcessFourBlocks(h_, powers, in + off);
    }
  }
  for (; off + 16 <= data.size(); off += 16) {
    ProcessBlock(h_, r, in + off, kFullBlockBit);
  }
  if (off < data.size()) {
    buffered_ = data.size() - off;
    std::memcpy(buf_, in + off, buffered_);
  }
}

void Poly1305State::Finish(std::uint8_t tag[kPoly1305TagSize]) {
  if (buffered_ > 0) {
    // Final partial block: append 0x01 then zero-pad; no high bit.
    buf_[buffered_] = 1;
    for (std::size_t i = buffered_ + 1; i < 16; ++i) buf_[i] = 0;
    ProcessBlock(h_, MakeMultiplier(r_), buf_, 0);
    buffered_ = 0;
  }

  U64 h0 = h_[0], h1 = h_[1], h2 = h_[2];

  // Full carry propagation, two rounds.
  U64 c;
  c = h1 >> 44; h1 &= kMask44; h2 += c;
  c = h2 >> 42; h2 &= kMask42; h0 += c * 5;
  c = h0 >> 44; h0 &= kMask44; h1 += c;
  c = h1 >> 44; h1 &= kMask44; h2 += c;
  c = h2 >> 42; h2 &= kMask42; h0 += c * 5;
  c = h0 >> 44; h0 &= kMask44; h1 += c;

  // g = h - p = h + 5 - 2^130; take g when it did not go negative.
  U64 g0 = h0 + 5;
  c = g0 >> 44; g0 &= kMask44;
  U64 g1 = h1 + c;
  c = g1 >> 44; g1 &= kMask44;
  const U64 g2 = h2 + c - (U64{1} << 42);
  const U64 take_g = ct::ZeroMask(g2 >> 63);
  h0 = ct::Select(take_g, g0, h0);
  h1 = ct::Select(take_g, g1, h1);
  h2 = ct::Select(take_g, g2, h2);

  // tag = (h + pad) mod 2^128.
  const U128 h128 = U128(h0) + (U128(h1) << 44) + (U128(h2) << 88);
  const U128 sum = h128 + ((U128(pad_[1]) << 64) | pad_[0]);
  StoreLE64(tag, static_cast<U64>(sum));
  StoreLE64(tag + 8, static_cast<U64>(sum >> 64));
}

void Poly1305(ByteSpan key, ByteSpan msg, std::uint8_t tag[kPoly1305TagSize]) {
  Poly1305State state(key);
  state.Update(msg);
  state.Finish(tag);
}

}  // namespace lw::crypto
