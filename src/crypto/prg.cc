#include "crypto/prg.h"

namespace lw::crypto {
namespace {

// Arbitrary fixed public constants (digits of pi / e / sqrt 2). Distinct
// keys give independent left/right expansions and leaf conversion.
constexpr std::uint8_t kLeftKey[16] = {0x31, 0x41, 0x59, 0x26, 0x53, 0x58,
                                       0x97, 0x93, 0x23, 0x84, 0x62, 0x64,
                                       0x33, 0x83, 0x27, 0x95};
constexpr std::uint8_t kRightKey[16] = {0x27, 0x18, 0x28, 0x18, 0x28, 0x45,
                                        0x90, 0x45, 0x23, 0x53, 0x60, 0x28,
                                        0x74, 0x71, 0x35, 0x26};
constexpr std::uint8_t kConvertKey[16] = {0x14, 0x14, 0x21, 0x35, 0x62, 0x37,
                                          0x30, 0x95, 0x04, 0x88, 0x01, 0x68,
                                          0x87, 0x24, 0x20, 0x96};

}  // namespace

DpfPrg::DpfPrg()
    : aes_left_(ByteSpan(kLeftKey, sizeof kLeftKey)),
      aes_right_(ByteSpan(kRightKey, sizeof kRightKey)),
      aes_convert_(ByteSpan(kConvertKey, sizeof kConvertKey)) {}

void DpfPrg::ExpandBatch(const std::uint8_t* seeds, std::size_t n,
                         std::uint8_t* left, std::uint8_t* right,
                         std::uint8_t* t_left, std::uint8_t* t_right) const {
  aes_left_.MmoBlocks(seeds, left, n);
  aes_right_.MmoBlocks(seeds, right, n);
  for (std::size_t i = 0; i < n; ++i) {
    t_left[i] = left[i * 16] & 1;
    left[i * 16] &= 0xfe;
    t_right[i] = right[i * 16] & 1;
    right[i * 16] &= 0xfe;
  }
}

void DpfPrg::Expand(const std::uint8_t seed[kPrgSeedSize],
                    std::uint8_t left[kPrgSeedSize],
                    std::uint8_t right[kPrgSeedSize], std::uint8_t* t_left,
                    std::uint8_t* t_right) const {
  ExpandBatch(seed, 1, left, right, t_left, t_right);
}

void DpfPrg::ConvertBatch(const std::uint8_t* seeds, std::size_t n,
                          std::uint8_t* out) const {
  aes_convert_.MmoBlocks(seeds, out, n);
}

const DpfPrg& SharedDpfPrg() {
  // Deliberately leaked singleton (same rationale as lw::SecureRandomBytes's
  // pool); suppressed in tools/lint/lsan.supp.
  static const DpfPrg* prg = new DpfPrg();  // lwlint: allow(naked-new)
  return *prg;
}

}  // namespace lw::crypto
