// Fuzz targets for every decoder surface that consumes attacker-controlled
// bytes (paper §2: a malicious peer can send arbitrary frames even though it
// learns nothing from honest ones).
//
// Each target is an ordinary function so that three drivers can share it:
//   * libFuzzer harnesses (fuzz/fuzz_<name>.cc, built with -DLIGHTWEB_FUZZ=ON
//     under clang) for coverage-guided exploration;
//   * the deterministic corpus-replay runner (fuzz/replay_main.cc, registered
//     as the tier-1 ctest `fuzz.replay`) so checked-in corpora run on every
//     build even without clang;
//   * tests/fuzz_replay_test.cc, which replays the same corpora under gtest.
//
// Contract: a target must return 0 and must not crash, leak, or trip a
// sanitizer for ANY input. Inputs the decoder accepts are additionally held
// to their encode→decode→re-encode roundtrip invariants via LW_CHECK, so a
// logic regression aborts the process and the fuzzer minimizes it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace lw::fuzz {

// json::Parse + canonical Write/Parse fixpoint.
int FuzzJson(const std::uint8_t* data, std::size_t size);

// zltp::Decode{ClientHello,ServerHello,GetRequest,GetResponse,Error}; the
// first input byte selects the frame type, the rest is the payload.
int FuzzZltp(const std::uint8_t* data, std::size_t size);

// dpf::DpfKey::Deserialize and dpf::SubtreeKey::Deserialize, plus evaluation
// consistency (EvalFull vs EvalPoint, SplitForShards, the scan's EvalLeaves
// vs EvalSubtree) on small domains.
int FuzzDpf(const std::uint8_t* data, std::size_t size);

// util::Reader driven by an op-script derived from the input, plus a
// Writer→Reader roundtrip of the raw bytes.
int FuzzReader(const std::uint8_t* data, std::size_t size);

// util::HexDecode / HexEncode roundtrip.
int FuzzHex(const std::uint8_t* data, std::size_t size);

// Keyword table load surfaces: lightweb::LoadUniverseSnapshot into a tiny
// universe (exercises JSON, hex, path, and LightScript template parsing)
// plus pir::UnpackRecord and pir::InterpretRecord.
int FuzzTable(const std::uint8_t* data, std::size_t size);

using TargetFn = int (*)(const std::uint8_t*, std::size_t);

struct Target {
  const char* name;  // also the corpus subdirectory name (fuzz/corpus/<name>)
  TargetFn fn;
};

// All six targets, in corpus-directory order.
const std::vector<Target>& AllTargets();

// nullptr when no target has that name.
TargetFn FindTarget(std::string_view name);

}  // namespace lw::fuzz
