// Adversarial-input robustness: every deserializer in the system must turn
// arbitrary bytes into a clean error — never crash, never throw, never
// accept-and-misbehave. (Servers parse attacker-controlled frames.)
#include <gtest/gtest.h>

#include "dpf/dpf.h"
#include "json/json.h"
#include "lightweb/access.h"
#include "lightweb/lightscript.h"
#include "net/transport.h"
#include "pir/packing.h"
#include "stats/private_stats.h"
#include "util/rand.h"
#include "zltp/messages.h"

namespace lw {
namespace {

// Deterministic corpus of adversarial buffers: random bytes at many sizes,
// plus structured-ish corruptions of valid messages.
std::vector<Bytes> Corpus() {
  std::vector<Bytes> out;
  Rng rng(20260706);
  for (std::size_t size : {0u, 1u, 2u, 5u, 17u, 18u, 100u, 288u, 289u,
                           290u, 391u, 392u, 393u, 4096u}) {
    for (int variant = 0; variant < 20; ++variant) {
      Bytes b(size);
      rng.Fill(b);
      out.push_back(std::move(b));
    }
  }
  // Mutations of a genuine DPF key.
  const Bytes valid = dpf::Generate(77, 12).key0.Serialize();
  for (int i = 0; i < 50; ++i) {
    Bytes mutated = valid;
    const std::size_t pos = rng.UniformInt(mutated.size());
    mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.UniformInt(255));
    out.push_back(std::move(mutated));
    Bytes truncated(valid.begin(),
                    valid.begin() + static_cast<std::ptrdiff_t>(
                                        rng.UniformInt(valid.size())));
    out.push_back(std::move(truncated));
  }
  return out;
}

TEST(Robustness, DpfKeyDeserialize) {
  for (const Bytes& input : Corpus()) {
    auto r = dpf::DpfKey::Deserialize(input);
    if (r.ok()) {
      // Accepted inputs must be internally consistent and evaluable.
      EXPECT_LE(r->domain_bits, dpf::kMaxDomainBits);
      if (r->domain_bits >= 1 && r->domain_bits <= 16) {
        (void)dpf::EvalPoint(*r, 0);
      }
    }
  }
}

TEST(Robustness, SubtreeKeyDeserialize) {
  for (const Bytes& input : Corpus()) {
    auto r = dpf::SubtreeKey::Deserialize(input);
    if (r.ok() && r->domain_bits >= 1 && r->domain_bits <= 12) {
      (void)dpf::EvalSubtree(*r);
    }
  }
}

TEST(Robustness, RecordUnpack) {
  for (const Bytes& input : Corpus()) {
    auto r = pir::UnpackRecord(input);
    if (r.ok()) {
      EXPECT_LE(r->payload.size(), input.size());
    }
  }
}

TEST(Robustness, ZltpMessageDecoders) {
  for (const Bytes& input : Corpus()) {
    for (std::uint8_t type = 0; type < 8; ++type) {
      net::Frame frame;
      frame.type = type;
      frame.payload = input;
      (void)zltp::DecodeClientHello(frame);
      (void)zltp::DecodeServerHello(frame);
      (void)zltp::DecodeGetRequest(frame);
      (void)zltp::DecodeGetResponse(frame);
      (void)zltp::DecodeError(frame);
    }
  }
}

TEST(Robustness, JsonParser) {
  Rng rng(7);
  for (const Bytes& input : Corpus()) {
    (void)json::Parse(ToString(input));
  }
  // Pathological near-JSON strings.
  for (const char* s :
       {"{{{{{{{{", "[[[[[[[[[[", "{\"a\":", "\"\\u12", "[1,2,3",
        "{\"k\":1e999999}", "-", "+1", "\"\\", "nullnull", "[null,]",
        "{\"a\"}", "\"\\ud83d\\ud83d\""}) {
    (void)json::Parse(s);
  }
}

TEST(Robustness, LightScriptParser) {
  for (const Bytes& input : Corpus()) {
    (void)lightweb::CodeProgram::Parse(ToString(input));
  }
  // Hostile but syntactically valid JSON programs.
  for (const char* s : {
           R"({"routes":[{"pattern":"/","render":"{{#each .}}{{#each .}}{{.}}{{/each}}{{/each}}"}]})",
           R"({"routes":[{"pattern":"/:a/:a","render":"{{a}}"}]})",
           R"({"routes":[{"pattern":"/","fetch":["{x|"],"render":"r"}]})",
       }) {
    auto program = lightweb::CodeProgram::Parse(s);
    if (program.ok()) {
      lightweb::LocalStorage local;
      auto plan = program->Plan("a.com", "/x/y", local);
      if (plan.ok()) {
        (void)program->Render(*plan, "a.com", "/x/y", local,
                              {json::Value()});
      }
    }
  }
}

TEST(Robustness, AccessControlDecrypt) {
  lightweb::ClientKeyring keyring;
  keyring.AddEpochKey(1, Bytes(32, 0x11));
  for (const Bytes& input : Corpus()) {
    (void)lightweb::IsEncryptedPayload(input);
    if (lightweb::IsEncryptedPayload(input)) {
      auto r = keyring.Decrypt("any/path", input);
      EXPECT_FALSE(r.ok());  // random bytes can never authenticate
    }
  }
}

TEST(Robustness, StatsShareDeserialize) {
  for (const Bytes& input : Corpus()) {
    (void)stats::DeserializeShare(input);
  }
}

TEST(Robustness, MutatedValidDpfKeyStillSafeToEvaluate) {
  // Bit-flipped-but-parseable keys must evaluate without UB (they just
  // produce garbage shares — integrity is a non-goal, §2.1).
  Rng rng(5);
  const dpf::KeyPair pair = dpf::Generate(100, 10);
  for (int i = 0; i < 100; ++i) {
    Bytes wire = pair.key0.Serialize();
    wire[2 + rng.UniformInt(wire.size() - 2)] ^= 0xff;  // keep header valid
    auto key = dpf::DpfKey::Deserialize(wire);
    if (key.ok()) {
      (void)dpf::EvalFull(*key);
    }
  }
}

}  // namespace
}  // namespace lw
