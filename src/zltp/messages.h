// ZLTP wire messages.
//
// A ZLTP session (paper §2) begins with a hello exchange in which the server
// announces the fixed blob size it serves and the two sides settle on a mode
// of operation; each private-GET is then one request/response exchange whose
// body is mode-specific (a serialized DPF key share for two-server PIR, or
// an encrypted enclave request). Requests carry ids so clients may pipeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/transport.h"
#include "util/bytes.h"
#include "util/status.h"

namespace lw::zltp {

// Version 2 carries early-terminated DPF keys (docs/PROTOCOL.md); peers on
// any other version are refused at the hello.
inline constexpr std::uint16_t kProtocolVersion = 2;

enum class MsgType : std::uint8_t {
  kClientHello = 1,
  kServerHello = 2,
  kGetRequest = 3,
  kGetResponse = 4,
  kError = 5,
  kBye = 6,
};

// Modes of operation (paper §2.2).
enum class Mode : std::uint8_t {
  kTwoServerPir = 1,  // cryptographic; requires two non-colluding servers
  kEnclave = 2,       // hardware-trust; ORAM-backed enclave
};

const char* ModeName(Mode mode);

struct ClientHello {
  std::uint16_t version = kProtocolVersion;
  std::vector<Mode> supported_modes;
};

struct ServerHello {
  std::uint16_t version = kProtocolVersion;
  Mode mode = Mode::kTwoServerPir;
  // Which of the two logical PIR servers this endpoint is (0 or 1);
  // meaningless in enclave mode.
  std::uint8_t server_role = 0;
  std::uint8_t domain_bits = 0;       // PIR mode: DPF output domain
  std::uint32_t record_size = 0;      // fixed blob size served
  Bytes keyword_seed;                 // PIR mode: 16-byte universe seed
  Bytes enclave_public_key;           // enclave mode: 32-byte X25519 key
};

struct GetRequest {
  std::uint32_t request_id = 0;
  Bytes body;  // serialized DPF key (PIR) or sealed enclave request
};

struct GetResponse {
  std::uint32_t request_id = 0;
  Bytes body;  // record share (PIR) or sealed enclave response
};

struct ErrorMsg {
  StatusCode code = StatusCode::kInternal;
  std::string message;
};

net::Frame Encode(const ClientHello& m);
net::Frame Encode(const ServerHello& m);
net::Frame Encode(const GetRequest& m);
net::Frame Encode(const GetResponse& m);
net::Frame Encode(const ErrorMsg& m);
net::Frame EncodeBye();

Result<ClientHello> DecodeClientHello(const net::Frame& f);
Result<ServerHello> DecodeServerHello(const net::Frame& f);
Result<GetRequest> DecodeGetRequest(const net::Frame& f);
Result<GetResponse> DecodeGetResponse(const net::Frame& f);
Result<ErrorMsg> DecodeError(const net::Frame& f);

// Converts a received kError frame into a Status (for surfacing to callers).
Status StatusFromError(const ErrorMsg& e);

}  // namespace lw::zltp
