#include "zltp/client.h"

#include <map>
#include <utility>

#include "crypto/siphash.h"
#include "crypto/x25519.h"
#include "obs/metrics.h"
#include "pir/keyword.h"
#include "pir/packing.h"
#include "pir/two_server.h"
#include "util/rand.h"

namespace lw::zltp {
namespace {

std::size_t FrameWireSize(const net::Frame& f) {
  return 4 + 1 + f.payload.size();  // length prefix + type + payload
}

// Unpredictable backoff jitter (tests with a FakeClock never actually wait,
// so determinism of the schedule does not matter there).
std::uint64_t BackoffSeed() {
  std::uint8_t buf[8];
  SecureRandomBytes(MutableByteSpan(buf, 8));
  return LoadLE64(buf);
}

// A uniformly random index of a 2^domain_bits domain: a cover query.
std::uint64_t RandomIndex(int domain_bits) {
  std::uint8_t buf[8];
  SecureRandomBytes(MutableByteSpan(buf, 8));
  return LoadLE64(buf) & ((std::uint64_t{1} << domain_bits) - 1);
}

}  // namespace

// -------------------------------------------------------- LinkedSession

Status LinkedSession::Open(EstablishOptions options) {
  hello_timeout_ = options.hello_timeout;
  op_timeout_ = options.op_timeout;
  retry_ = options.retry;
  if (retry_.clock == nullptr) retry_.clock = options.clock;
  clock_ = options.clock;
  sink_ = options.traffic_sink;
  slots_[0] = Slot{std::move(options.transport0), std::move(options.factory0)};
  if (slots_.size() > 1) {
    slots_[1] =
        Slot{std::move(options.transport1), std::move(options.factory1)};
  }

  net::Backoff backoff(retry_, BackoffSeed());
  for (int attempt = 1;; ++attempt) {
    const Status s = Connect(/*reestablish=*/false);
    if (s.ok() || !net::IsRetryable(s) || attempt >= retry_.max_attempts ||
        !CanRedial()) {
      return s;
    }
    backoff.SleepBeforeRetry();
    Account({.retries = 1});
  }
}

net::Deadline LinkedSession::After(std::chrono::nanoseconds timeout) const {
  if (timeout <= std::chrono::nanoseconds::zero()) {
    return net::Deadline::Infinite();
  }
  return net::Deadline::After(timeout, clock_);
}

Result<ServerHello> LinkedSession::Hello(std::size_t slot) {
  const net::Deadline deadline = After(hello_timeout_);
  ClientHello hello;
  hello.supported_modes = {mode_};
  LW_RETURN_IF_ERROR(Send(slot, Encode(hello), deadline));
  LW_ASSIGN_OR_RETURN(const net::Frame in, Receive(slot, deadline));
  LW_ASSIGN_OR_RETURN(ServerHello server_hello, DecodeServerHello(in));
  if (server_hello.version != kProtocolVersion) {
    return ProtocolError("server speaks unsupported version");
  }
  if (server_hello.mode != mode_) {
    return ProtocolError("server selected a mode we did not offer");
  }
  return server_hello;
}

Status LinkedSession::Connect(bool reestablish) {
  Status s = Status::Ok();
  for (Slot& slot : slots_) {
    if (slot.transport != nullptr) continue;
    auto dialed = slot.dial();
    if (!dialed.ok()) {
      s = dialed.status();
      break;
    }
    slot.transport = std::move(*dialed);
  }
  std::vector<ServerHello> hellos;
  for (std::size_t i = 0; s.ok() && i < slots_.size(); ++i) {
    auto hello = Hello(i);
    if (!hello.ok()) {
      s = hello.status();
      break;
    }
    hellos.push_back(std::move(*hello));
  }
  if (s.ok()) s = Accept(slots_, hellos, reestablish);
  // Never reuse a connection from a failed attempt.
  if (!s.ok()) DropConnections();
  return s;
}

bool LinkedSession::connected() const {
  for (const Slot& slot : slots_) {
    if (slot.transport == nullptr) return false;
  }
  return true;
}

bool LinkedSession::CanRedial() const {
  for (const Slot& slot : slots_) {
    if (!slot.dial) return false;
  }
  return true;
}

Status LinkedSession::Redial() {
  if (!CanRedial()) {
    return UnavailableError("session disconnected (no redial factory)");
  }
  Account({.redials = 1});
  return Connect(/*reestablish=*/true);
}

void LinkedSession::DropConnections() {
  // Drop every connection even if only one faulted: an orphaned in-flight
  // response on a healthy one would desynchronize request ids for every
  // later query. The factories survive for redial.
  for (Slot& slot : slots_) {
    if (slot.transport != nullptr) slot.transport->Close();
    slot.transport.reset();
  }
}

template <typename Op>
auto LinkedSession::WithRetries(Op&& op) -> decltype(op(net::Deadline())) {
  net::Backoff backoff(retry_, BackoffSeed());
  for (int attempt = 1;; ++attempt) {
    Status failure = connected() ? Status::Ok() : Redial();
    if (failure.ok()) {
      auto result = op(After(op_timeout_));
      if (result.ok()) return result;
      failure = result.status();
      if (failure.code() == StatusCode::kDeadlineExceeded) {
        obs::M().client_op_timeouts.Inc();
      }
      // Whatever the code: a pipelined batch that stops at its first error
      // frame leaves the rest of its replies on the wire.
      DropConnections();
    }
    if (!net::IsRetryable(failure) || attempt >= retry_.max_attempts ||
        !CanRedial()) {
      return failure;
    }
    backoff.SleepBeforeRetry();
    Account({.retries = 1});
  }
}

Status LinkedSession::Send(std::size_t slot, const net::Frame& frame,
                           const net::Deadline& deadline) {
  LW_RETURN_IF_ERROR(slots_[slot].transport->Send(frame, deadline));
  Account({.bytes_sent = FrameWireSize(frame)});
  return Status::Ok();
}

Result<net::Frame> LinkedSession::Receive(std::size_t slot,
                                          const net::Deadline& deadline) {
  LW_ASSIGN_OR_RETURN(net::Frame in, slots_[slot].transport->Receive(deadline));
  Account({.bytes_received = FrameWireSize(in)});
  if (in.type == static_cast<std::uint8_t>(MsgType::kError)) {
    LW_ASSIGN_OR_RETURN(const ErrorMsg e, DecodeError(in));
    return StatusFromError(e);
  }
  return in;
}

Result<Bytes> LinkedSession::RoundTrip(std::size_t slot,
                                       std::uint32_t request_id, Bytes body,
                                       const net::Deadline& deadline) {
  LW_RETURN_IF_ERROR(
      Send(slot, Encode(GetRequest{request_id, std::move(body)}), deadline));
  LW_ASSIGN_OR_RETURN(const net::Frame in, Receive(slot, deadline));
  LW_ASSIGN_OR_RETURN(GetResponse response, DecodeGetResponse(in));
  if (response.request_id != request_id) {
    return ProtocolError("response id does not match request");
  }
  return std::move(response.body);
}

void LinkedSession::Account(const TrafficCounters& delta) {
  for (TrafficCounters* t : {&traffic_, sink_}) {
    if (t == nullptr) continue;
    t->bytes_sent += delta.bytes_sent;
    t->bytes_received += delta.bytes_received;
    t->requests += delta.requests;
    t->retries += delta.retries;
    t->redials += delta.redials;
  }
  obs::Metrics& m = obs::M();
  m.client_bytes_sent.Inc(delta.bytes_sent);
  m.client_bytes_received.Inc(delta.bytes_received);
  m.client_requests.Inc(delta.requests);
  m.client_retries.Inc(delta.retries);
  m.client_redials.Inc(delta.redials);
}

void LinkedSession::Close() {
  // Bye is left out of traffic(): the counters measure what the session's
  // hellos and GETs cost.
  for (Slot& slot : slots_) {
    if (slot.transport == nullptr) continue;
    (void)slot.transport->Send(EncodeBye(), net::Deadline::Infinite());
  }
  DropConnections();
  closed_ = true;
}

// ----------------------------------------------------------- PirSession

Result<PirSession> PirSession::Establish(EstablishOptions options) {
  if ((options.transport0 == nullptr && !options.factory0) ||
      (options.transport1 == nullptr && !options.factory1)) {
    return InvalidArgumentError(
        "EstablishOptions needs a transport or a factory for each server");
  }
  PirSession session;
  LW_RETURN_IF_ERROR(session.Open(std::move(options)));
  return session;
}

Status PirSession::Accept(std::vector<Slot>& slots,
                          std::vector<ServerHello>& hellos, bool reestablish) {
  ServerHello& h0 = hellos[0];
  ServerHello& h1 = hellos[1];
  if (h0.server_role == h1.server_role) {
    return FailedPreconditionError(
        "both connections reached the same logical server; the "
        "non-collusion assumption requires distinct trust domains");
  }
  if (h0.domain_bits != h1.domain_bits || h0.record_size != h1.record_size ||
      h0.keyword_seed != h1.keyword_seed) {
    return ProtocolError("servers disagree on universe parameters");
  }
  if (h0.keyword_seed.size() != crypto::kSipHashKeySize) {
    return ProtocolError("bad keyword seed size");
  }
  if (h0.domain_bits < 1 || h0.domain_bits > dpf::kMaxDomainBits) {
    return ProtocolError("bad domain_bits");
  }

  if (reestablish) {
    // Redials are slot-stable: the role-0 factory must reach the role-0
    // server again (a flipped or re-announced role after a blip is a
    // misconfiguration or an attack, not a transient).
    if (h0.server_role != 0 || h1.server_role != 1) {
      return FailedPreconditionError("server roles changed across redial");
    }
    if (h0.domain_bits != domain_bits_ || h0.record_size != record_size_ ||
        h0.keyword_seed != keyword_seed_) {
      return ProtocolError("universe parameters changed across redial");
    }
    return Status::Ok();
  }
  // Order the connections by announced role so key0 goes to role 0.
  if (h0.server_role != 0) {
    std::swap(h0, h1);
    std::swap(slots[0], slots[1]);
  }
  if (h0.server_role != 0 || h1.server_role != 1) {
    return ProtocolError("servers announce unknown roles");
  }
  domain_bits_ = h0.domain_bits;
  record_size_ = h0.record_size;
  keyword_seed_ = h0.keyword_seed;
  return Status::Ok();
}

Result<Bytes> PirSession::PrivateGetIndex(std::uint64_t index) {
  if (closed_) return FailedPreconditionError("session closed");
  if (index >= (std::uint64_t{1} << domain_bits_)) {
    return InvalidArgumentError("index outside universe domain");
  }
  return WithRetries([&](const net::Deadline& deadline) -> Result<Bytes> {
    const std::uint32_t id = next_request_id_++;
    // Fresh DPF key shares on every attempt: a resent share would let the
    // network link two sightings of the same query (docs/ROBUSTNESS.md).
    const pir::QueryKeys keys = pir::MakeIndexQuery(index, domain_bits_);
    LW_ASSIGN_OR_RETURN(const Bytes a0,
                        RoundTrip(0, id, keys.key0.Serialize(), deadline));
    LW_ASSIGN_OR_RETURN(const Bytes a1,
                        RoundTrip(1, id, keys.key1.Serialize(), deadline));
    Account({.requests = 1});
    if (a0.size() != record_size_ || a1.size() != record_size_) {
      return ProtocolError("server answer has wrong record size");
    }
    return pir::CombineAnswers(a0, a1);
  });
}

Result<Bytes> PirSession::PrivateGet(std::string_view key) {
  const pir::KeywordMapper mapper(keyword_seed_, domain_bits_);
  LW_ASSIGN_OR_RETURN(const Bytes record, PrivateGetIndex(mapper.IndexOf(key)));
  return pir::InterpretRecord(record, mapper.Fingerprint(key));
}

Result<std::vector<Result<Bytes>>> PirSession::PrivateGetBatch(
    const std::vector<std::string>& keys, int extra_dummies) {
  if (closed_) return FailedPreconditionError("session closed");
  if (extra_dummies < 0) return InvalidArgumentError("negative dummy count");
  const pir::KeywordMapper mapper(keyword_seed_, domain_bits_);
  const std::size_t total =
      keys.size() + static_cast<std::size_t>(extra_dummies);
  if (total == 0) return std::vector<Result<Bytes>>{};

  using BatchResult = std::vector<Result<Bytes>>;
  return WithRetries([&](const net::Deadline& deadline) -> Result<BatchResult> {
    // Build every query up front (real keys first, then dummy cover
    // queries at uniformly random indices — indistinguishable on the
    // wire). Rebuilt from scratch on every attempt so retried requests
    // carry fresh DPF shares and fresh dummy positions.
    std::vector<std::uint32_t> ids;
    std::vector<pir::QueryKeys> queries;
    ids.reserve(total);
    queries.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
      ids.push_back(next_request_id_++);
      queries.push_back(pir::MakeIndexQuery(
          i < keys.size() ? mapper.IndexOf(keys[i]) : RandomIndex(domain_bits_),
          domain_bits_));
    }

    // Pipeline: all requests out to both servers before reading anything.
    for (std::size_t i = 0; i < total; ++i) {
      const pir::QueryKeys& q = queries[i];
      LW_RETURN_IF_ERROR(
          Send(0, Encode(GetRequest{ids[i], q.key0.Serialize()}), deadline));
      LW_RETURN_IF_ERROR(
          Send(1, Encode(GetRequest{ids[i], q.key1.Serialize()}), deadline));
    }

    // Collect both servers' responses; they may arrive out of order.
    std::map<std::uint32_t, Bytes> answers[2];
    for (std::size_t side = 0; side < 2; ++side) {
      while (answers[side].size() < total) {
        LW_ASSIGN_OR_RETURN(const net::Frame in, Receive(side, deadline));
        LW_ASSIGN_OR_RETURN(GetResponse response, DecodeGetResponse(in));
        if (response.body.size() != record_size_) {
          return ProtocolError("server answer has wrong record size");
        }
        if (!answers[side]
                 .emplace(response.request_id, std::move(response.body))
                 .second) {
          return ProtocolError("duplicate response id");
        }
      }
    }
    Account({.requests = total});

    BatchResult out;
    out.reserve(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto it0 = answers[0].find(ids[i]);
      const auto it1 = answers[1].find(ids[i]);
      if (it0 == answers[0].end() || it1 == answers[1].end()) {
        out.push_back(ProtocolError("missing response for request id"));
        continue;
      }
      auto record = pir::CombineAnswers(it0->second, it1->second);
      if (!record.ok()) {
        out.push_back(record.status());
        continue;
      }
      out.push_back(
          pir::InterpretRecord(*record, mapper.Fingerprint(keys[i])));
    }
    return out;
  });
}

Status PirSession::DummyGet() {
  return PrivateGetIndex(RandomIndex(domain_bits_)).status();
}

// ------------------------------------------------------- EnclaveSession

Result<EnclaveSession> EnclaveSession::Establish(EstablishOptions options) {
  if (options.transport1 != nullptr || options.factory1) {
    return InvalidArgumentError("enclave mode uses a single server");
  }
  if (options.transport0 == nullptr && !options.factory0) {
    return InvalidArgumentError(
        "EstablishOptions needs a transport or a factory");
  }
  EnclaveSession session;
  LW_RETURN_IF_ERROR(session.Open(std::move(options)));
  return session;
}

Status EnclaveSession::Accept(std::vector<Slot>& /*slots*/,
                              std::vector<ServerHello>& hellos,
                              bool reestablish) {
  const ServerHello& hello = hellos[0];
  if (hello.enclave_public_key.size() != crypto::kX25519KeySize) {
    return ProtocolError("bad enclave public key");
  }
  if (reestablish && hello.record_size != record_size_) {
    return ProtocolError("universe parameters changed across redial");
  }
  // A restarted enclave may present a fresh keypair; requests are sealed
  // per-attempt against whatever key the live hello announced, so rotation
  // is safe (attestation of that key is out of scope here).
  record_size_ = hello.record_size;
  enclave_client_ =
      std::make_unique<oram::EnclaveClient>(hello.enclave_public_key);
  return Status::Ok();
}

Result<Bytes> EnclaveSession::PrivateGet(std::string_view key) {
  if (closed_) return FailedPreconditionError("session closed");
  auto sealed = WithRetries([&](const net::Deadline& deadline) {
    // Sealed fresh on every attempt: a new ephemeral key and nonce make the
    // retried ciphertext unlinkable to the first attempt, mirroring the
    // fresh-DPF-share rule in PIR mode.
    return RoundTrip(0, next_request_id_++,
                     enclave_client_->SealGetRequest(key), deadline);
  });
  if (!sealed.ok()) return sealed.status();
  Account({.requests = 1});
  // Opened after the attempt: a miss (NOT_FOUND) is the key's outcome, not
  // a failed exchange, so it keeps the connection.
  return enclave_client_->OpenResponse(*sealed);
}

Result<std::vector<Result<Bytes>>> EnclaveSession::PrivateGetBatch(
    const std::vector<std::string>& keys, int extra_dummies) {
  if (closed_) return FailedPreconditionError("session closed");
  if (extra_dummies < 0) return InvalidArgumentError("negative dummy count");
  std::vector<Result<Bytes>> out;
  out.reserve(keys.size());
  for (const std::string& key : keys) {
    auto r = PrivateGet(key);
    if (!r.ok() && r.status().code() != StatusCode::kNotFound &&
        r.status().code() != StatusCode::kCollision &&
        r.status().code() != StatusCode::kPermissionDenied) {
      return r.status();  // transport/protocol failure fails the batch
    }
    out.push_back(std::move(r));
  }
  for (int i = 0; i < extra_dummies; ++i) {
    LW_RETURN_IF_ERROR(DummyGet());
  }
  return out;
}

Status EnclaveSession::DummyGet() {
  // A fetch for a random never-published key: the enclave's access pattern
  // and response are indistinguishable from a hit.
  const Bytes r = SecureRandom(16);
  std::string key = "dummy/";
  for (std::uint8_t b : r) key += static_cast<char>('a' + (b % 26));
  auto result = PrivateGet(key);
  if (!result.ok() && result.status().code() != StatusCode::kNotFound) {
    return result.status();
  }
  return Status::Ok();
}

}  // namespace lw::zltp
