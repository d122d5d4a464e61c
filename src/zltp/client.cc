#include "zltp/client.h"

#include <algorithm>
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

struct HelloBytes {
  std::size_t sent = 0;
  std::size_t received = 0;
};

Result<ServerHello> HelloExchange(net::Transport& transport, Mode mode,
                                  const net::Deadline& deadline,
                                  HelloBytes& bytes) {
  ClientHello hello;
  hello.supported_modes = {mode};
  const net::Frame out = Encode(hello);
  LW_RETURN_IF_ERROR(transport.Send(out, deadline));
  bytes.sent += FrameWireSize(out);

  LW_ASSIGN_OR_RETURN(const net::Frame in, transport.Receive(deadline));
  bytes.received += FrameWireSize(in);
  if (in.type == static_cast<std::uint8_t>(MsgType::kError)) {
    LW_ASSIGN_OR_RETURN(const ErrorMsg e, DecodeError(in));
    return StatusFromError(e);
  }
  LW_ASSIGN_OR_RETURN(ServerHello server_hello, DecodeServerHello(in));
  if (server_hello.version != kProtocolVersion) {
    return ProtocolError("server speaks unsupported version");
  }
  if (server_hello.mode != mode) {
    return ProtocolError("server selected a mode we did not offer");
  }
  return server_hello;
}

net::Deadline MakeDeadline(std::chrono::nanoseconds timeout, Clock* clock) {
  if (timeout <= std::chrono::nanoseconds::zero()) {
    return net::Deadline::Infinite();
  }
  return net::Deadline::After(timeout, clock);
}

[[maybe_unused]] const Status& StatusOf(const Status& s) { return s; }
template <typename T>
const Status& StatusOf(const Result<T>& r) {
  return r.status();
}

}  // namespace

// ----------------------------------------------------------- PirSession

Result<PirSession> PirSession::Establish(EstablishOptions options) {
  if ((options.transport0 == nullptr && !options.factory0) ||
      (options.transport1 == nullptr && !options.factory1)) {
    return InvalidArgumentError(
        "EstablishOptions needs a transport or a factory for each server");
  }

  PirSession session;
  session.hello_timeout_ = options.hello_timeout;
  session.op_timeout_ = options.op_timeout;
  session.retry_ = options.retry;
  if (session.retry_.clock == nullptr) session.retry_.clock = options.clock;
  session.clock_ = options.clock;
  session.sink_ = options.traffic_sink;

  std::unique_ptr<net::Transport> t0 = std::move(options.transport0);
  std::unique_ptr<net::Transport> t1 = std::move(options.transport1);
  net::Backoff backoff(session.retry_, BackoffSeed());
  const int max_attempts = std::max(session.retry_.max_attempts, 1);
  const bool can_redial =
      static_cast<bool>(options.factory0) && static_cast<bool>(options.factory1);
  for (int attempt = 1;; ++attempt) {
    Status failure = Status::Ok();
    if (t0 == nullptr) {
      auto dialed = options.factory0();
      if (dialed.ok()) {
        t0 = std::move(*dialed);
      } else {
        failure = dialed.status();
      }
    }
    if (failure.ok() && t1 == nullptr) {
      auto dialed = options.factory1();
      if (dialed.ok()) {
        t1 = std::move(*dialed);
      } else {
        failure = dialed.status();
      }
    }
    if (failure.ok()) {
      failure = session.AdoptConnections(std::move(t0), std::move(t1),
                                         options.factory0, options.factory1,
                                         /*reestablish=*/false);
      if (failure.ok()) return session;
    }
    t0.reset();  // never reuse a connection from a failed attempt
    t1.reset();
    if (!net::IsRetryable(failure)) return failure;
    if (attempt >= max_attempts || !can_redial) return failure;
    backoff.SleepBeforeRetry();
    session.AccountRetry();
  }
}

net::Deadline PirSession::OpDeadline() const {
  return MakeDeadline(op_timeout_, clock_);
}

net::Deadline PirSession::HelloDeadline() const {
  return MakeDeadline(hello_timeout_, clock_);
}

Result<ServerHello> PirSession::HelloOn(net::Transport& transport) {
  HelloBytes bytes;
  auto hello =
      HelloExchange(transport, Mode::kTwoServerPir, HelloDeadline(), bytes);
  AccountSent(bytes.sent);
  AccountReceived(bytes.received);
  return hello;
}

Status PirSession::AdoptConnections(std::unique_ptr<net::Transport> t0,
                                    std::unique_ptr<net::Transport> t1,
                                    net::TransportFactory dial0,
                                    net::TransportFactory dial1,
                                    bool reestablish) {
  const auto fail = [&](Status s) {
    t0->Close();
    t1->Close();
    return s;
  };
  auto h0r = HelloOn(*t0);
  if (!h0r.ok()) return fail(h0r.status());
  auto h1r = HelloOn(*t1);
  if (!h1r.ok()) return fail(h1r.status());
  ServerHello h0 = std::move(*h0r);
  ServerHello h1 = std::move(*h1r);

  if (h0.server_role == h1.server_role) {
    return fail(FailedPreconditionError(
        "both connections reached the same logical server; the "
        "non-collusion assumption requires distinct trust domains"));
  }
  if (h0.domain_bits != h1.domain_bits || h0.record_size != h1.record_size ||
      h0.keyword_seed != h1.keyword_seed) {
    return fail(ProtocolError("servers disagree on universe parameters"));
  }
  if (h0.keyword_seed.size() != crypto::kSipHashKeySize) {
    return fail(ProtocolError("bad keyword seed size"));
  }
  if (h0.domain_bits < 1 || h0.domain_bits > dpf::kMaxDomainBits) {
    return fail(ProtocolError("bad domain_bits"));
  }

  if (reestablish) {
    // Redials are slot-stable: the role-0 factory must reach the role-0
    // server again (a flipped or re-announced role after a blip is a
    // misconfiguration or an attack, not a transient).
    if (h0.server_role != 0 || h1.server_role != 1) {
      return fail(
          FailedPreconditionError("server roles changed across redial"));
    }
    if (h0.domain_bits != domain_bits_ || h0.record_size != record_size_ ||
        h0.keyword_seed != keyword_seed_) {
      return fail(
          ProtocolError("universe parameters changed across redial"));
    }
  } else {
    // Order the connections by announced role so key0 goes to role 0.
    if (h0.server_role != 0) {
      std::swap(h0, h1);
      std::swap(t0, t1);
      std::swap(dial0, dial1);
    }
    if (h0.server_role != 0 || h1.server_role != 1) {
      return fail(ProtocolError("servers announce unknown roles"));
    }
    domain_bits_ = h0.domain_bits;
    record_size_ = h0.record_size;
    keyword_seed_ = h0.keyword_seed;
  }

  link0_ = Link{std::move(t0), std::move(dial0)};
  link1_ = Link{std::move(t1), std::move(dial1)};
  return Status::Ok();
}

bool PirSession::connected() const {
  return link0_.transport != nullptr && link1_.transport != nullptr;
}

bool PirSession::CanRedial() const {
  return static_cast<bool>(link0_.dial) && static_cast<bool>(link1_.dial);
}

Status PirSession::Redial() {
  if (!CanRedial()) {
    return UnavailableError("session disconnected (no redial factory)");
  }
  AccountRedial();
  auto d0 = link0_.dial();
  if (!d0.ok()) return d0.status();
  auto d1 = link1_.dial();
  if (!d1.ok()) {
    (*d0)->Close();
    return d1.status();
  }
  return AdoptConnections(std::move(*d0), std::move(*d1), link0_.dial,
                          link1_.dial, /*reestablish=*/true);
}

void PirSession::DropConnections() {
  // Drop BOTH connections even if only one faulted: an orphaned in-flight
  // response on the healthy side would desynchronize request ids for every
  // later query. The factories survive for redial.
  for (Link* link : {&link0_, &link1_}) {
    if (link->transport != nullptr) {
      link->transport->Close();
      link->transport.reset();
    }
  }
}

template <typename Op>
auto PirSession::WithRetries(Op&& op) -> decltype(op(net::Deadline())) {
  net::Backoff backoff(retry_, BackoffSeed());
  const int max_attempts = std::max(retry_.max_attempts, 1);
  for (int attempt = 1;; ++attempt) {
    Status failure = Status::Ok();
    if (!connected()) failure = Redial();
    if (failure.ok()) {
      auto result = op(OpDeadline());
      if (result.ok()) return result;
      failure = StatusOf(result);
      if (failure.code() == StatusCode::kDeadlineExceeded) {
        obs::M().client_op_timeouts.Inc();
      }
      if (!net::IsRetryable(failure)) return result;
      DropConnections();
    }
    if (!net::IsRetryable(failure)) return failure;
    if (attempt >= max_attempts || !CanRedial()) return failure;
    backoff.SleepBeforeRetry();
    AccountRetry();
  }
}

Result<Bytes> PirSession::RoundTrip(net::Transport& transport,
                                    const Bytes& body,
                                    std::uint32_t request_id,
                                    const net::Deadline& deadline) {
  GetRequest request;
  request.request_id = request_id;
  request.body = body;
  const net::Frame out = Encode(request);
  LW_RETURN_IF_ERROR(transport.Send(out, deadline));
  AccountSent(FrameWireSize(out));

  LW_ASSIGN_OR_RETURN(const net::Frame in, transport.Receive(deadline));
  AccountReceived(FrameWireSize(in));
  if (in.type == static_cast<std::uint8_t>(MsgType::kError)) {
    LW_ASSIGN_OR_RETURN(const ErrorMsg e, DecodeError(in));
    return StatusFromError(e);
  }
  LW_ASSIGN_OR_RETURN(const GetResponse response, DecodeGetResponse(in));
  if (response.request_id != request_id) {
    return ProtocolError("response id does not match request");
  }
  return response.body;
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
    LW_ASSIGN_OR_RETURN(
        const Bytes a0,
        RoundTrip(*link0_.transport, keys.key0.Serialize(), id, deadline));
    LW_ASSIGN_OR_RETURN(
        const Bytes a1,
        RoundTrip(*link1_.transport, keys.key1.Serialize(), id, deadline));
    AccountRequests(1);
    if (a0.size() != record_size_ || a1.size() != record_size_) {
      return ProtocolError("server answer has wrong record size");
    }
    return pir::CombineAnswers(a0, a1);
  });
}

Result<Bytes> PirSession::PrivateGet(std::string_view key) {
  if (closed_) return FailedPreconditionError("session closed");
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
    for (const std::string& key : keys) {
      ids.push_back(next_request_id_++);
      queries.push_back(
          pir::MakeIndexQuery(mapper.IndexOf(key), domain_bits_));
    }
    for (int i = 0; i < extra_dummies; ++i) {
      std::uint8_t buf[8];
      SecureRandomBytes(MutableByteSpan(buf, 8));
      ids.push_back(next_request_id_++);
      queries.push_back(pir::MakeIndexQuery(
          LoadLE64(buf) & ((std::uint64_t{1} << domain_bits_) - 1),
          domain_bits_));
    }

    // Pipeline: all requests out to both servers before reading anything.
    for (std::size_t i = 0; i < total; ++i) {
      for (int side = 0; side < 2; ++side) {
        GetRequest request;
        request.request_id = ids[i];
        request.body =
            (side == 0 ? queries[i].key0 : queries[i].key1).Serialize();
        const net::Frame out = Encode(request);
        LW_RETURN_IF_ERROR(
            (side == 0 ? link0_ : link1_).transport->Send(out, deadline));
        AccountSent(FrameWireSize(out));
      }
    }

    // Collect both servers' responses; they may arrive out of order.
    const auto collect =
        [&](net::Transport& t) -> Result<std::map<std::uint32_t, Bytes>> {
      std::map<std::uint32_t, Bytes> by_id;
      while (by_id.size() < total) {
        LW_ASSIGN_OR_RETURN(const net::Frame in, t.Receive(deadline));
        AccountReceived(FrameWireSize(in));
        if (in.type == static_cast<std::uint8_t>(MsgType::kError)) {
          LW_ASSIGN_OR_RETURN(const ErrorMsg e, DecodeError(in));
          return StatusFromError(e);
        }
        LW_ASSIGN_OR_RETURN(const GetResponse response,
                            DecodeGetResponse(in));
        if (response.body.size() != record_size_) {
          return ProtocolError("server answer has wrong record size");
        }
        if (!by_id.emplace(response.request_id, response.body).second) {
          return ProtocolError("duplicate response id");
        }
      }
      return by_id;
    };
    LW_ASSIGN_OR_RETURN(const auto answers0, collect(*link0_.transport));
    LW_ASSIGN_OR_RETURN(const auto answers1, collect(*link1_.transport));
    AccountRequests(total);

    BatchResult out;
    out.reserve(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto it0 = answers0.find(ids[i]);
      const auto it1 = answers1.find(ids[i]);
      if (it0 == answers0.end() || it1 == answers1.end()) {
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
  std::uint8_t buf[8];
  SecureRandomBytes(MutableByteSpan(buf, 8));
  const std::uint64_t index =
      LoadLE64(buf) & ((std::uint64_t{1} << domain_bits_) - 1);
  auto r = PrivateGetIndex(index);
  if (!r.ok()) return r.status();
  return Status::Ok();
}

void PirSession::Close() {
  for (Link* link : {&link0_, &link1_}) {
    if (link->transport != nullptr) {
      (void)link->transport->Send(EncodeBye(), net::Deadline::Infinite());
      link->transport->Close();
      link->transport.reset();
    }
  }
  closed_ = true;
}

void PirSession::AccountSent(std::size_t n) {
  traffic_.bytes_sent += n;
  if (sink_ != nullptr) sink_->bytes_sent += n;
  obs::M().client_bytes_sent.Inc(n);
}

void PirSession::AccountReceived(std::size_t n) {
  traffic_.bytes_received += n;
  if (sink_ != nullptr) sink_->bytes_received += n;
  obs::M().client_bytes_received.Inc(n);
}

void PirSession::AccountRequests(std::uint64_t n) {
  traffic_.requests += n;
  if (sink_ != nullptr) sink_->requests += n;
  obs::M().client_requests.Inc(n);
}

void PirSession::AccountRetry() {
  traffic_.retries += 1;
  if (sink_ != nullptr) sink_->retries += 1;
  obs::M().client_retries.Inc();
}

void PirSession::AccountRedial() {
  traffic_.redials += 1;
  if (sink_ != nullptr) sink_->redials += 1;
  obs::M().client_redials.Inc();
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
  session.hello_timeout_ = options.hello_timeout;
  session.op_timeout_ = options.op_timeout;
  session.retry_ = options.retry;
  if (session.retry_.clock == nullptr) session.retry_.clock = options.clock;
  session.clock_ = options.clock;
  session.sink_ = options.traffic_sink;
  session.dial_ = options.factory0;

  std::unique_ptr<net::Transport> t = std::move(options.transport0);
  net::Backoff backoff(session.retry_, BackoffSeed());
  const int max_attempts = std::max(session.retry_.max_attempts, 1);
  for (int attempt = 1;; ++attempt) {
    Status failure = Status::Ok();
    if (t == nullptr) {
      auto dialed = options.factory0();
      if (dialed.ok()) {
        t = std::move(*dialed);
      } else {
        failure = dialed.status();
      }
    }
    if (failure.ok()) {
      failure = session.Adopt(std::move(t), /*reestablish=*/false);
      if (failure.ok()) return session;
    }
    t.reset();
    if (!net::IsRetryable(failure)) return failure;
    if (attempt >= max_attempts || !options.factory0) return failure;
    backoff.SleepBeforeRetry();
    session.traffic_.retries += 1;
    if (session.sink_ != nullptr) session.sink_->retries += 1;
    obs::M().client_retries.Inc();
  }
}

net::Deadline EnclaveSession::OpDeadline() const {
  return MakeDeadline(op_timeout_, clock_);
}

net::Deadline EnclaveSession::HelloDeadline() const {
  return MakeDeadline(hello_timeout_, clock_);
}

Status EnclaveSession::Adopt(std::unique_ptr<net::Transport> transport,
                             bool reestablish) {
  HelloBytes bytes;
  auto hello_or =
      HelloExchange(*transport, Mode::kEnclave, HelloDeadline(), bytes);
  traffic_.bytes_sent += bytes.sent;
  traffic_.bytes_received += bytes.received;
  if (sink_ != nullptr) {
    sink_->bytes_sent += bytes.sent;
    sink_->bytes_received += bytes.received;
  }
  obs::M().client_bytes_sent.Inc(bytes.sent);
  obs::M().client_bytes_received.Inc(bytes.received);
  if (!hello_or.ok()) {
    transport->Close();
    return hello_or.status();
  }
  const ServerHello& hello = *hello_or;
  if (hello.enclave_public_key.size() != crypto::kX25519KeySize) {
    transport->Close();
    return ProtocolError("bad enclave public key");
  }
  if (reestablish && hello.record_size != record_size_) {
    transport->Close();
    return ProtocolError("universe parameters changed across redial");
  }
  // A restarted enclave may present a fresh keypair; requests are sealed
  // per-attempt against whatever key the live hello announced, so rotation
  // is safe (attestation of that key is out of scope here).
  record_size_ = hello.record_size;
  enclave_public_key_ = hello.enclave_public_key;
  enclave_client_ =
      std::make_unique<oram::EnclaveClient>(hello.enclave_public_key);
  server_ = std::move(transport);
  return Status::Ok();
}

Status EnclaveSession::Redial() {
  if (!dial_) {
    return UnavailableError("session disconnected (no redial factory)");
  }
  traffic_.redials += 1;
  if (sink_ != nullptr) sink_->redials += 1;
  obs::M().client_redials.Inc();
  auto dialed = dial_();
  if (!dialed.ok()) return dialed.status();
  return Adopt(std::move(*dialed), /*reestablish=*/true);
}

template <typename Op>
auto EnclaveSession::WithRetries(Op&& op) -> decltype(op(net::Deadline())) {
  net::Backoff backoff(retry_, BackoffSeed());
  const int max_attempts = std::max(retry_.max_attempts, 1);
  for (int attempt = 1;; ++attempt) {
    Status failure = Status::Ok();
    if (server_ == nullptr) failure = Redial();
    if (failure.ok()) {
      auto result = op(OpDeadline());
      if (result.ok()) return result;
      failure = StatusOf(result);
      if (failure.code() == StatusCode::kDeadlineExceeded) {
        obs::M().client_op_timeouts.Inc();
      }
      if (!net::IsRetryable(failure)) return result;
      if (server_ != nullptr) {
        server_->Close();
        server_.reset();
      }
    }
    if (!net::IsRetryable(failure)) return failure;
    if (attempt >= max_attempts || !dial_) return failure;
    backoff.SleepBeforeRetry();
    traffic_.retries += 1;
    if (sink_ != nullptr) sink_->retries += 1;
    obs::M().client_retries.Inc();
  }
}

Result<Bytes> EnclaveSession::PrivateGet(std::string_view key) {
  if (closed_) return FailedPreconditionError("session closed");
  return WithRetries([&](const net::Deadline& deadline) -> Result<Bytes> {
    GetRequest request;
    request.request_id = next_request_id_++;
    // Sealed fresh on every attempt: a new ephemeral key and nonce make the
    // retried ciphertext unlinkable to the first attempt, mirroring the
    // fresh-DPF-share rule in PIR mode.
    request.body = enclave_client_->SealGetRequest(key);
    const net::Frame out = Encode(request);
    LW_RETURN_IF_ERROR(server_->Send(out, deadline));
    traffic_.bytes_sent += FrameWireSize(out);
    if (sink_ != nullptr) sink_->bytes_sent += FrameWireSize(out);
    obs::M().client_bytes_sent.Inc(FrameWireSize(out));

    LW_ASSIGN_OR_RETURN(const net::Frame in, server_->Receive(deadline));
    traffic_.bytes_received += FrameWireSize(in);
    if (sink_ != nullptr) sink_->bytes_received += FrameWireSize(in);
    obs::M().client_bytes_received.Inc(FrameWireSize(in));
    if (in.type == static_cast<std::uint8_t>(MsgType::kError)) {
      LW_ASSIGN_OR_RETURN(const ErrorMsg e, DecodeError(in));
      return StatusFromError(e);
    }
    LW_ASSIGN_OR_RETURN(const GetResponse response, DecodeGetResponse(in));
    if (response.request_id != request.request_id) {
      return ProtocolError("response id does not match request");
    }
    traffic_.requests += 1;
    if (sink_ != nullptr) sink_->requests += 1;
    obs::M().client_requests.Inc();
    return enclave_client_->OpenResponse(response.body);
  });
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
  if (closed_) return FailedPreconditionError("session closed");
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

void EnclaveSession::Close() {
  if (server_ != nullptr) {
    (void)server_->Send(EncodeBye(), net::Deadline::Infinite());
    server_->Close();
    server_.reset();
  }
  closed_ = true;
}

}  // namespace lw::zltp
