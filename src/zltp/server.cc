#include "zltp/server.h"

#include <atomic>
#include <chrono>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/log.h"

namespace lw::zltp {
namespace {

// Counts the connection and holds the active-connections gauge up for the
// lifetime of a ServeConnection call.
struct ActiveConnection {
  ActiveConnection() {
    obs::M().server_connections.Inc();
    obs::M().server_active_connections.Add(1);
  }
  ~ActiveConnection() { obs::M().server_active_connections.Add(-1); }
  ActiveConnection(const ActiveConnection&) = delete;
  ActiveConnection& operator=(const ActiveConnection&) = delete;
};

// Sends an error frame, ignoring transport failures (we are already on the
// way out if the send fails).
void SendError(net::Transport& t, StatusCode code, const std::string& msg) {
  ErrorMsg e;
  e.code = code;
  e.message = msg;
  (void)t.Send(Encode(e));
}

// Shared hello handling: reads the ClientHello and checks the mode.
Status ExpectHelloWithMode(net::Transport& t, Mode required) {
  auto frame = t.Receive(net::Deadline::Infinite());
  if (!frame.ok()) return frame.status();
  auto hello = DecodeClientHello(*frame);
  if (!hello.ok()) {
    SendError(t, StatusCode::kProtocolError, hello.status().message());
    return hello.status();
  }
  if (hello->version != kProtocolVersion) {
    SendError(t, StatusCode::kProtocolError, "unsupported protocol version");
    return ProtocolError("client speaks version " +
                         std::to_string(hello->version));
  }
  for (Mode m : hello->supported_modes) {
    if (m == required) return Status::Ok();
  }
  SendError(t, StatusCode::kFailedPrecondition,
            std::string("server only supports mode ") + ModeName(required));
  return FailedPreconditionError("client does not support required mode");
}

// --- reactor-mode helpers -------------------------------------------------
//
// Per-listener connection state for event-driven serving. Every reactor
// handler (on_open/on_frame/on_close) runs on the loop thread, so this
// needs no lock.
struct ReactorSessions {
  std::unordered_set<net::Reactor::ConnId> awaiting_hello;
};

// Queues an error frame; like SendError, failures are ignored (the
// connection is on its way out or the queue will notice).
void SendErrorFrameTo(net::Reactor& reactor, net::Reactor::ConnId id,
                      StatusCode code, const std::string& msg) {
  ErrorMsg e;
  e.code = code;
  e.message = msg;
  (void)reactor.Send(id, Encode(e));
}

// Reactor-mode twin of ExpectHelloWithMode, operating on an already-parsed
// frame: checks version and mode, and on failure queues the error and a
// graceful close (error frame then hang up, same as the threaded path).
Status CheckHelloFrame(net::Reactor& reactor, net::Reactor::ConnId id,
                       const net::Frame& frame, Mode required) {
  auto hello = DecodeClientHello(frame);
  Status bad = Status::Ok();
  if (!hello.ok()) {
    bad = hello.status();
    SendErrorFrameTo(reactor, id, StatusCode::kProtocolError, bad.message());
  } else if (hello->version != kProtocolVersion) {
    bad = ProtocolError("client speaks version " +
                        std::to_string(hello->version));
    SendErrorFrameTo(reactor, id, StatusCode::kProtocolError,
                     "unsupported protocol version");
  } else {
    bool supported = false;
    for (Mode m : hello->supported_modes) supported |= (m == required);
    if (!supported) {
      bad = FailedPreconditionError("client does not support required mode");
      SendErrorFrameTo(reactor, id, StatusCode::kFailedPrecondition,
                       std::string("server only supports mode ") +
                           ModeName(required));
    }
  }
  if (!bad.ok()) reactor.CloseAfterFlush(id);
  return bad;
}

}  // namespace

// --------------------------------------------------------------- PIR

ZltpPirServer::ZltpPirServer(const PirStore& store, std::uint8_t role,
                             ServerOptions options)
    : store_(store),
      role_(role),
      pool_(options.num_threads == 1
                ? nullptr
                : std::make_unique<ThreadPool>(options.num_threads)),
      batcher_(store, options.batch_config, pool_.get()) {
  LW_CHECK_MSG(role <= 1, "PIR server role must be 0 or 1");
}

ZltpPirServer::~ZltpPirServer() {
  batcher_.Stop();
  // Snapshot-then-join: handlers may still be enqueueing via
  // ServeConnectionDetached, and a joined thread must never be waiting on
  // threads_mu_ itself, so the lock covers only the state swap.
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<net::Transport>> transports;
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    stopping_ = true;
    threads.swap(threads_);
    transports.swap(owned_transports_);
  }
  for (auto& t : transports) t->Close();
  for (auto& th : threads) {
    if (th.joinable()) th.join();
  }
}

void ZltpPirServer::ServeConnection(net::Transport& transport) {
  ActiveConnection conn_guard;
  if (!ExpectHelloWithMode(transport, Mode::kTwoServerPir).ok()) return;

  ServerHello hello;
  hello.mode = Mode::kTwoServerPir;
  hello.server_role = role_;
  hello.domain_bits = static_cast<std::uint8_t>(store_.domain_bits());
  hello.record_size = static_cast<std::uint32_t>(store_.record_size());
  hello.keyword_seed = store_.config().keyword_seed;
  if (!transport.Send(Encode(hello)).ok()) return;

  // Pipelined requests from one connection are handled concurrently so they
  // co-ride the batch scheduler's scans (responses may be sent out of
  // order; the protocol matches them by request id). Worker count is
  // bounded: excess requests are handled inline, which naturally
  // back-pressures a flooding client.
  constexpr int kMaxInflight = 32;
  std::mutex send_mu;
  std::atomic<int> inflight{0};
  std::vector<std::thread> workers;

  const auto handle = [this, &transport, &send_mu](
                          std::uint32_t request_id, dpf::DpfKey key,
                          std::uint64_t start_unix_ms,
                          std::chrono::steady_clock::time_point req_start,
                          std::uint64_t decode_ns) {
    obs::RequestTrace trace;
    trace.start_unix_ms = start_unix_ms;
    trace.stages.decode_ns = decode_ns;
    // Submit fills in the batch-attributed expand/scan stage timings.
    auto answer = batcher_.Submit(std::move(key), &trace.stages);
    std::lock_guard<std::mutex> lock(send_mu);
    if (!answer.ok()) {
      obs::M().server_request_errors.Inc();
      SendError(transport, answer.status().code(),
                answer.status().message());
      return;
    }
    GetResponse response;
    response.request_id = request_id;
    response.body = std::move(*answer);
    const auto reply_start = obs::TraceNow();
    (void)transport.Send(Encode(response));
    trace.stages.reply_ns = obs::ElapsedNs(reply_start);
    trace.total_ns = obs::ElapsedNs(req_start);
    obs::M().server_requests.Inc();
    obs::M().server_request_ns.Observe(trace.total_ns);
    obs::TraceRing::Default().Record(trace);
  };

  for (;;) {
    // The batcher's long-poll: the server deliberately waits forever for
    // the next pipelined request; the client owns all timeout decisions.
    // lwlint: allow(receive-without-deadline)
    auto frame = transport.Receive();
    if (!frame.ok()) break;  // disconnect
    if (frame->type == static_cast<std::uint8_t>(MsgType::kBye)) break;

    const auto req_start = obs::TraceNow();
    const std::uint64_t start_unix_ms = obs::UnixMillis();
    auto request = DecodeGetRequest(*frame);
    if (!request.ok()) {
      obs::M().server_request_errors.Inc();
      std::lock_guard<std::mutex> lock(send_mu);
      SendError(transport, StatusCode::kProtocolError,
                request.status().message());
      break;
    }
    auto key = dpf::DpfKey::Deserialize(request->body);
    if (!key.ok()) {
      obs::M().server_request_errors.Inc();
      std::lock_guard<std::mutex> lock(send_mu);
      SendError(transport, StatusCode::kProtocolError,
                "malformed DPF key: " + key.status().message());
      break;
    }
    const std::uint64_t decode_ns = obs::ElapsedNs(req_start);
    if (inflight.load() < kMaxInflight) {
      ++inflight;
      workers.emplace_back(
          [&handle, &inflight, id = request->request_id, start_unix_ms,
           req_start, decode_ns, k = std::move(*key)]() mutable {
            handle(id, std::move(k), start_unix_ms, req_start, decode_ns);
            --inflight;
          });
    } else {
      handle(request->request_id, std::move(*key), start_unix_ms, req_start,
             decode_ns);
    }
  }
  for (std::thread& w : workers) {
    if (w.joinable()) w.join();
  }
}

void ZltpPirServer::ServeConnectionDetached(
    std::unique_ptr<net::Transport> transport) {
  std::lock_guard<std::mutex> lock(threads_mu_);
  if (stopping_) {
    transport->Close();
    return;
  }
  net::Transport* raw = transport.get();
  owned_transports_.push_back(std::move(transport));
  threads_.emplace_back([this, raw] { ServeConnection(*raw); });
}

Status ZltpPirServer::ServeOnReactor(net::Reactor& reactor,
                                     net::TcpListener listener) {
  auto sessions = std::make_shared<ReactorSessions>();
  net::Reactor::Handler handler;
  handler.on_open = [sessions](net::Reactor::ConnId id) {
    obs::M().server_connections.Inc();
    obs::M().server_active_connections.Add(1);
    sessions->awaiting_hello.insert(id);
  };
  handler.on_close = [sessions](net::Reactor::ConnId id, const Status&) {
    obs::M().server_active_connections.Add(-1);
    sessions->awaiting_hello.erase(id);
  };
  handler.on_frame = [this, sessions, &reactor](net::Reactor::ConnId id,
                                                net::Frame frame) {
    if (sessions->awaiting_hello.erase(id) > 0) {
      if (!CheckHelloFrame(reactor, id, frame, Mode::kTwoServerPir).ok()) {
        return;
      }
      ServerHello hello;
      hello.mode = Mode::kTwoServerPir;
      hello.server_role = role_;
      hello.domain_bits = static_cast<std::uint8_t>(store_.domain_bits());
      hello.record_size = static_cast<std::uint32_t>(store_.record_size());
      hello.keyword_seed = store_.config().keyword_seed;
      (void)reactor.Send(id, Encode(hello));
      return;
    }
    if (frame.type == static_cast<std::uint8_t>(MsgType::kBye)) {
      reactor.CloseAfterFlush(id);
      return;
    }
    const auto req_start = obs::TraceNow();
    const std::uint64_t start_unix_ms = obs::UnixMillis();
    auto request = DecodeGetRequest(frame);
    if (!request.ok()) {
      obs::M().server_request_errors.Inc();
      SendErrorFrameTo(reactor, id, StatusCode::kProtocolError,
                       request.status().message());
      reactor.CloseAfterFlush(id);
      return;
    }
    auto key = dpf::DpfKey::Deserialize(request->body);
    if (!key.ok()) {
      obs::M().server_request_errors.Inc();
      SendErrorFrameTo(reactor, id, StatusCode::kProtocolError,
                       "malformed DPF key: " + key.status().message());
      reactor.CloseAfterFlush(id);
      return;
    }
    const std::uint64_t decode_ns = obs::ElapsedNs(req_start);
    // The admission queue is the scheduler: no per-request thread exists.
    // The batch worker runs this callback and queues the reply; reply_ns
    // covers the enqueue (the loop owns the socket write).
    batcher_.SubmitAsync(
        std::move(*key),
        [&reactor, id, request_id = request->request_id, start_unix_ms,
         req_start, decode_ns](Result<Bytes> answer,
                               const obs::StageTimings& timings) {
          if (!answer.ok()) {
            obs::M().server_request_errors.Inc();
            SendErrorFrameTo(reactor, id, answer.status().code(),
                             answer.status().message());
            return;
          }
          obs::RequestTrace trace;
          trace.start_unix_ms = start_unix_ms;
          trace.stages.decode_ns = decode_ns;
          trace.stages.expand_ns = timings.expand_ns;
          trace.stages.scan_ns = timings.scan_ns;
          GetResponse response;
          response.request_id = request_id;
          response.body = std::move(*answer);
          const auto reply_start = obs::TraceNow();
          (void)reactor.Send(id, Encode(response));
          trace.stages.reply_ns = obs::ElapsedNs(reply_start);
          trace.total_ns = obs::ElapsedNs(req_start);
          obs::M().server_requests.Inc();
          obs::M().server_request_ns.Observe(trace.total_ns);
          obs::TraceRing::Default().Record(trace);
        });
  };
  return reactor.AddListener(std::move(listener), std::move(handler));
}

// ------------------------------------------------------------ enclave

ZltpEnclaveServer::ZltpEnclaveServer(oram::KvEnclave& enclave)
    : enclave_(enclave) {}

ZltpEnclaveServer::~ZltpEnclaveServer() {
  // Snapshot-then-join (see ZltpPirServer::~ZltpPirServer).
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<net::Transport>> transports;
  {
    std::lock_guard<std::mutex> lock(threads_mu_);
    stopping_ = true;
    threads.swap(threads_);
    transports.swap(owned_transports_);
  }
  for (auto& t : transports) t->Close();
  for (auto& th : threads) {
    if (th.joinable()) th.join();
  }
}

void ZltpEnclaveServer::ServeConnection(net::Transport& transport) {
  ActiveConnection conn_guard;
  if (!ExpectHelloWithMode(transport, Mode::kEnclave).ok()) return;

  ServerHello hello;
  hello.mode = Mode::kEnclave;
  hello.record_size = static_cast<std::uint32_t>(enclave_.value_size());
  hello.enclave_public_key = enclave_.public_key();
  if (!transport.Send(Encode(hello)).ok()) return;

  for (;;) {
    auto frame = transport.Receive(net::Deadline::Infinite());
    if (!frame.ok()) return;
    if (frame->type == static_cast<std::uint8_t>(MsgType::kBye)) return;

    const auto req_start = obs::TraceNow();
    obs::RequestTrace trace;
    trace.start_unix_ms = obs::UnixMillis();
    auto request = DecodeGetRequest(*frame);
    if (!request.ok()) {
      obs::M().server_request_errors.Inc();
      SendError(transport, StatusCode::kProtocolError,
                request.status().message());
      return;
    }
    trace.stages.decode_ns = obs::ElapsedNs(req_start);
    Result<Bytes> sealed = UnavailableError("unset");
    {
      std::lock_guard<std::mutex> lock(enclave_mu_);
      sealed = enclave_.HandleEncryptedRequest(request->body);
    }
    if (!sealed.ok()) {
      obs::M().server_request_errors.Inc();
      SendError(transport, sealed.status().code(), sealed.status().message());
      continue;
    }
    GetResponse response;
    response.request_id = request->request_id;
    response.body = std::move(*sealed);
    const auto reply_start = obs::TraceNow();
    const bool sent = transport.Send(Encode(response)).ok();
    // Enclave requests have no DPF expansion or scan pass, so those stage
    // timings stay zero; the enclave compute rides in total_ns.
    trace.stages.reply_ns = obs::ElapsedNs(reply_start);
    trace.total_ns = obs::ElapsedNs(req_start);
    obs::M().server_requests.Inc();
    obs::M().server_request_ns.Observe(trace.total_ns);
    obs::TraceRing::Default().Record(trace);
    if (!sent) return;
  }
}

void ZltpEnclaveServer::ServeConnectionDetached(
    std::unique_ptr<net::Transport> transport) {
  std::lock_guard<std::mutex> lock(threads_mu_);
  if (stopping_) {
    transport->Close();
    return;
  }
  net::Transport* raw = transport.get();
  owned_transports_.push_back(std::move(transport));
  threads_.emplace_back([this, raw] { ServeConnection(*raw); });
}

Status ZltpEnclaveServer::ServeOnReactor(net::Reactor& reactor,
                                         net::TcpListener listener) {
  {
    // One dispatcher worker: the enclave is serialized by enclave_mu_
    // anyway, and one worker preserves per-connection reply order.
    std::lock_guard<std::mutex> lock(threads_mu_);
    if (dispatch_ == nullptr) dispatch_ = std::make_unique<TaskQueue>(1);
  }
  auto sessions = std::make_shared<ReactorSessions>();
  net::Reactor::Handler handler;
  handler.on_open = [sessions](net::Reactor::ConnId id) {
    obs::M().server_connections.Inc();
    obs::M().server_active_connections.Add(1);
    sessions->awaiting_hello.insert(id);
  };
  handler.on_close = [sessions](net::Reactor::ConnId id, const Status&) {
    obs::M().server_active_connections.Add(-1);
    sessions->awaiting_hello.erase(id);
  };
  handler.on_frame = [this, sessions, &reactor](net::Reactor::ConnId id,
                                                net::Frame frame) {
    if (sessions->awaiting_hello.erase(id) > 0) {
      if (!CheckHelloFrame(reactor, id, frame, Mode::kEnclave).ok()) return;
      ServerHello hello;
      hello.mode = Mode::kEnclave;
      hello.record_size = static_cast<std::uint32_t>(enclave_.value_size());
      hello.enclave_public_key = enclave_.public_key();
      (void)reactor.Send(id, Encode(hello));
      return;
    }
    if (frame.type == static_cast<std::uint8_t>(MsgType::kBye)) {
      reactor.CloseAfterFlush(id);
      return;
    }
    const auto req_start = obs::TraceNow();
    const std::uint64_t start_unix_ms = obs::UnixMillis();
    auto request = DecodeGetRequest(frame);
    if (!request.ok()) {
      obs::M().server_request_errors.Inc();
      SendErrorFrameTo(reactor, id, StatusCode::kProtocolError,
                       request.status().message());
      reactor.CloseAfterFlush(id);
      return;
    }
    const std::uint64_t decode_ns = obs::ElapsedNs(req_start);
    // The enclave's ORAM access is blocking compute; hop off the loop.
    dispatch_->Post([this, &reactor, id, req = std::move(*request),
                     req_start, start_unix_ms, decode_ns] {
      Result<Bytes> sealed = UnavailableError("unset");
      {
        std::lock_guard<std::mutex> lock(enclave_mu_);
        sealed = enclave_.HandleEncryptedRequest(req.body);
      }
      if (!sealed.ok()) {
        obs::M().server_request_errors.Inc();
        SendErrorFrameTo(reactor, id, sealed.status().code(),
                         sealed.status().message());
        return;
      }
      obs::RequestTrace trace;
      trace.start_unix_ms = start_unix_ms;
      trace.stages.decode_ns = decode_ns;
      GetResponse response;
      response.request_id = req.request_id;
      response.body = std::move(*sealed);
      const auto reply_start = obs::TraceNow();
      (void)reactor.Send(id, Encode(response));
      trace.stages.reply_ns = obs::ElapsedNs(reply_start);
      trace.total_ns = obs::ElapsedNs(req_start);
      obs::M().server_requests.Inc();
      obs::M().server_request_ns.Observe(trace.total_ns);
      obs::TraceRing::Default().Record(trace);
    });
  };
  return reactor.AddListener(std::move(listener), std::move(handler));
}

}  // namespace lw::zltp
