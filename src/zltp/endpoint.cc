#include "zltp/endpoint.h"

#include <deque>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

namespace lw::zltp {
namespace {

net::Frame ErrorFrame(const Status& why) {
  ErrorMsg e;
  e.code = why.code();
  e.message = why.message();
  return Encode(e);
}

// A peer on another protocol version cannot parse our keys
// (PROTOCOL_ERROR); one without our mode has nothing to ask us
// (FAILED_PRECONDITION).
Status CheckHello(const net::Frame& frame, Mode mode) {
  LW_ASSIGN_OR_RETURN(const ClientHello hello, DecodeClientHello(frame));
  if (hello.version != kProtocolVersion) {
    return ProtocolError("unsupported protocol version");
  }
  for (Mode m : hello.supported_modes) {
    if (m == mode) return Status::Ok();
  }
  return FailedPreconditionError(std::string("server only supports mode ") +
                                 ModeName(mode));
}

void Count(obs::Counter* counter) {
  if (counter != nullptr) counter->Inc();
}

}  // namespace

// One served connection, as the core sees it.
class EndpointCore::Conn {
 public:
  virtual ~Conn() = default;
  // Queues a frame for the peer; any thread, never blocks. Frames queued
  // after HangUp() are dropped.
  virtual void Send(net::Frame frame) = 0;
  // Stops reading, sends what is queued, then closes.
  virtual void HangUp() = 0;

  // Only the connection's reader (the loop, or the pump's reader thread)
  // touches this.
  bool awaiting_hello = false;
};

class EndpointCore::ReactorConn final : public Conn {
 public:
  ReactorConn(net::Reactor& reactor, net::Reactor::ConnId id)
      : reactor_(reactor), id_(id) {}

  void Send(net::Frame frame) override { (void)reactor_.Send(id_, frame); }
  void HangUp() override { reactor_.CloseAfterFlush(id_); }

 private:
  net::Reactor& reactor_;
  const net::Reactor::ConnId id_;
};

// The pump's connection: the reader thread owns the receive side, and the
// writer thread drains `outbox_` into the transport.
class EndpointCore::PumpConn final : public Conn {
 public:
  explicit PumpConn(std::unique_ptr<net::Transport> transport)
      : transport_(std::move(transport)) {}

  void Send(net::Frame frame) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (hung_up_) return;
      outbox_.push_back(std::move(frame));
    }
    cv_.notify_all();
  }

  void HangUp() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      hung_up_ = true;
    }
    cv_.notify_all();
  }

  // Fails the reader's Receive and the writer's Send; any thread.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      hung_up_ = true;
      if (transport_ != nullptr) transport_->Close();
    }
    cv_.notify_all();
  }

  // The reader's view; valid until Release().
  net::Transport& transport() { return *transport_; }

  // The writer thread: sends queued frames until the connection hangs up
  // and its queue is empty, or a send fails.
  void WriteLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return hung_up_ || !outbox_.empty(); });
      if (outbox_.empty()) return;
      const net::Frame frame = std::move(outbox_.front());
      outbox_.pop_front();
      lock.unlock();
      // A peer that stops reading stalls only this thread; Close() ends
      // the wait.
      const Status sent = transport_->Send(frame, net::Deadline::Infinite());
      lock.lock();
      if (!sent.ok()) {
        // The stream may be cut mid-frame: end the reader's wait too.
        hung_up_ = true;
        outbox_.clear();
        transport_->Close();
        return;
      }
    }
  }

  // Once reader and writer are done: closes the transport and frees it.
  void Release() {
    std::unique_ptr<net::Transport> transport;
    {
      std::lock_guard<std::mutex> lock(mu_);
      transport = std::move(transport_);
    }
    transport->Close();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::unique_ptr<net::Transport> transport_;  // null once released
  std::deque<net::Frame> outbox_;
  bool hung_up_ = false;
};

EndpointCore::EndpointCore(Spec spec) : spec_(std::move(spec)) {}

EndpointCore::~EndpointCore() {
  std::thread last;
  {
    std::unique_lock<std::mutex> lock(pump_mu_);
    stopping_ = true;
    for (const auto& [conn, reader] : readers_) conn->Close();
    pump_cv_.wait(lock, [this] { return readers_.empty(); });
    last = std::move(ended_);
  }
  if (last.joinable()) last.join();
}

void EndpointCore::Opened(Conn& conn) const {
  conn.awaiting_hello = spec_.hello.has_value();
  Count(spec_.counters.connections);
  if (spec_.counters.active_connections != nullptr) {
    spec_.counters.active_connections->Add(1);
  }
}

void EndpointCore::Closed() const {
  if (spec_.counters.active_connections != nullptr) {
    spec_.counters.active_connections->Add(-1);
  }
}

bool EndpointCore::OnFrame(const std::shared_ptr<Conn>& conn,
                           net::Frame frame) const {
  const auto refuse = [&conn](const Status& why) {
    conn->Send(ErrorFrame(why));
    conn->HangUp();
    return false;
  };
  if (conn->awaiting_hello) {
    conn->awaiting_hello = false;
    if (Status bad = CheckHello(frame, spec_.hello->mode); !bad.ok()) {
      return refuse(bad);
    }
    conn->Send(Encode(*spec_.hello));
    return true;
  }
  if (frame.type == static_cast<std::uint8_t>(MsgType::kBye)) {
    conn->HangUp();
    return false;
  }

  const auto req_start = obs::TraceNow();
  const std::uint64_t start_unix_ms = obs::UnixMillis();
  Result<GetRequest> request = DecodeGetRequest(frame);
  Result<Answer> answer = request.ok()
                              ? spec_.parse(std::move(request->body))
                              : Result<Answer>(request.status());
  if (!answer.ok()) {
    Count(spec_.counters.request_errors);
    return refuse(answer.status());
  }
  const std::uint64_t decode_ns = obs::ElapsedNs(req_start);
  // The callback runs wherever the answer completes (a batch worker, a
  // fan-out link, or this thread for an immediate failure). It holds the
  // connection, not the core: it may fire after the core is gone.
  (*answer)([conn, counters = spec_.counters,
             request_id = request->request_id, req_start, start_unix_ms,
             decode_ns](Result<Bytes> body, const obs::StageTimings& timings) {
    if (!body.ok()) {
      Count(counters.request_errors);
      conn->Send(ErrorFrame(body.status()));
      return;
    }
    obs::RequestTrace trace;
    trace.start_unix_ms = start_unix_ms;
    trace.stages.decode_ns = decode_ns;
    trace.stages.expand_ns = timings.expand_ns;
    trace.stages.scan_ns = timings.scan_ns;
    GetResponse response;
    response.request_id = request_id;
    response.body = std::move(*body);
    const auto reply_start = obs::TraceNow();
    conn->Send(Encode(response));
    // reply_ns covers the encode and the enqueue; the driver owns the write.
    trace.stages.reply_ns = obs::ElapsedNs(reply_start);
    trace.total_ns = obs::ElapsedNs(req_start);
    Count(counters.requests);
    if (counters.request_ns != nullptr) {
      counters.request_ns->Observe(trace.total_ns);
    }
    if (counters.record_traces) obs::TraceRing::Default().Record(trace);
  });
  return true;
}

// ------------------------------------------------------- reactor binding

Status EndpointCore::ServeOnReactor(net::Reactor& reactor,
                                    net::TcpListener listener) {
  // Every handler runs on the loop thread, so the map needs no lock.
  auto conns = std::make_shared<
      std::unordered_map<net::Reactor::ConnId, std::shared_ptr<Conn>>>();
  net::Reactor::Handler handler;
  handler.on_open = [this, conns, &reactor](net::Reactor::ConnId id) {
    auto conn = std::make_shared<ReactorConn>(reactor, id);
    Opened(*conn);
    conns->emplace(id, std::move(conn));
  };
  handler.on_close = [this, conns](net::Reactor::ConnId id, const Status&) {
    if (conns->erase(id) > 0) Closed();
  };
  handler.on_frame = [this, conns](net::Reactor::ConnId id,
                                   net::Frame frame) {
    const auto it = conns->find(id);
    if (it != conns->end()) (void)OnFrame(it->second, std::move(frame));
  };
  return reactor.AddListener(std::move(listener), std::move(handler));
}

// -------------------------------------------------------- transport pump

void EndpointCore::ServeDetached(std::unique_ptr<net::Transport> transport) {
  auto conn = std::make_shared<PumpConn>(std::move(transport));
  std::lock_guard<std::mutex> lock(pump_mu_);
  if (stopping_) {
    conn->Close();
    return;
  }
  // Under pump_mu_, so the reader finds its own entry when it ends.
  std::thread reader([this, conn] {
    Pump(conn);
    std::thread previous;
    {
      std::lock_guard<std::mutex> lock(pump_mu_);
      const auto self = readers_.find(conn.get());
      previous = std::exchange(ended_, std::move(self->second));
      readers_.erase(self);
    }
    pump_cv_.notify_all();
    // Finished threads never pile up: each ended reader joins the one
    // that ended before it, and the destructor joins the last.
    if (previous.joinable()) previous.join();
  });
  readers_.emplace(conn.get(), std::move(reader));
}

void EndpointCore::Pump(const std::shared_ptr<PumpConn>& conn) const {
  Opened(*conn);
  std::thread writer([&conn] { conn->WriteLoop(); });
  for (;;) {
    // The peer owns every timeout: the server waits for its next request,
    // and Close() ends the wait.
    auto frame = conn->transport().Receive(net::Deadline::Infinite());
    if (!frame.ok() || !OnFrame(conn, std::move(*frame))) break;
  }
  conn->HangUp();
  writer.join();
  conn->Release();
  Closed();
}

}  // namespace lw::zltp
