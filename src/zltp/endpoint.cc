#include "zltp/endpoint.h"

#include <mutex>
#include <string>
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

// One served connection: the driver that carries it, its id there, and
// whether its hello is still owed. Only the connection's reader (the loop,
// or the pump's reader thread) touches awaiting_hello.
struct EndpointCore::Conn {
  std::shared_ptr<net::Connections> conns;
  net::Connections::ConnId id = 0;
  bool awaiting_hello = false;
};

EndpointCore::EndpointCore(Spec spec)
    : spec_(std::move(spec)),
      pump_(std::make_shared<net::TransportPump>()),
      pumped_(MakeHandler(pump_)) {}

EndpointCore::~EndpointCore() { pump_->Stop(); }

net::Connections::Handler EndpointCore::MakeHandler(
    std::shared_ptr<net::Connections> conns) const {
  // The pump runs each connection's callbacks on that connection's reader
  // thread, so the records take a lock. A record stays put until its
  // connection's on_close, which never overlaps its other callbacks.
  struct Records {
    std::mutex mu;
    std::unordered_map<net::Connections::ConnId, Conn> by_id;
  };
  auto records = std::make_shared<Records>();
  net::Connections::Handler handler;
  handler.on_open = [this, records,
                     conns = std::move(conns)](net::Connections::ConnId id) {
    Count(spec_.counters.connections);
    if (spec_.counters.active_connections != nullptr) {
      spec_.counters.active_connections->Add(1);
    }
    std::lock_guard<std::mutex> lock(records->mu);
    records->by_id.emplace(id, Conn{conns, id, spec_.hello.has_value()});
  };
  handler.on_close = [this, records](net::Connections::ConnId id,
                                     const Status&) {
    std::lock_guard<std::mutex> lock(records->mu);
    if (records->by_id.erase(id) > 0 &&
        spec_.counters.active_connections != nullptr) {
      spec_.counters.active_connections->Add(-1);
    }
  };
  handler.on_frame = [this, records](net::Connections::ConnId id,
                                     net::Frame frame) {
    Conn* conn = nullptr;
    {
      std::lock_guard<std::mutex> lock(records->mu);
      const auto it = records->by_id.find(id);
      if (it == records->by_id.end()) return;
      conn = &it->second;
    }
    OnFrame(*conn, std::move(frame));
  };
  return handler;
}

void EndpointCore::OnFrame(Conn& conn, net::Frame frame) const {
  net::Connections& conns = *conn.conns;
  const auto refuse = [&conns, &conn](const Status& why) {
    (void)conns.Send(conn.id, ErrorFrame(why));
    conns.CloseAfterFlush(conn.id);
  };
  if (conn.awaiting_hello) {
    conn.awaiting_hello = false;
    if (Status bad = CheckHello(frame, spec_.hello->mode); !bad.ok()) {
      refuse(bad);
    } else {
      (void)conns.Send(conn.id, Encode(*spec_.hello));
    }
    return;
  }
  if (frame.type == static_cast<std::uint8_t>(MsgType::kBye)) {
    conns.CloseAfterFlush(conn.id);
    return;
  }

  const auto req_start = obs::TraceNow();
  const std::uint64_t start_unix_ms = obs::UnixMillis();
  Result<GetRequest> request = DecodeGetRequest(frame);
  Result<Answer> answer = request.ok()
                              ? spec_.parse(std::move(request->body))
                              : Result<Answer>(request.status());
  if (!answer.ok()) {
    Count(spec_.counters.request_errors);
    refuse(answer.status());
    return;
  }
  const std::uint64_t decode_ns = obs::ElapsedNs(req_start);
  // The callback runs wherever the answer completes (a batch worker, a
  // fan-out link, or this thread for an immediate failure). It holds the
  // driver and the connection's id, not the core: it may fire after the
  // core is gone, when a Send to the closed connection is a no-op.
  (*answer)([conns = conn.conns, id = conn.id, counters = spec_.counters,
             request_id = request->request_id, req_start, start_unix_ms,
             decode_ns](Result<Bytes> body, const obs::StageTimings& timings) {
    if (!body.ok()) {
      Count(counters.request_errors);
      (void)conns->Send(id, ErrorFrame(body.status()));
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
    (void)conns->Send(id, Encode(response));
    // reply_ns covers the encode and the enqueue; the driver owns the write.
    trace.stages.reply_ns = obs::ElapsedNs(reply_start);
    trace.total_ns = obs::ElapsedNs(req_start);
    Count(counters.requests);
    if (counters.request_ns != nullptr) {
      counters.request_ns->Observe(trace.total_ns);
    }
    if (counters.record_traces) obs::TraceRing::Default().Record(trace);
  });
}

Status EndpointCore::ServeOnReactor(net::Reactor& reactor,
                                    net::TcpListener listener) {
  // The serving contract keeps the reactor alive past every answer
  // (endpoint.h), so its records hold it without owning it.
  return reactor.AddListener(
      std::move(listener),
      MakeHandler(std::shared_ptr<net::Connections>(
          std::shared_ptr<net::Connections>(), &reactor)));
}

void EndpointCore::ServeDetached(std::unique_ptr<net::Transport> transport) {
  pump_->Adopt(std::move(transport), pumped_);
}

}  // namespace lw::zltp
