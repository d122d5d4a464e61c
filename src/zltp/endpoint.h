// The endpoint core: one server connection's ZLTP protocol, written once.
//
// ZLTP (paper §2) runs over any reliable channel: a hello fixes the mode,
// then private GETs follow. Each of the four endpoint types
// (ZltpPirServer, ZltpEnclaveServer, ShardDataServer, FrontEndServer) owns
// one EndpointCore and plugs in only what differs (EndpointCore::Spec):
// its ServerHello, how it parses a request body, and one non-blocking
// answer call. The core owns the rest:
//
//   hello     the version and mode check, then the ServerHello
//   requests  Bye, the GetRequest decode, the GetResponse encode
//   errors    a refused hello or a frame that does not decode gets an
//             error frame, then a hang-up; a failed answer gets its error
//             frame and the connection keeps serving
//   telemetry the endpoint's counters and its RequestTrace
//
// Two drivers feed it frames, both through one net::Connections handler:
//
//   ServeOnReactor  TCP listeners on a net::Reactor: frames decode on the
//                   loop and replies queue with Reactor::Send.
//   ServeDetached   any net::Transport (in-memory pairs, the net/faulty.h
//                   decorators, accepted TCP connections) on the
//                   core's net::TransportPump (net/pump.h): a reader and a
//                   writer thread per connection, so a completion callback
//                   never blocks on the peer.
//
// Both drivers hand every request to the answer call without waiting for
// it, so one connection's pipelined requests co-ride a batch on either.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "net/connections.h"
#include "net/pump.h"
#include "net/reactor.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/bytes.h"
#include "util/status.h"
#include "zltp/messages.h"

namespace lw::zltp {

// What an endpoint type counts; a null member is not counted.
struct EndpointCounters {
  obs::Counter* connections = nullptr;       // connections opened
  obs::Gauge* active_connections = nullptr;  // connections open now
  obs::Counter* requests = nullptr;          // requests answered
  obs::Counter* request_errors = nullptr;    // refused or failed requests
  obs::Histogram* request_ns = nullptr;      // decode → reply, per request
  bool record_traces = false;  // a RequestTrace per answered request
};

class EndpointCore {
 public:
  // Fires exactly once per request, on any thread: the reply body or the
  // failure, with the batch's expand/scan timings (zero for answers without
  // those stages). The same type as BasicBatchScheduler's SubmitCallback.
  using Done = std::function<void(Result<Bytes>, const obs::StageTimings&)>;
  // Starts answering one parsed request and returns without waiting.
  using Answer = std::function<void(Done)>;

  struct Spec {
    // Answers the ClientHello, which must offer this hello's mode. Unset:
    // the link has no hello (the CDN-internal shard link).
    std::optional<ServerHello> hello = std::nullopt;
    // Parses a GetRequest body into the call that answers it; a body that
    // does not parse fails with the PROTOCOL_ERROR the peer is sent.
    std::function<Result<Answer>(Bytes body)> parse;
    EndpointCounters counters;
  };

  explicit EndpointCore(Spec spec);
  // Stops the pump: closes every pumped connection and joins its threads.
  // Answers still in flight complete into closed connections, so the
  // answer calls may outlive the core.
  ~EndpointCore();

  EndpointCore(const EndpointCore&) = delete;
  EndpointCore& operator=(const EndpointCore&) = delete;

  // The reactor binding. Teardown order: reactor.Stop() first (no more
  // callbacks into the core), then destroy the core's endpoint, then the
  // reactor object; answers completing in between queue to stale ids,
  // which Reactor::Send ignores.
  Status ServeOnReactor(net::Reactor& reactor, net::TcpListener listener);

  // The transport pump: serves `transport` on its own reader and writer
  // threads until the peer says Bye, hangs up, or breaks the protocol.
  void ServeDetached(std::unique_ptr<net::Transport> transport);

 private:
  struct Conn;

  // The one handler both drivers run; `conns` is the reactor or the pump.
  net::Connections::Handler MakeHandler(
      std::shared_ptr<net::Connections> conns) const;
  void OnFrame(Conn& conn, net::Frame frame) const;

  const Spec spec_;
  // Shared with the answers in flight on pumped connections, which may
  // complete after the core is gone; the destructor stops it first.
  const std::shared_ptr<net::TransportPump> pump_;
  const net::Connections::Handler pumped_;  // every pumped connection's
};

}  // namespace lw::zltp
