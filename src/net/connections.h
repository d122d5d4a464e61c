// The connection API that net::Reactor and net::TransportPump share.
//
// The reactor multiplexes sockets on one epoll loop; the transport pump
// (net/pump.h) drives blocking net::Transports on threads. Both hand each
// connection's frames to a Handler and take its replies through the calls
// below, so code written against Connections — the ZLTP endpoint core, the
// shard fan-out's links — runs one code path over either.
#pragma once

#include <cstdint>
#include <functional>

#include "net/transport.h"
#include "util/status.h"

namespace lw::net {

class Connections {
 public:
  // Identifies one connection for the lifetime of its host. Ids are never
  // reused, so a stale id after a close is a harmless no-op, never a
  // message to the wrong peer.
  using ConnId = std::uint64_t;

  // Per-connection callbacks. Within one connection they never overlap,
  // and on_close is always the last.
  struct Handler {
    // The connection is established (accepted, dialled or adopted).
    std::function<void(ConnId)> on_open;
    // One complete frame arrived. Must not block: it decodes and hands off
    // (e.g. BatchScheduler::SubmitAsync or ShardFanout::AnswerAsync).
    std::function<void(ConnId, Frame)> on_frame;
    // The connection is gone (peer close, protocol error, failed dial,
    // timer expiry, or an explicit close); the id is dead after this
    // returns.
    std::function<void(ConnId, const Status&)> on_close;
  };

  // Queues one frame for `id` and returns without waiting for the peer.
  // Thread-safe; callable from handlers and from compute threads.
  // UNAVAILABLE if the connection is gone or closing.
  virtual Status Send(ConnId id, const Frame& frame) = 0;

  // Immediate close: drops queued frames; on_close follows.
  virtual void Close(ConnId id) = 0;

  // Graceful close: stops reading, sends what is queued, then closes.
  // The ZLTP "error frame then hang up" and Bye paths need this — an
  // immediate close would race the reply out of existence.
  virtual void CloseAfterFlush(ConnId id) = 0;

 protected:
  ~Connections() = default;  // hosts are not deleted through this interface
};

}  // namespace lw::net
