// The transport pump: blocking net::Transports behind the Connections API.
//
// A net::Transport (the in-memory pair, the net/faulty.h decorators, a
// TcpTransport) only offers blocking Send and Receive. The pump drives each
// one with two threads and exposes it through the same calls as
// net::Reactor, so a handler written for the reactor serves a transport
// unchanged:
//
//   reader thread  dials (Connect), then receives frames, and runs every
//                  callback of its connection: on_open, each on_frame, and
//                  on_close last, once the writer has finished and the
//                  transport is closed and freed.
//   writer thread  drains the connection's send queue, so Send never
//                  blocks on the peer.
//
// A connection ends when its transport fails, the peer hangs up, or a
// Close/CloseAfterFlush finishes; its transport is freed at once and its
// threads finish (the next connection to end joins them). Stop(), which the
// destructor calls, closes every connection and joins every thread.
#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "net/connections.h"
#include "net/transport.h"
#include "util/status.h"

namespace lw::net {

class TransportPump final : public Connections {
 public:
  ~TransportPump();  // Stop()s.

  // Serves an open transport.
  ConnId Adopt(std::unique_ptr<Transport> transport, Handler handler);

  // Dials with `factory` on the connection's reader thread and returns at
  // once; frames sent meanwhile wait for the dial. A failed dial surfaces
  // as on_close with the factory's status, as a refused peer does for
  // Reactor::Connect.
  ConnId Connect(TransportFactory factory, Handler handler);

  // Closes every connection, waits for each on_close, and joins every
  // thread. Afterwards Send fails UNAVAILABLE, and a connection Adopt or
  // Connect starts closes at once, with UNAVAILABLE. An owner that shares
  // the pump with callbacks that may outlive it stops it first, as a
  // reactor's owner does. Idempotent.
  void Stop();

  Status Send(ConnId id, const Frame& frame) override;
  // The transport's own Close runs on the calling thread.
  void Close(ConnId id) override;
  void CloseAfterFlush(ConnId id) override;

 private:
  struct Conn;

  ConnId Start(std::shared_ptr<Transport> transport, TransportFactory factory,
               Handler handler);
  std::shared_ptr<Conn> Find(ConnId id);
  // The reader thread: dial, read, then end the connection.
  void Run(Conn& conn);
  void ReadLoop(Conn& conn, Transport& transport);
  void WriteLoop(Conn& conn, Transport& transport);
  // Drops the ended connection and joins the reader that ended before it.
  void Retire(ConnId id);

  std::mutex mu_;  // guards the members below
  std::condition_variable retired_cv_;
  std::map<ConnId, std::shared_ptr<Conn>> conns_;
  ConnId next_id_ = 1;
  bool stopping_ = false;  // set by Stop(): serve nothing more
  std::thread ended_;      // the reader that ended last, not yet joined
};

}  // namespace lw::net
