// Event-driven server core: a non-blocking epoll reactor.
//
// One loop thread owns every registered socket: it accepts new connections
// (accept4 + SOCK_NONBLOCK), drains readable sockets into per-connection
// receive buffers, parses complete ZLTP frames out of them, and flushes
// per-connection send queues as sockets become writable. Nothing on the
// loop ever blocks in the kernel, so one thread multiplexes thousands of
// connections, and the batch scheduler's admission queue, not the kernel
// thread scheduler, decides which request runs next (docs/ARCHITECTURE.md).
//
// Division of labor:
//
//   loop thread      accept, read, frame parsing, write flushing, timers.
//                    Handler::on_frame runs here and MUST NOT block — it
//                    decodes and hands off (e.g. BatchScheduler::SubmitAsync
//                    or ShardFanout::AnswerAsync) and returns.
//   any thread       Send() appends wire bytes to the connection's send
//                    queue and wakes the loop via an eventfd; the loop owns
//                    the actual write() calls, including partial-write
//                    resume under EAGAIN.
//   compute threads  completion callbacks (batch workers, fan-out links)
//                    call Send()/CloseAfterFlush() to queue replies; they
//                    never touch the socket directly.
//
// Deadlines ride the loop, not per-thread poll() calls: an idle timeout
// (no complete frame in N ms — the slow-loris guard) and a write-stall
// timeout (queued reply bytes making no progress) are checked against an
// injectable lw::Clock each iteration, so FakeClock tests drive expiry
// deterministically via Advance() + Wakeup() with zero real waiting.
//
// The reactor is one of two hosts of the Connections API (net/connections.h);
// the other, net::TransportPump (net/pump.h), drives blocking
// net::Transports such as in-process links and fault-injecting decorators.
// The ZLTP endpoint core and the shard fan-out run one handler over either.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/connections.h"
#include "net/tcp.h"
#include "net/transport.h"
#include "util/clock.h"
#include "util/status.h"

namespace lw::net {

// Every Handler callback runs on the loop thread.
class Reactor final : public Connections {
 public:
  struct Options {
    // Time source for the idle/write-stall timers. null = Clock::Real().
    Clock* clock = nullptr;
    // Close a connection that has not completed a frame in this long
    // (slow-loris guard: a peer trickling one byte per minute holds a
    // buffer, not a thread, but should still not hold it forever).
    // zero = disabled.
    std::chrono::milliseconds idle_timeout{0};
    // Close a connection whose queued replies make no write progress in
    // this long (peer stopped reading). zero = disabled.
    std::chrono::milliseconds write_stall_timeout{0};
    // Hard cap on bytes queued for one connection; exceeding it closes the
    // connection (a reader this far behind is abusive or dead — unbounded
    // queues are how one slow peer eats the server's memory).
    std::size_t max_send_queue_bytes = 64 * 1024 * 1024;
  };

  Reactor();  // default Options
  explicit Reactor(Options options);
  ~Reactor();  // Stop()s.

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // Registers a listening socket; every connection it accepts is served
  // with `handler`. Callable before or after Start(). The listener is
  // owned (and closed) by the reactor from here on.
  Status AddListener(TcpListener listener, Handler handler);

  // Dials host:port without blocking the caller: the connect starts
  // non-blocking (TcpConnectStart) and the loop completes the handshake on
  // EPOLLOUT via SO_ERROR. The returned id is usable immediately — Send()
  // queues frames that flush once the handshake finishes; on_open fires
  // (loop thread) when it does, and a refused or unreachable peer surfaces
  // as on_close with the connect error. Outbound connections are exempt
  // from idle_timeout once established — a healthy client link is quiet
  // between requests — but the handshake itself is covered by it, so a
  // peer that never completes the dial is shed like a slow-loris.
  Result<ConnId> Connect(const std::string& host, std::uint16_t port,
                         Handler handler);

  // Spawns the loop thread. INVALID_ARGUMENT if already started.
  Status Start();

  // Closes every connection and listener, then joins the loop thread.
  // on_close fires for each open connection. Idempotent.
  void Stop();

  // Blocks until Stop() is called (serving mains park here).
  void Join();

  // Queues one frame for `id` and wakes the loop to flush it.
  // RESOURCE_EXHAUSTED if the send queue is over max_send_queue_bytes (the
  // connection is then closed).
  Status Send(ConnId id, const Frame& frame) override;

  // on_close fires from the loop.
  void Close(ConnId id) override;

  void CloseAfterFlush(ConnId id) override;

  // Open (accepted, not yet closed) connections.
  std::size_t connection_count() const;

  // Wakes the loop for a timer re-check; FakeClock tests call this after
  // Advance() so expiry does not wait for real-time epoll timeouts.
  void Wakeup();

 private:
  struct Conn {
    int fd = -1;
    ConnId id = 0;
    std::shared_ptr<const Handler> handler;
    // Receive side (loop thread only): unparsed wire bytes.
    Bytes rbuf;
    std::size_t rhead = 0;  // parse cursor into rbuf
    // Send side (guarded by Reactor::mu_): wire-encoded frames, with a
    // resume offset into the front frame after a short write.
    std::deque<Bytes> sendq;
    std::size_t send_off = 0;
    std::size_t queued_bytes = 0;
    bool want_write = false;     // EPOLLOUT armed
    bool draining = false;       // CloseAfterFlush: no reads, flush, close
    bool dead = false;           // removal scheduled
    bool outbound = false;       // dialed by Connect(), not accepted
    bool connecting = false;     // handshake pending; EPOLLOUT completes it
    Status close_reason = Status::Ok();        // first MarkDead reason wins
    std::chrono::nanoseconds last_frame{};     // idle timer basis
    std::chrono::nanoseconds last_progress{};  // write-stall timer basis
  };

  struct Listener {
    TcpListener listener;
    std::shared_ptr<const Handler> handler;
  };

  void LoopThread();
  void HandleAccept(Listener& lst);
  // Completes (or fails) an outbound handshake once epoll reports the
  // socket writable: SO_ERROR == 0 establishes the connection and flushes
  // any frames queued while connecting; anything else closes it.
  void FinishConnect(Conn& conn, std::uint32_t events);
  void HandleReadable(Conn& conn);
  // Parses complete frames out of conn.rbuf and dispatches them. Returns
  // false (and schedules removal) on a framing violation.
  bool ParseFrames(Conn& conn);
  // Flushes the send queue until empty or EAGAIN; arms/disarms EPOLLOUT.
  // Returns false if the connection died on a write error.
  bool FlushSends(Conn& conn);
  // Marks a connection for removal; the loop's sweep phase does the actual
  // teardown so handlers can close the connection they are handling without
  // pulling the rug out from under the frame-dispatch loop. mu_ held.
  void MarkDeadLocked(Conn& conn, Status why);
  // Re-registers epoll interest from draining/want_write. mu_ held.
  void UpdateInterestLocked(Conn& conn);
  void RemoveConn(ConnId id);  // loop thread: epoll DEL, close, on_close
  void SweepDead();            // loop thread: RemoveConn every marked conn
  void DrainAll();             // shutdown: every conn + listener torn down
  void CheckTimers();
  int NextTimeoutMs();
  void ArmWrites();  // applies Send()'s cross-thread write-interest marks

  Options options_;
  Clock* clock_;  // never null

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: cross-thread Send()/Wakeup()/Stop() signal

  mutable std::mutex mu_;  // conns_ map, send queues, write_pending_, state
  std::map<ConnId, std::unique_ptr<Conn>> conns_;
  std::map<ConnId, Listener> listeners_;  // listener ids share the id space
  std::vector<ConnId> write_pending_;     // Send() marks, loop drains
  std::vector<ConnId> dead_pending_;      // MarkDead marks, sweep removes
  ConnId next_id_ = 1;
  bool started_ = false;
  bool stopping_ = false;

  std::mutex join_mu_;
  std::condition_variable join_cv_;
  bool stopped_ = false;

  std::thread loop_;
};

}  // namespace lw::net
