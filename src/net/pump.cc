#include "net/pump.h"

#include <deque>
#include <utility>
#include <vector>

namespace lw::net {

struct TransportPump::Conn {
  // Requires mu. Ends the connection for `reason` unless it has ended
  // already: Send refuses from here on and the queued frames are dropped.
  // True if this call ended it; the caller then closes the transport
  // outside the lock, since a close may block and Send must not wait
  // behind it.
  bool EndLocked(Status reason) {
    if (ended) return false;
    ended = true;
    why = std::move(reason);
    outbox.clear();
    cv.notify_all();
    return true;
  }

  const ConnId id;
  const Handler handler;
  const TransportFactory factory;  // Connect's dial; null for Adopt
  // Guarded by mu. Null until the dial succeeds. Shared, so that a Close
  // on another thread keeps it alive while it closes it.
  std::shared_ptr<Transport> transport;

  std::mutex mu;  // guards transport and the members below
  std::condition_variable cv;  // wakes the writer
  std::deque<Frame> outbox;
  bool draining = false;  // CloseAfterFlush: send what is queued, then end
  bool ended = false;
  Status why = Status::Ok();  // on_close's status: the first end's reason

  std::thread reader;  // guarded by the pump's mu_; moved out on Retire
};

TransportPump::~TransportPump() { Stop(); }

TransportPump::ConnId TransportPump::Adopt(std::unique_ptr<Transport> transport,
                                           Handler handler) {
  return Start(std::move(transport), nullptr, std::move(handler));
}

TransportPump::ConnId TransportPump::Connect(TransportFactory factory,
                                             Handler handler) {
  return Start(nullptr, std::move(factory), std::move(handler));
}

TransportPump::ConnId TransportPump::Start(std::shared_ptr<Transport> transport,
                                           TransportFactory factory,
                                           Handler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  const ConnId id = next_id_++;
  auto conn = std::make_shared<Conn>(id, std::move(handler),
                                     stopping_ ? nullptr : std::move(factory),
                                     std::move(transport));
  // After Stop() a connection starts ended: its reader only closes what it
  // was given and reports on_close.
  if (stopping_) conn->EndLocked(UnavailableError("pump stopped"));
  // Under mu_, so the reader finds its own entry when it retires.
  conn->reader = std::thread([this, conn] { Run(*conn); });
  conns_.emplace(id, std::move(conn));
  return id;
}

void TransportPump::Stop() {
  std::vector<ConnId> open;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    for (const auto& [id, conn] : conns_) open.push_back(id);
  }
  for (const ConnId id : open) Close(id);
  std::thread last;
  {
    std::unique_lock<std::mutex> lock(mu_);
    retired_cv_.wait(lock, [this] { return conns_.empty(); });
    last = std::move(ended_);
  }
  if (last.joinable()) last.join();
}

std::shared_ptr<TransportPump::Conn> TransportPump::Find(ConnId id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : it->second;
}

Status TransportPump::Send(ConnId id, const Frame& frame) {
  if (const std::shared_ptr<Conn> conn = Find(id)) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (!conn->ended && !conn->draining) {
      conn->outbox.push_back(frame);
      conn->cv.notify_all();
      return Status::Ok();
    }
  }
  return UnavailableError("connection closed");
}

void TransportPump::Close(ConnId id) {
  const std::shared_ptr<Conn> conn = Find(id);
  if (conn == nullptr) return;
  std::shared_ptr<Transport> transport;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->EndLocked(Status::Ok())) transport = conn->transport;
  }
  // Null while the dial runs: the reader closes what the dial returns.
  if (transport != nullptr) transport->Close();
}

void TransportPump::CloseAfterFlush(ConnId id) {
  const std::shared_ptr<Conn> conn = Find(id);
  if (conn == nullptr) return;
  std::lock_guard<std::mutex> lock(conn->mu);
  conn->draining = true;
  conn->cv.notify_all();
}

void TransportPump::Run(Conn& conn) {
  Result<std::unique_ptr<Transport>> dialed =
      conn.factory ? conn.factory() : std::unique_ptr<Transport>();
  std::shared_ptr<Transport> transport;
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    if (!dialed.ok()) conn.EndLocked(dialed.status());
    if (dialed.ok() && *dialed != nullptr) conn.transport = std::move(*dialed);
    if (!conn.ended) transport = conn.transport;  // else: closed mid-dial
  }
  if (transport != nullptr) {
    std::thread writer([this, &conn, &transport] {
      WriteLoop(conn, *transport);
    });
    if (conn.handler.on_open) conn.handler.on_open(conn.id);
    ReadLoop(conn, *transport);
    writer.join();
  }
  Status why = Status::Ok();
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    conn.EndLocked(Status::Ok());
    why = conn.why;
    transport = std::move(conn.transport);
  }
  // Closed and freed now, not when the pump goes (a Close() still running
  // on another thread holds it only until that returns).
  if (transport != nullptr) transport->Close();
  transport.reset();
  if (conn.handler.on_close) conn.handler.on_close(conn.id, why);
  Retire(conn.id);
}

void TransportPump::ReadLoop(Conn& conn, Transport& transport) {
  for (;;) {
    // The peer owns every timeout: a quiet connection is normal, and the
    // end of the connection closes the transport, which ends this wait.
    Result<Frame> frame = transport.Receive(Deadline::Infinite());
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      // Nothing is delivered once the connection ends or hangs up; a
      // hang-up's writer ends the connection after the flush.
      if (conn.ended || conn.draining) return;
      if (!frame.ok()) conn.EndLocked(frame.status());
    }
    if (!frame.ok()) {
      transport.Close();  // ends the writer's wait too
      return;
    }
    if (conn.handler.on_frame) {
      conn.handler.on_frame(conn.id, std::move(*frame));
    }
  }
}

void TransportPump::WriteLoop(Conn& conn, Transport& transport) {
  std::unique_lock<std::mutex> lock(conn.mu);
  for (;;) {
    conn.cv.wait(lock, [&conn] {
      return conn.ended || conn.draining || !conn.outbox.empty();
    });
    if (conn.ended) return;
    if (conn.outbox.empty()) {
      // Hung up and flushed: closing the transport ends the reader's wait.
      conn.EndLocked(Status::Ok());
      lock.unlock();
      transport.Close();
      return;
    }
    const Frame frame = std::move(conn.outbox.front());
    conn.outbox.pop_front();
    lock.unlock();
    // A peer that stops reading stalls only this thread; the end of the
    // connection closes the transport, which ends the wait.
    const Status sent = transport.Send(frame, Deadline::Infinite());
    lock.lock();
    if (!sent.ok()) {
      // The stream may be cut mid-frame: end it, and the reader's wait.
      const bool ended_here = conn.EndLocked(sent);
      lock.unlock();
      if (ended_here) transport.Close();
      return;
    }
  }
}

void TransportPump::Retire(ConnId id) {
  std::thread previous;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = conns_.find(id);
    previous = std::exchange(ended_, std::move(it->second->reader));
    conns_.erase(it);
  }
  retired_cv_.notify_all();
  // Finished threads never pile up: each ended reader joins the one that
  // ended before it, and Stop() joins the last.
  if (previous.joinable()) previous.join();
}

}  // namespace lw::net
