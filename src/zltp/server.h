// ZLTP servers.
//
// ZltpPirServer serves one logical half of the two-server PIR mode: it owns
// no data itself but answers queries against a PirStore (the CDN runs two
// such logical servers on disjoint trust domains, each with a replica of the
// universe). Queries funnel through a BatchScheduler so concurrent clients
// share data scans (paper §5.1 batching).
//
// ZltpEnclaveServer fronts a simulated hardware enclave (paper §2.2's second
// mode): the host merely relays opaque encrypted requests into the enclave.
//
// Both serve through an EndpointCore (zltp/endpoint.h), which runs the
// connection protocol on a reactor or on any transport.
#pragma once

#include <memory>
#include <vector>

#include "net/reactor.h"
#include "net/transport.h"
#include "oram/enclave.h"
#include "util/thread_pool.h"
#include "zltp/batch.h"
#include "zltp/endpoint.h"
#include "zltp/messages.h"
#include "zltp/store.h"

namespace lw::zltp {

struct ServerOptions {
  BatchConfig batch_config;
  // Threads for each scan pass, its DPF expansion included (paper §5.1's
  // multi-core server): 0 selects hardware_concurrency(); 1 scans on the
  // batch worker alone, with no pool threads at all.
  int num_threads = 0;
};

class ZltpPirServer {
 public:
  // `role` is 0 or 1 — which of the two non-colluding servers this is.
  ZltpPirServer(const PirStore& store, std::uint8_t role,
                ServerOptions options = {});

  ZltpPirServer(const ZltpPirServer&) = delete;
  ZltpPirServer& operator=(const ZltpPirServer&) = delete;

  // Serves one connection on its own reader and writer threads until the
  // peer says Bye or hangs up; the destructor closes the connections still
  // open. Pipelined requests ride the batcher together.
  void ServeConnectionDetached(std::unique_ptr<net::Transport> transport) {
    core_.ServeDetached(std::move(transport));
  }

  // Event-driven serving: registers `listener` on `reactor` and answers
  // every connection it accepts without a thread per connection — frames
  // decode on the loop, ride the batcher via SubmitAsync, and the batch
  // worker's callback queues the reply (docs/ARCHITECTURE.md). Teardown
  // order: reactor.Stop() first (no more callbacks into this server), then
  // destroy the server, then the reactor object. The same order covers
  // reactors that also carry outbound links (a FrontEndServer's
  // ShardFanout::ConnectOnReactor connections): Stop() fires on_close for
  // every outbound conn, after which the fan-out fails its pending ops and
  // its links' Close(id) calls are stale-id no-ops. A fan-out built from
  // transports runs its links on its own pump and needs no such order.
  Status ServeOnReactor(net::Reactor& reactor, net::TcpListener listener) {
    return core_.ServeOnReactor(reactor, std::move(listener));
  }

  BatchScheduler::Stats batch_stats() const { return batcher_.stats(); }

 private:
  ThreadPool pool_;
  BatchScheduler batcher_;  // after pool_: it scans on the pool
  EndpointCore core_;  // last: its readers stop before the batcher goes
};

class ZltpEnclaveServer {
 public:
  explicit ZltpEnclaveServer(oram::KvEnclave& enclave);

  ZltpEnclaveServer(const ZltpEnclaveServer&) = delete;
  ZltpEnclaveServer& operator=(const ZltpEnclaveServer&) = delete;

  void ServeConnectionDetached(std::unique_ptr<net::Transport> transport) {
    core_.ServeDetached(std::move(transport));
  }

  // Event-driven serving (same teardown order as ZltpPirServer).
  Status ServeOnReactor(net::Reactor& reactor, net::TcpListener listener) {
    return core_.ServeOnReactor(reactor, std::move(listener));
  }

  // The enclave's scheduler answers through these. Any sealed request is
  // admitted; the enclave itself rejects what it cannot open.
  Status CheckKey(const Bytes& sealed_request) const;
  Result<std::vector<Bytes>> AnswerBatch(const std::vector<Bytes>& requests,
                                         ThreadPool* pool) const;

 private:
  oram::KvEnclave& enclave_;
  // The enclave's serial executor, off the loop: one rider per batch, so
  // requests run one at a time in arrival order.
  BasicBatchScheduler<Bytes, ZltpEnclaveServer> batcher_;
  EndpointCore core_;  // last: its readers stop before the batcher goes
};

}  // namespace lw::zltp
