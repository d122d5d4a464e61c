#include "zltp/server.h"

#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace lw::zltp {
namespace {

// PIR and enclave servers count alike: connections, requests and traces.
EndpointCounters ServerCounters() {
  obs::Metrics& m = obs::M();
  return {.connections = &m.server_connections,
          .active_connections = &m.server_active_connections,
          .requests = &m.server_requests,
          .request_errors = &m.server_request_errors,
          .request_ns = &m.server_request_ns,
          .record_traces = true};
}

ServerHello PirHello(const PirStore& store, std::uint8_t role) {
  ServerHello hello;
  hello.mode = Mode::kTwoServerPir;
  hello.server_role = role;
  hello.domain_bits = static_cast<std::uint8_t>(store.domain_bits());
  hello.record_size = static_cast<std::uint32_t>(store.record_size());
  hello.keyword_seed = store.config().keyword_seed;
  return hello;
}

ServerHello EnclaveHello(const oram::KvEnclave& enclave) {
  ServerHello hello;
  hello.mode = Mode::kEnclave;
  hello.record_size = static_cast<std::uint32_t>(enclave.value_size());
  hello.enclave_public_key = enclave.public_key();
  return hello;
}

}  // namespace

// --------------------------------------------------------------- PIR

ZltpPirServer::ZltpPirServer(const PirStore& store, std::uint8_t role,
                             ServerOptions options)
    : pool_(options.num_threads),
      batcher_(store, options.batch_config, &pool_),
      core_({.hello = PirHello(store, role),
             .parse = [this](Bytes body) -> Result<EndpointCore::Answer> {
               auto key = dpf::DpfKey::Deserialize(body);
               if (!key.ok()) {
                 return ProtocolError("malformed DPF key: " +
                                      key.status().message());
               }
               return EndpointCore::Answer(
                   [this, key = std::move(*key)](
                       EndpointCore::Done done) mutable {
                     batcher_.SubmitAsync(std::move(key), std::move(done));
                   });
             },
             .counters = ServerCounters()}) {
  LW_CHECK_MSG(role <= 1, "PIR server role must be 0 or 1");
}

// ------------------------------------------------------------ enclave

ZltpEnclaveServer::ZltpEnclaveServer(oram::KvEnclave& enclave)
    : enclave_(enclave),
      batcher_(*this, BatchConfig{.max_batch = 1,
                                  .max_wait = std::chrono::milliseconds(0)}),
      // The body is the sealed request itself: only the enclave opens it.
      core_({.hello = EnclaveHello(enclave),
             .parse = [this](Bytes body) -> Result<EndpointCore::Answer> {
               return EndpointCore::Answer(
                   [this, body = std::move(body)](
                       EndpointCore::Done done) mutable {
                     batcher_.SubmitAsync(std::move(body), std::move(done));
                   });
             },
             .counters = ServerCounters()}) {}

Status ZltpEnclaveServer::CheckKey(const Bytes&) const { return Status::Ok(); }

Result<std::vector<Bytes>> ZltpEnclaveServer::AnswerBatch(
    const std::vector<Bytes>& requests, ThreadPool*) const {
  std::vector<Bytes> sealed;
  sealed.reserve(requests.size());
  for (const Bytes& request : requests) {
    // The enclave's answer is this mode's scan stage: its trace carries
    // the time as scan_ns.
    const auto start = obs::TraceNow();
    Result<Bytes> reply = enclave_.HandleEncryptedRequest(request);
    const std::uint64_t ns = obs::ElapsedNs(start);
    obs::M().enclave_answer_ns.Observe(ns);
    obs::AddScanNs(ns);
    if (!reply.ok()) return reply.status();
    sealed.push_back(std::move(*reply));
  }
  return sealed;
}

}  // namespace lw::zltp
